(* Entries are ordered by (key, seq); the caller numbers them, so that
   several heaps fed from one counter merge into a single total order.
   Heap position [i] holds the entry ([keys.(i)], [seqs.(i)]) whose
   value sits in [vals.(slots.(i))].  Sifting moves integers only: a
   store into [vals] goes through the GC write barrier, so a value is
   written once on push and cleared once on pop (or before, by
   [clear]) rather than at every level of the heap.  The value slots not in use form a stack in
   [free.(0 .. capacity - size - 1)]. *)
type 'a t = {
  dummy : 'a;
  mutable keys : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable vals : 'a array;
  mutable free : int array;
  mutable size : int;
}

let create ~dummy () =
  {
    dummy;
    keys = [||];
    seqs = [||];
    slots = [||];
    vals = [||];
    free = [||];
    size = 0;
  }

let length h = h.size
let is_empty h = h.size = 0

(* Only called when full: every value slot is in use, so the free
   stack becomes the new slots [cap .. ncap - 1], lowest on top. *)
let grow h =
  let cap = Array.length h.keys in
  let ncap = Int.max 16 (2 * cap) in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  h.keys <- extend h.keys 0;
  h.seqs <- extend h.seqs 0;
  h.slots <- extend h.slots 0;
  h.vals <- extend h.vals h.dummy;
  h.free <- Array.init ncap (fun i -> ncap - 1 - i)

let[@inline] move (keys : int array) (seqs : int array) (slots : int array) ~src
    ~dst =
  Array.unsafe_set keys dst (Array.unsafe_get keys src);
  Array.unsafe_set seqs dst (Array.unsafe_get seqs src);
  Array.unsafe_set slots dst (Array.unsafe_get slots src)

let[@inline] place (keys : int array) (seqs : int array) (slots : int array) i
    (k : int) (s : int) (slot : int) =
  Array.unsafe_set keys i k;
  Array.unsafe_set seqs i s;
  Array.unsafe_set slots i slot

(* Whether the entry at [i] orders before ([k], [s]). *)
let[@inline] earlier (keys : int array) (seqs : int array) i (k : int) (s : int)
    =
  let ki : int = Array.unsafe_get keys i in
  ki < k || (ki = k && (Array.unsafe_get seqs i : int) < s)

let rec sift_up keys seqs slots i k s slot =
  if i = 0 then place keys seqs slots 0 k s slot
  else
    let parent = (i - 1) / 2 in
    if earlier keys seqs parent k s then place keys seqs slots i k s slot
    else begin
      move keys seqs slots ~src:parent ~dst:i;
      sift_up keys seqs slots parent k s slot
    end

let rec sift_down keys seqs slots size i k s slot =
  let l = (2 * i) + 1 in
  if l >= size then place keys seqs slots i k s slot
  else
    let r = l + 1 in
    let c =
      if
        r < size
        && earlier keys seqs r (Array.unsafe_get keys l)
             (Array.unsafe_get seqs l)
      then r
      else l
    in
    if earlier keys seqs c k s then begin
      move keys seqs slots ~src:c ~dst:i;
      sift_down keys seqs slots size c k s slot
    end
    else place keys seqs slots i k s slot

let push_seq h key seq v =
  if h.size = Array.length h.keys then grow h;
  let i = h.size in
  h.size <- i + 1;
  (* With [size] counting the new entry, the free stack's top is at
     [capacity - size]. *)
  let slot = Array.unsafe_get h.free (Array.length h.keys - h.size) in
  Array.unsafe_set h.vals slot v;
  sift_up h.keys h.seqs h.slots i key seq slot;
  slot

let clear h slot = Array.set h.vals slot h.dummy

let min_key h =
  if h.size = 0 then invalid_arg "Pqueue.min_key: empty heap";
  Array.unsafe_get h.keys 0

let min_seq h =
  if h.size = 0 then invalid_arg "Pqueue.min_seq: empty heap";
  Array.unsafe_get h.seqs 0

let pop_exn h =
  if h.size = 0 then invalid_arg "Pqueue.pop_exn: empty heap";
  let keys = h.keys and seqs = h.seqs and slots = h.slots in
  let slot = Array.unsafe_get slots 0 in
  let top = Array.unsafe_get h.vals slot in
  Array.unsafe_set h.vals slot h.dummy;
  Array.unsafe_set h.free (Array.length keys - h.size) slot;
  let last = h.size - 1 in
  h.size <- last;
  if last > 0 then
    sift_down keys seqs slots last 0 (Array.unsafe_get keys last)
      (Array.unsafe_get seqs last) (Array.unsafe_get slots last);
  top

let pop h =
  if h.size = 0 then None
  else
    let k = Array.unsafe_get h.keys 0 in
    Some (k, pop_exn h)
