open Eden_util

(* Traces are grouped on first use: the checker's rules that work on
   incomplete journals never ask for them. *)
type groups = {
  g_ids : int array;  (* distinct trace ids, ascending *)
  g_of : int array;  (* ordinal of each position's trace *)
  g_start : int array;  (* slice bounds into [g_members], [traces + 1] *)
  g_members : int array;
}

type t = {
  ix_events : Journal.event array;
  ix_input : int array option;  (* list order -> position; [None]: identity *)
  ix_groups : groups Lazy.t;
}

let length t = Array.length t.ix_events
let events t = t.ix_events
let input t i = match t.ix_input with None -> i | Some a -> a.(i)
let id_at evs p = (Array.unsafe_get evs p).Journal.ev_id

(* The last position whose id is <= [id], or -1, searched from any
   position [from]: steps of 1, 2, 4, ... bracket the answer in the
   direction of [id], and a bisection of that bracket finds it, so an
   answer [d] positions from [from] costs O(log d) reads.  Throughout,
   [lo] is -1 or a position with id <= [id], and [hi] is [n] or one
   with id > [id]. *)
let last_le evs id ~from =
  let n = Array.length evs in
  let lo = ref (-1) and hi = ref n in
  let step = ref 1 in
  if id_at evs from <= id then begin
    lo := from;
    while !lo + !step < n && id_at evs (!lo + !step) <= id do
      lo := !lo + !step;
      step := 2 * !step
    done;
    hi := min n (!lo + !step)
  end
  else begin
    hi := from;
    while !hi - !step >= 0 && id_at evs (!hi - !step) > id do
      hi := !hi - !step;
      step := 2 * !step
    done;
    lo := max (-1) (!hi - !step)
  end;
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) lsr 1 in
    if id_at evs mid <= id then lo := mid else hi := mid
  done;
  !lo

(* Ids are allocated densely, so a parent [id p - id] ids back is
   about as many positions back: the search starts there, clamped to
   [0, p].  Where no event between the two was dropped the guess is the
   answer; each id missing in between (another node's events, or
   events a ring dropped) leaves it one position further off. *)
let parent t p =
  let evs = t.ix_events in
  let id = evs.(p).Journal.ev_parent in
  if id < 0 then -1
  else
    let back = id_at evs p - id in
    let from = if back <= 0 then p else if back >= p then 0 else p - back in
    let q = last_le evs id ~from in
    if q >= 0 && id_at evs q = id then q else -1

(* The positions grouped by trace id: a stable radix sort of positions
   already in id order, so each trace's positions come out in id
   order.  The sort reads the traces in a scattered order: from one
   flat array, not from the records.  Its spare array becomes [g_of]. *)
let group evs ~dups =
  let n = Array.length evs in
  let trs = Array.map (fun (e : Journal.event) -> e.Journal.ev_trace) evs in
  let g_members, g_of = Radix.order trs in
  let tr p = Array.unsafe_get trs p in
  let nt = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || tr g_members.(i) <> tr g_members.(i - 1) then incr nt
  done;
  let g_ids = Array.make !nt 0 and g_start = Array.make (!nt + 1) n in
  let k = ref (-1) in
  for i = 0 to n - 1 do
    let p = g_members.(i) in
    if i = 0 || tr p <> tr g_members.(i - 1) then begin
      incr k;
      g_ids.(!k) <- tr p;
      g_start.(!k) <- i
    end;
    g_of.(p) <- !k
  done;
  (* Equal ids within a slice, newest first: reverse each run. *)
  if dups then begin
    let same i j =
      id_at evs g_members.(i) = id_at evs g_members.(j)
      && g_of.(g_members.(i)) = g_of.(g_members.(j))
    in
    let i = ref 0 in
    while !i < n do
      let j = ref (!i + 1) in
      while !j < n && same !i !j do incr j done;
      let run = Array.sub g_members !i (!j - !i) in
      Array.iteri (fun k p -> g_members.(!j - 1 - k) <- p) run;
      i := !j
    done
  end;
  { g_ids; g_of; g_start; g_members }

(* Whether [evs] is in id order, and whether two neighbours share an
   id: one pass. *)
let scan evs =
  let sorted = ref true and dups = ref false in
  for i = 1 to Array.length evs - 1 do
    let c = Int.compare (id_at evs i) (id_at evs (i - 1)) in
    if c < 0 then sorted := false else if c = 0 then dups := true
  done;
  (!sorted, !dups)

let of_events list =
  let input = Array.of_list list in
  let n = Array.length input in
  let sorted, dups = scan input in
  let evs, ix_input, dups =
    if sorted then (input, None, dups)
    else begin
      let perm = Array.init n Fun.id in
      Array.stable_sort
        (fun a b -> Int.compare (id_at input a) (id_at input b))
        perm;
      let pos = Array.make n 0 in
      Array.iteri (fun p i -> pos.(i) <- p) perm;
      let evs = Array.map (fun i -> input.(i)) perm in
      (evs, Some pos, snd (scan evs))
    end
  in
  { ix_events = evs; ix_input; ix_groups = lazy (group evs ~dups) }

let groups t = Lazy.force t.ix_groups
let traces t = Array.length (groups t).g_ids
let trace_id t k = (groups t).g_ids.(k)
let trace_of t = (groups t).g_of
let members t = (groups t).g_members
let bounds t = (groups t).g_start
