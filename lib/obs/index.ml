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
  ix_ids : int array;  (* ids of [ix_events]: the binary search reads no record *)
  ix_input : int array option;  (* list order -> position; [None]: identity *)
  ix_groups : groups Lazy.t;
}

let length t = Array.length t.ix_events
let events t = t.ix_events
let input t i = match t.ix_input with None -> i | Some a -> a.(i)

(* The last index whose id is <= [id], then check it. *)
let find t id =
  let ids = t.ix_ids in
  let lo = ref 0 and hi = ref (Array.length ids) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get ids mid <= id then lo := mid + 1 else hi := mid
  done;
  if !lo > 0 && ids.(!lo - 1) = id then !lo - 1 else -1

(* Give each distinct trace an ordinal in order of first appearance
   (an int-keyed table), rank those by trace id, then lay the
   positions out per trace with a counting pass. *)
let group evs ids ~dups =
  let n = Array.length evs in
  let seen = Itbl.create 1024 in
  let first = Array.make n 0 in  (* first-appearance ordinal per position *)
  let firsts = Array.make n 0 in  (* trace id per first-appearance ordinal *)
  let nt = ref 0 in
  for p = 0 to n - 1 do
    let tr = evs.(p).Journal.ev_trace in
    first.(p) <-
      (match Itbl.find seen tr with
      | o -> o
      | exception Not_found ->
        let o = !nt in
        Itbl.add seen tr o;
        firsts.(o) <- tr;
        incr nt;
        o)
  done;
  let nt = !nt in
  let order = Array.init nt Fun.id in
  Array.stable_sort (fun a b -> Int.compare firsts.(a) firsts.(b)) order;
  let rank = Array.make nt 0 in
  Array.iteri (fun k o -> rank.(o) <- k) order;
  let g_ids = Array.make nt 0 and g_of = Array.make n 0 in
  Array.iteri (fun k o -> g_ids.(k) <- firsts.(o)) order;
  Array.iteri (fun p o -> g_of.(p) <- rank.(o)) first;
  let g_start = Array.make (nt + 1) 0 in
  Array.iter (fun k -> g_start.(k + 1) <- g_start.(k + 1) + 1) g_of;
  for k = 1 to nt do
    g_start.(k) <- g_start.(k) + g_start.(k - 1)
  done;
  let fill = Array.sub g_start 0 nt in
  let g_members = Array.make n 0 in
  for p = 0 to n - 1 do
    let k = g_of.(p) in
    g_members.(fill.(k)) <- p;
    fill.(k) <- fill.(k) + 1
  done;
  (* Equal ids within a slice, newest first: reverse each run. *)
  if dups then begin
    let same i j =
      ids.(g_members.(i)) = ids.(g_members.(j))
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

let of_events list =
  let input = Array.of_list list in
  let n = Array.length input in
  let sorted = ref true in
  for i = 1 to n - 1 do
    if input.(i).Journal.ev_id < input.(i - 1).Journal.ev_id then sorted := false
  done;
  let evs, ix_input =
    if !sorted then (input, None)
    else begin
      let perm = Array.init n Fun.id in
      Array.stable_sort
        (fun a b -> Int.compare input.(a).Journal.ev_id input.(b).Journal.ev_id)
        perm;
      let pos = Array.make n 0 in
      Array.iteri (fun p i -> pos.(i) <- p) perm;
      (Array.map (fun i -> input.(i)) perm, Some pos)
    end
  in
  (* Int arrays are filled by plain stores: [Array.map] would store
     through the write barrier, not knowing its result holds ints. *)
  let ids = Array.make n 0 in
  Array.iteri (fun p e -> ids.(p) <- e.Journal.ev_id) evs;
  let dups = ref false in
  for p = 1 to n - 1 do
    if ids.(p) = ids.(p - 1) then dups := true
  done;
  { ix_events = evs; ix_ids = ids; ix_input;
    ix_groups = lazy (group evs ids ~dups:!dups) }

let groups t = Lazy.force t.ix_groups
let traces t = Array.length (groups t).g_ids
let trace_id t k = (groups t).g_ids.(k)
let trace_of t = (groups t).g_of
let members t = (groups t).g_members
let bounds t = (groups t).g_start
