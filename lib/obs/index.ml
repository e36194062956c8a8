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

(* The last position whose id is <= [id], or -1.  A parent is usually
   a few positions behind its child, so the search starts at [from]:
   steps of 1, 2, 4, ... bracket the answer in the direction of [id],
   and a bisection of that bracket finds it.  Throughout, [lo] is -1
   or a position with id <= [id], and [hi] is [n] or one with
   id > [id]. *)
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

let parent t p =
  let evs = t.ix_events in
  let id = evs.(p).Journal.ev_parent in
  if id < 0 then -1
  else
    let q = last_le evs id ~from:p in
    if q >= 0 && id_at evs q = id then q else -1

(* A stable LSD radix sort of the positions by trace id, on digits of
   at most [radix_bits] of the id's offset from the smallest: a run's
   trace ids span a few hundred thousand, so two passes.  Positions
   are in id order and the sort is stable, so each trace's positions
   come out in id order. *)
let radix_bits = 11

let sort_by_trace evs =
  let n = Array.length evs in
  (* The passes read the traces in a scattered order: from one flat
     array, not from the records. *)
  let trs = Array.make n 0 in
  let lo = ref max_int and hi = ref min_int in
  for p = 0 to n - 1 do
    let x = (Array.unsafe_get evs p).Journal.ev_trace in
    trs.(p) <- x;
    if x < !lo then lo := x;
    if x > !hi then hi := x
  done;
  let tr p = Array.unsafe_get trs p in
  let lo = !lo in
  (* [x - lo] read unsigned: exact even when the span overflows. *)
  let bits = ref 0 in
  while n > 0 && !bits < Sys.int_size && (!hi - lo) lsr !bits <> 0 do
    incr bits
  done;
  let passes = max 1 ((!bits + radix_bits - 1) / radix_bits) in
  let width = max 1 ((!bits + passes - 1) / passes) in
  let mask = (1 lsl width) - 1 in
  let counts = Array.make (mask + 2) 0 in
  let src = ref (Array.init n Fun.id) and dst = ref (Array.make n 0) in
  for pass = 0 to passes - 1 do
    let shift = pass * width and s = !src and d = !dst in
    let digit p = ((tr p - lo) lsr shift) land mask in
    Array.fill counts 0 (mask + 2) 0;
    for i = 0 to n - 1 do
      let k = digit s.(i) + 1 in
      counts.(k) <- counts.(k) + 1
    done;
    for k = 1 to mask + 1 do
      counts.(k) <- counts.(k) + counts.(k - 1)
    done;
    for i = 0 to n - 1 do
      let p = s.(i) in
      let k = digit p in
      d.(counts.(k)) <- p;
      counts.(k) <- counts.(k) + 1
    done;
    src := d;
    dst := s
  done;
  (* The sorted positions, a spare array of the same length, and the
     traces. *)
  (!src, !dst, trs)

let group evs ~dups =
  let n = Array.length evs in
  let g_members, g_of, trs = sort_by_trace evs in
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

let of_events list =
  let input = Array.of_list list in
  let n = Array.length input in
  let sorted = ref true in
  for i = 1 to n - 1 do
    if id_at input i < id_at input (i - 1) then sorted := false
  done;
  let evs, ix_input =
    if !sorted then (input, None)
    else begin
      let perm = Array.init n Fun.id in
      Array.stable_sort
        (fun a b -> Int.compare (id_at input a) (id_at input b))
        perm;
      let pos = Array.make n 0 in
      Array.iteri (fun p i -> pos.(i) <- p) perm;
      (Array.map (fun i -> input.(i)) perm, Some pos)
    end
  in
  let dups = ref false in
  for p = 1 to n - 1 do
    if id_at evs p = id_at evs (p - 1) then dups := true
  done;
  { ix_events = evs; ix_input; ix_groups = lazy (group evs ~dups:!dups) }

let groups t = Lazy.force t.ix_groups
let traces t = Array.length (groups t).g_ids
let trace_id t k = (groups t).g_ids.(k)
let trace_of t = (groups t).g_of
let members t = (groups t).g_members
let bounds t = (groups t).g_start
