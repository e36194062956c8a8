open Eden_util

type labels = (string * string) list

type counter = int ref

type histogram = {
  h_bounds : float array;
  h_counts : int array;  (* one per bound, plus overflow at the end *)
  mutable h_sum : float;
  mutable h_n : int;
}

type instrument =
  | I_counter of counter
  | I_counter_fn of (unit -> int)
  | I_gauge_fn of (unit -> float)
  | I_histogram of histogram

(* Label lists are hashed, compared and ordered through their strings
   alone: the generic hash and compare walk a list in C one tagged
   field at a time, and registration is most of a short cluster's
   set-up. *)
let rec labels_equal a b =
  match (a, b) with
  | [], [] -> true
  | (ka, va) :: ra, (kb, vb) :: rb ->
    String.equal ka kb && String.equal va vb && labels_equal ra rb
  | _ -> false

(* The generic compare's order on label lists: pair by pair, key
   before value, and a list before any longer list it begins. *)
let rec compare_labels a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | (ka, va) :: ra, (kb, vb) :: rb -> (
    match String.compare ka kb with
    | 0 -> (
      match String.compare va vb with 0 -> compare_labels ra rb | c -> c)
    | c -> c)

module Names = Hashtbl.Make (String)

(* Values only: the keys of one name's label sets are nearly always
   the same, and lookups still compare them. *)
let hash_labels labels =
  List.fold_left (fun h (_, v) -> (h * 31) + String.hash v) 0 labels

(* The instruments registered under one name, in a chained table by
   label set.  Entries keep their hash, so growing the table rehashes
   nothing. *)
type bucket =
  | Nil
  | Entry of {
      labels : labels;
      hash : int;
      inst : instrument;
      mutable next : bucket;
    }

type family = {
  f_name : string;
  mutable f_buckets : bucket array;  (* a power of two long *)
  mutable f_size : int;
  mutable f_next : family option;
      (* the name registered after this one last time *)
}

(* Two levels: a name table (a few dozen names, whatever the node
   count) over one label-set table per name, so a cluster's set-up
   never regrows a table holding every instrument.

   Two memos skip most hashing at set-up, where a cluster registers
   the same names in the same order for every node, all under one
   label list: the family after the last one used is tried before the
   name table, and the last label list's hash is kept. *)
type t = {
  names : family Names.t;
  mutable last : family;
  mutable last_labels : labels;
  mutable last_hash : int;
}

(* The buckets are an array literal, which is allocated inline; an
   [Array.make] is a C call, and a cluster's set-up makes some sixty
   families. *)
let new_family name =
  {
    f_name = name;
    f_buckets = [| Nil; Nil; Nil; Nil; Nil; Nil; Nil; Nil |];
    f_size = 0;
    f_next = None;
  }

let create () =
  {
    names = Names.create 64;
    last = new_family "";
    last_labels = [];
    last_hash = hash_labels [];
  }

(* A list of one pair or none is kept as the caller's, so the label
   hash memo recognises it when the caller passes it again. *)
let canon = function
  | ([] | [ _ ]) as labels -> labels
  | labels -> List.stable_sort (fun (a, _) (b, _) -> String.compare a b) labels

let kind_name = function
  | I_counter _ | I_counter_fn _ -> "counter"
  | I_gauge_fn _ -> "gauge"
  | I_histogram _ -> "histogram"

let family reg name =
  let f =
    match reg.last.f_next with
    | Some f when String.equal f.f_name name -> f
    | _ -> (
      match Names.find_opt reg.names name with
      | Some f -> f
      | None ->
        let f = new_family name in
        Names.add reg.names name f;
        f)
  in
  (match reg.last.f_next with
  | Some next when next == f -> ()
  | _ -> reg.last.f_next <- Some f);
  reg.last <- f;
  f

let rec find labels hash = function
  | Nil -> None
  | Entry e ->
    if e.hash = hash && labels_equal e.labels labels then Some e.inst
    else find labels hash e.next

let grow f =
  let old = f.f_buckets in
  let buckets = Array.make (2 * Array.length old) Nil in
  let mask = Array.length buckets - 1 in
  let rec move = function
    | Nil -> ()
    | Entry e as cell ->
      let rest = e.next in
      let i = e.hash land mask in
      e.next <- buckets.(i);
      buckets.(i) <- cell;
      move rest
  in
  Array.iter move old;
  f.f_buckets <- buckets

let already_registered name inst =
  invalid_arg
    (Printf.sprintf "Metrics: %S already registered as a %s" name
       (kind_name inst))

(* The instrument registered under [(name, labels)]; [fresh] is
   registered there first when there is none. *)
let intern reg ?(labels = []) name fresh =
  let labels = canon labels in
  let f = family reg name in
  if labels != reg.last_labels then begin
    reg.last_labels <- labels;
    reg.last_hash <- hash_labels labels
  end;
  let hash = reg.last_hash in
  let i = hash land (Array.length f.f_buckets - 1) in
  match find labels hash f.f_buckets.(i) with
  | Some inst -> inst
  | None ->
    f.f_buckets.(i) <-
      Entry { labels; hash; inst = fresh; next = f.f_buckets.(i) };
    f.f_size <- f.f_size + 1;
    if f.f_size > 2 * Array.length f.f_buckets then grow f;
    fresh

let fold_family fn f acc =
  let rec chain acc = function
    | Nil -> acc
    | Entry e -> chain (fn e.labels e.inst acc) e.next
  in
  Array.fold_left chain acc f.f_buckets

let counter reg ?labels name =
  match intern reg ?labels name (I_counter (ref 0)) with
  | I_counter c -> c
  | inst -> already_registered name inst

let incr c = Stdlib.incr c

let add c n =
  if n < 0 then invalid_arg "Metrics.add: counters are monotonic";
  c := !c + n

let counter_value c = !c

(* IEEE equality, bound by bound, as the generic [=] on float arrays. *)
let same_bounds (a : float array) b =
  let n = Array.length a in
  let rec from i = i >= n || (a.(i) = b.(i) && from (i + 1)) in
  n = Array.length b && from 0

let histogram reg ?labels ~buckets name =
  if Array.length buckets = 0 then
    invalid_arg "Metrics.histogram: no buckets";
  Array.iteri
    (fun i b ->
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Metrics.histogram: bounds must be strictly increasing")
    buckets;
  let fresh =
    {
      h_bounds = Array.copy buckets;
      h_counts = Array.make (Array.length buckets + 1) 0;
      h_sum = 0.0;
      h_n = 0;
    }
  in
  match intern reg ?labels name (I_histogram fresh) with
  | I_histogram h when h == fresh || same_bounds h.h_bounds buckets -> h
  | I_histogram _ ->
    invalid_arg (Printf.sprintf "Metrics: histogram %S bucket mismatch" name)
  | inst -> already_registered name inst

(* A NaN observation fails every [v <= bound] test and lands in
   overflow while turning [h_sum] into NaN for good; a negative one
   lands in the first bucket and drags the sum down.  Histograms here
   record magnitudes (durations, sizes), so both are measurement bugs:
   drop them instead of polluting the buckets. *)
let observe h v =
  if Float.is_nan v || v < 0.0 || v = infinity then ()
  else begin
    let n = Array.length h.h_bounds in
    let rec slot i = if i >= n || v <= h.h_bounds.(i) then i else slot (i + 1) in
    let i = slot 0 in
    h.h_counts.(i) <- h.h_counts.(i) + 1;
    h.h_sum <- h.h_sum +. v;
    h.h_n <- h.h_n + 1
  end

let observe_time h t = observe h (Time.to_sec t)

(* A collector is never shared: registering one where any instrument
   already is fails. *)
let register_fn reg ?labels name fresh =
  let inst = intern reg ?labels name fresh in
  if inst != fresh then already_registered name inst

let register_counter_fn reg ?labels name f =
  register_fn reg ?labels name (I_counter_fn f)

let register_gauge_fn reg ?labels name f =
  register_fn reg ?labels name (I_gauge_fn f)

(* -------------------------------------------------------------------- *)
(* Sampling *)

type histogram_view = {
  bounds : float array;
  counts : int array;
  overflow : int;
  count : int;
  sum : float;
}

type value = Counter of int | Gauge of float | Histogram of histogram_view

type sample = { s_name : string; s_labels : labels; s_value : value }

let read = function
  | I_counter c -> Counter !c
  | I_counter_fn f -> Counter (f ())
  | I_gauge_fn f -> Gauge (f ())
  | I_histogram h ->
    let n = Array.length h.h_bounds in
    Histogram
      {
        bounds = Array.copy h.h_bounds;
        counts = Array.sub h.h_counts 0 n;
        overflow = h.h_counts.(n);
        count = h.h_n;
        sum = h.h_sum;
      }

let sample reg =
  Names.fold
    (fun name f acc ->
      fold_family
        (fun labels inst acc ->
          { s_name = name; s_labels = labels; s_value = read inst } :: acc)
        f acc)
    reg.names []
  |> List.sort (fun a b ->
         match String.compare a.s_name b.s_name with
         | 0 -> compare_labels a.s_labels b.s_labels
         | c -> c)

(* [filter] is consulted before [read], so instruments it rejects never
   have their collector closures evaluated.  That matters for callers on
   a hot sampling path: registered gauge functions may walk large
   structures (e.g. the engine's process table), and a periodic sampler
   interested in a handful of names must not pay for the rest. *)
let iter ?filter reg f =
  let want =
    match filter with None -> fun _ -> true | Some p -> p
  in
  Names.iter
    (fun name fam ->
      if want name then
        fold_family (fun labels inst () -> f name labels (read inst)) fam ())
    reg.names

let find samples ?(labels = []) name =
  let labels = canon labels in
  List.find_map
    (fun s ->
      if String.equal s.s_name name && labels_equal s.s_labels labels then
        Some s.s_value
      else None)
    samples
