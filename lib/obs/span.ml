open Eden_util

type info = {
  i_id : int;
  i_parent : int option;
  i_op : string;
  i_target : string;
  i_origin : int;
  i_remote : bool;
  i_outcome : string;
  i_start : Time.t;
  i_finish : Time.t;
}

let info_to_json i =
  Json.Obj
    [
      ("id", Json.Int i.i_id);
      ( "parent",
        match i.i_parent with Some p -> Json.Int p | None -> Json.Null );
      ("op", Json.Str i.i_op);
      ("target", Json.Str i.i_target);
      ("origin", Json.Int i.i_origin);
      ("remote", Json.Bool i.i_remote);
      ("outcome", Json.Str i.i_outcome);
      ("start_ns", Json.Int (Time.to_ns i.i_start));
      ("end_ns", Json.Int (Time.to_ns i.i_finish));
    ]

let info_of_json j =
  let ( let* ) r f = Result.bind r f in
  let req k conv =
    match Option.bind (Json.member k j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "span: missing or bad field %S" k)
  in
  let* i_id = req "id" Json.to_int in
  let i_parent =
    match Json.member "parent" j with
    | Some (Json.Int p) -> Some p
    | _ -> None
  in
  let* i_op = req "op" Json.to_str in
  let* i_target = req "target" Json.to_str in
  let* i_origin = req "origin" Json.to_int in
  let* i_remote = req "remote" Json.to_bool in
  let* i_outcome = req "outcome" Json.to_str in
  let* start_ns = req "start_ns" Json.to_int in
  let* end_ns = req "end_ns" Json.to_int in
  Ok
    {
      i_id;
      i_parent;
      i_op;
      i_target;
      i_origin;
      i_remote;
      i_outcome;
      i_start = Time.ns start_ns;
      i_finish = Time.ns end_ns;
    }

(* ---------------------------------------------------------------- *)
(* Live spans *)

(* Finished spans are kept in a ring, not as [info] records.  A record
   outlives the invocation, so each one is promoted and then re-marked
   by every major collection for as long as the collector keeps it.
   The ring keeps each span as [stride] ints in a [Bigarray], outside
   the OCaml heap, plus the op, target and outcome strings, which are
   shared with the caller and cost nothing extra; [finished] and
   [last_finished] rebuild the [info] values on read.  The ring grows
   geometrically up to [keep], so a collector that sees few spans
   stays small.

   Slot layout: id, parent (-1 for none), origin, remote (0 or 1),
   start and finish in ns. *)
let stride = 6

module Ints = Bigarray.Array1

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Ints.t

let make_ints n : ints = Ints.create Bigarray.int Bigarray.c_layout n

type collector = {
  mutable next_id : int;
  keep : int;
  mutable ints : ints;  (* stride [stride] per slot *)
  mutable strs : string array;  (* op, target, outcome per slot *)
  mutable size : int;  (* slots allocated *)
  mutable first : int;  (* slot of the oldest retained span *)
  mutable len : int;
}

type t = {
  sp_id : int;
  sp_parent : int option;
  sp_op : string;
  sp_target : string;
  sp_origin : int;
  mutable sp_remote : bool;
  sp_start : Time.t;
  mutable sp_sealed : bool;
  mutable sp_finish : Time.t;  (* meaningful once sealed *)
  sp_home : collector;
}

let create ?(keep = 4096) () =
  if keep <= 0 then invalid_arg "Span.create: keep must be positive";
  {
    next_id = 0;
    keep;
    ints = make_ints 0;
    strs = [||];
    size = 0;
    first = 0;
    len = 0;
  }

let start col ?parent ~op ~target ~origin ~at () =
  let id = col.next_id in
  col.next_id <- id + 1;
  {
    sp_id = id;
    sp_parent = parent;
    sp_op = op;
    sp_target = target;
    sp_origin = origin;
    sp_remote = false;
    sp_start = at;
    sp_sealed = false;
    sp_finish = at;
    sp_home = col;
  }

let id t = t.sp_id
let note_remote t = t.sp_remote <- true

let grow col =
  let old = col.size in
  let size = min col.keep (max 64 (old * 2)) in
  let ints = make_ints (size * stride) in
  let strs = Array.make (size * 3) "" in
  for i = 0 to col.len - 1 do
    let src = (col.first + i) mod old in
    Ints.blit
      (Ints.sub col.ints (src * stride) stride)
      (Ints.sub ints (i * stride) stride);
    Array.blit col.strs (src * 3) strs (i * 3) 3
  done;
  col.ints <- ints;
  col.strs <- strs;
  col.size <- size;
  col.first <- 0

(* The slot for the next finished span: the one after the newest, or
   the oldest once the ring holds [keep]. *)
let next_slot col =
  if col.len = col.size && col.size < col.keep then grow col;
  if col.len < col.size then begin
    let s = col.first + col.len in
    col.len <- col.len + 1;
    if s >= col.size then s - col.size else s
  end
  else begin
    let s = col.first in
    col.first <- (if s + 1 >= col.size then 0 else s + 1);
    s
  end

let retain col t ~outcome ~at =
  let slot = next_slot col in
  let b = slot * stride and ints = col.ints in
  Ints.unsafe_set ints b t.sp_id;
  Ints.unsafe_set ints (b + 1)
    (match t.sp_parent with Some p -> p | None -> -1);
  Ints.unsafe_set ints (b + 2) t.sp_origin;
  Ints.unsafe_set ints (b + 3) (if t.sp_remote then 1 else 0);
  Ints.unsafe_set ints (b + 4) (Time.to_ns t.sp_start);
  Ints.unsafe_set ints (b + 5) (Time.to_ns at);
  let sb = slot * 3 in
  col.strs.(sb) <- t.sp_op;
  col.strs.(sb + 1) <- t.sp_target;
  col.strs.(sb + 2) <- outcome

let info_at col slot =
  let b = slot * stride and ints = col.ints in
  let sb = slot * 3 in
  let parent = Ints.unsafe_get ints (b + 1) in
  {
    i_id = Ints.unsafe_get ints b;
    i_parent = (if parent < 0 then None else Some parent);
    i_op = col.strs.(sb);
    i_target = col.strs.(sb + 1);
    i_origin = Ints.unsafe_get ints (b + 2);
    i_remote = Ints.unsafe_get ints (b + 3) = 1;
    i_outcome = col.strs.(sb + 2);
    i_start = Time.ns (Ints.unsafe_get ints (b + 4));
    i_finish = Time.ns (Ints.unsafe_get ints (b + 5));
  }

let finish t ~outcome ~at =
  if not t.sp_sealed then begin
    t.sp_sealed <- true;
    t.sp_finish <- at;
    retain t.sp_home t ~outcome ~at
  end

let duration t =
  if t.sp_sealed then Time.diff t.sp_finish t.sp_start
  else invalid_arg "Span.duration: span not finished"

(* Oldest first, so the records lie in memory in the order readers
   walk them. *)
let finished col =
  let acc = ref [] and slot = ref col.first in
  for _ = 1 to col.len do
    acc := info_at col !slot :: !acc;
    slot := (if !slot + 1 = col.size then 0 else !slot + 1)
  done;
  List.rev !acc

let last_finished col =
  if col.len = 0 then None
  else Some (info_at col ((col.first + col.len - 1) mod col.size))

let children infos id =
  List.filter (fun i -> i.i_parent = Some id) infos
