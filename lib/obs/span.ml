open Eden_util

type phase = Locate | Transport | Queue | Dispatch | Execute | Reply

let phases = [ Locate; Transport; Queue; Dispatch; Execute; Reply ]

let phase_index = function
  | Locate -> 0
  | Transport -> 1
  | Queue -> 2
  | Dispatch -> 3
  | Execute -> 4
  | Reply -> 5

let n_phases = 6

let phase_name = function
  | Locate -> "locate"
  | Transport -> "transport"
  | Queue -> "queue"
  | Dispatch -> "dispatch"
  | Execute -> "execute"
  | Reply -> "reply"

let phase_of_name = function
  | "locate" -> Some Locate
  | "transport" -> Some Transport
  | "queue" -> Some Queue
  | "dispatch" -> Some Dispatch
  | "execute" -> Some Execute
  | "reply" -> Some Reply
  | _ -> None

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
  i_phases : Time.t array;
}

let info_duration i = Time.diff i.i_finish i.i_start

let info_phase i p = i.i_phases.(phase_index p)

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
      ( "phases_ns",
        Json.Obj
          (List.map
             (fun p -> (phase_name p, Json.Int (Time.to_ns (info_phase i p))))
             phases) );
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
  let* ph =
    match Json.member "phases_ns" j with
    | Some (Json.Obj fields) ->
      let ph = Array.make n_phases Time.zero in
      List.fold_left
        (fun acc (k, v) ->
          let* () = acc in
          match (phase_of_name k, Json.to_int v) with
          | Some p, Some ns -> Ok (ph.(phase_index p) <- Time.ns ns)
          | _ -> Error (Printf.sprintf "span: bad phase entry %S" k))
        (Ok ()) fields
      |> Result.map (fun () -> ph)
    | _ -> Error "span: missing phases_ns"
  in
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
      i_phases = ph;
    }

(* ---------------------------------------------------------------- *)
(* Live spans *)

type collector = {
  mutable next_id : int;
  keep : int;
  retained : info Fifo.t;
  mutable n_started : int;
  mutable n_finished : int;
  mutable n_late : int;
      (* enter/finish calls that arrived after the span was sealed *)
}

type t = {
  sp_id : int;
  sp_parent : int option;
  sp_op : string;
  sp_target : string;
  sp_origin : int;
  mutable sp_remote : bool;
  sp_start : Time.t;
  mutable sp_cur : phase;
  mutable sp_since : Time.t;
  sp_acc : Time.t array;  (* indexed by phase_index *)
  mutable sp_done : (string * Time.t) option;  (* outcome, finish time *)
  sp_home : collector;
}

let create ?(keep = 4096) () =
  if keep <= 0 then invalid_arg "Span.create: keep must be positive";
  {
    next_id = 0;
    keep;
    retained = Fifo.create ();
    n_started = 0;
    n_finished = 0;
    n_late = 0;
  }

(* One zero per phase.  A literal rather than [Array.make], so it is
   allocated inline with no call into the runtime. *)
let fresh_acc () = Time.[| zero; zero; zero; zero; zero; zero |]
let () = assert (Array.length (fresh_acc ()) = n_phases)

let start col ?parent ~op ~target ~origin ~at () =
  let id = col.next_id in
  col.next_id <- id + 1;
  col.n_started <- col.n_started + 1;
  {
    sp_id = id;
    sp_parent = Option.map (fun p -> p.sp_id) parent;
    sp_op = op;
    sp_target = target;
    sp_origin = origin;
    sp_remote = false;
    sp_start = at;
    sp_cur = Locate;
    sp_since = at;
    sp_acc = fresh_acc ();
    sp_done = None;
    sp_home = col;
  }

let id t = t.sp_id

(* Charge the open phase up to [at].  Virtual time never runs backwards
   within one invocation, but guard anyway: [Time.diff] raises on a
   negative difference. *)
let close_current t ~at =
  let elapsed = if Time.(at > t.sp_since) then Time.diff at t.sp_since else Time.zero in
  let i = phase_index t.sp_cur in
  t.sp_acc.(i) <- Time.add t.sp_acc.(i) elapsed;
  t.sp_since <- at

(* A phase change or finish on an already-sealed span is a late
   server-side step (e.g. the requester timed out first).  It cannot
   change the sealed record, but silently dropping it would hide the
   straggler entirely — count it instead. *)
let note_late t = t.sp_home.n_late <- t.sp_home.n_late + 1

let enter t phase ~at =
  match t.sp_done with
  | Some _ -> note_late t
  | None ->
    close_current t ~at;
    t.sp_cur <- phase

let note_remote t = t.sp_remote <- true

let to_info t ~outcome ~at =
  {
    i_id = t.sp_id;
    i_parent = t.sp_parent;
    i_op = t.sp_op;
    i_target = t.sp_target;
    i_origin = t.sp_origin;
    i_remote = t.sp_remote;
    i_outcome = outcome;
    i_start = t.sp_start;
    i_finish = at;
    (* Only [finish] builds an info, and a sealed span's accumulator
       never changes again, so the record can keep it. *)
    i_phases = t.sp_acc;
  }

let finish t ~outcome ~at =
  match t.sp_done with
  | Some _ -> note_late t
  | None ->
    close_current t ~at;
    t.sp_done <- Some (outcome, at);
    let col = t.sp_home in
    col.n_finished <- col.n_finished + 1;
    if Fifo.length col.retained >= col.keep then ignore (Fifo.pop col.retained);
    Fifo.push_exn col.retained (to_info t ~outcome ~at)

let duration t =
  match t.sp_done with
  | Some (_, at) -> Time.diff at t.sp_start
  | None -> invalid_arg "Span.duration: span not finished"

let phase_time t p = t.sp_acc.(phase_index p)

let started col = col.n_started
let finished_count col = col.n_finished
let late_events col = col.n_late
let finished col = Fifo.to_list col.retained

let last_finished col =
  match Fifo.to_list col.retained with
  | [] -> None
  | l -> Some (List.nth l (List.length l - 1))

let clear col = Fifo.clear col.retained

let children infos id =
  List.filter (fun i -> i.i_parent = Some id) infos
