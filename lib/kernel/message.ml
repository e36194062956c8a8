type request_id = { origin : int; seq : int }

type residence = Res_active | Res_passive | Res_replica

type t =
  | Inv_request of {
      inv_id : request_id;
      target : Name.t;
      op : string;
      args : Value.t list;
      presented : Rights.t;
      reply_to : int;
      hops : int;
      may_activate : bool;
      span : int option;
    }
  | Inv_reply of {
      inv_id : request_id;
      result : Api.invoke_result;
      frozen_hint : bool;
    }
  | Inv_nack of { inv_id : request_id; target : Name.t }
  | Hint_update of { target : Name.t; at_node : int }
  | Locate_request of { req_id : request_id; target : Name.t; reply_to : int }
  | Locate_reply of {
      req_id : request_id;
      target : Name.t;
      at_node : int;
      residence : residence;
      version : int;
    }
  | Create_request of {
      req_id : request_id;
      type_name : string;
      init : Value.t;
      reply_to : int;
    }
  | Create_reply of {
      req_id : request_id;
      result : (Capability.t, Error.t) result;
    }
  | Move_transfer of {
      target : Name.t;
      type_name : string;
      repr : Value.t;
      frozen : bool;
      reliability : Reliability.t;
      from_node : int;
      transfer_id : request_id;
    }
  | Move_ack of { transfer_id : request_id; accepted : bool }
  | Ckpt_write of {
      req_id : request_id;
      target : Name.t;
      type_name : string;
      repr : Value.t;
      version : int;
      reliability : Reliability.t;
      frozen : bool;
      reply_to : int;
    }
  | Ckpt_delta of {
      req_id : request_id;
      target : Name.t;
      type_name : string;
      delta : Delta.t;
      base_version : int;
      version : int;
      reliability : Reliability.t;
      frozen : bool;
      reply_to : int;
    }
  | Ckpt_ack of { req_id : request_id; ok : bool }
  | Ckpt_delete of { target : Name.t }
  | Ckpt_mark of { target : Name.t; passive : bool; version : int }
  | Replica_install of {
      target : Name.t;
      type_name : string;
      repr : Value.t;
      transfer_id : request_id;
      from_node : int;
    }
  | Replica_ack of { transfer_id : request_id; accepted : bool }
  | Destroy_notice of { target : Name.t }
  | Cache_fetch of { req_id : request_id; target : Name.t; reply_to : int }
  | Cache_data of {
      req_id : request_id;
      target : Name.t;
      payload : (string * Value.t) option;
    }
  | Cache_invalidate of { target : Name.t }
  | Cancel of { inv_id : request_id; target : Name.t }
  | Dir_put of {
      req_id : request_id;
      target : Name.t;
      home : int;
      replicas : int list;
      lease : int;
    }
  | Dir_get of { req_id : request_id; target : Name.t; reply_to : int }
  | Dir_nack of { req_id : request_id; target : Name.t; home : int }
  | Epoch_announce of { epoch : int; members : int list }

let header_bytes = 32
let name_bytes = 12

let result_bytes = function
  | Ok vs -> Value.list_size_bytes vs
  | Error _ -> 8

let size_bytes m =
  header_bytes
  +
  match m with
  | Inv_request { op; args; _ } ->
    name_bytes + String.length op + Value.list_size_bytes args + 8
  | Inv_reply { result; _ } -> result_bytes result
  | Inv_nack _ -> name_bytes
  | Hint_update _ -> name_bytes + 4
  | Locate_request _ -> name_bytes + 4
  | Locate_reply _ -> name_bytes + 8
  | Create_request { type_name; init; _ } ->
    String.length type_name + Value.size_bytes init + 4
  | Create_reply _ -> 24
  | Move_transfer { type_name; repr; _ } ->
    name_bytes + String.length type_name + Value.size_bytes repr + 16
  | Move_ack _ -> 8
  | Ckpt_write { type_name; repr; _ } ->
    (* The version stamp rides in the fixed allowance. *)
    name_bytes + String.length type_name + Value.size_bytes repr + 16
  | Ckpt_delta { type_name; delta; _ } ->
    name_bytes + String.length type_name + Delta.size_bytes delta + 24
  | Ckpt_ack _ -> 8
  | Ckpt_delete _ -> name_bytes
  | Ckpt_mark _ -> name_bytes + 1
  | Replica_install { type_name; repr; _ } ->
    name_bytes + String.length type_name + Value.size_bytes repr + 8
  | Replica_ack _ -> 8
  | Destroy_notice _ -> name_bytes
  | Cache_fetch _ -> name_bytes + 4
  | Cache_data { payload; _ } -> (
    name_bytes + 1
    + match payload with
      | None -> 0
      | Some (type_name, repr) ->
        String.length type_name + Value.size_bytes repr)
  | Cache_invalidate _ -> name_bytes
  | Cancel _ -> name_bytes
  | Dir_put { replicas; _ } -> name_bytes + 12 + (4 * List.length replicas)
  | Dir_get _ -> name_bytes + 4
  | Dir_nack _ -> name_bytes + 4
  | Epoch_announce { members; _ } -> 8 + (4 * List.length members)

(* ------------------------------------------------------------------ *)
(* Journal facts and the text rendered from them.

   A journal records a message as four facts — a code per
   constructor, the target name packed into one int, one small int
   argument and one string — and renders the text only when the
   journal is read.  [describe] is that rendering applied to the
   facts, so the text has one definition.  The string is a field the
   sender already shares (an op or type name); the argument is the
   one int the text shows, if any.  A message whose text does not fit
   the facts (a delta checkpoint's description, or a name too large to
   pack) is recorded under [code_text] with its whole text as the
   string. *)

let code_text = 0
let name_serial_bits = 40
let name_birth_limit = 1 lsl (Sys.int_size - 1 - name_serial_bits)

let name_packs n =
  Name.birth_node n < name_birth_limit
  && Name.serial n lsr name_serial_bits = 0

let pack_name n = (Name.birth_node n lsl name_serial_bits) lor Name.serial n

let unpack_name p =
  Name.make ~birth_node:(p lsr name_serial_bits)
    ~serial:(p land ((1 lsl name_serial_bits) - 1))

let constructor_code = function
  | Inv_request _ -> 1
  | Inv_reply _ -> 2
  | Inv_nack _ -> 3
  | Hint_update _ -> 4
  | Locate_request _ -> 5
  | Locate_reply _ -> 6
  | Create_request _ -> 7
  | Create_reply _ -> 8
  | Move_transfer _ -> 9
  | Move_ack _ -> 10
  | Ckpt_write _ -> 11
  | Ckpt_delta _ -> code_text
  | Ckpt_ack _ -> 12
  | Ckpt_delete _ -> 13
  | Ckpt_mark _ -> 14
  | Replica_install _ -> 15
  | Replica_ack _ -> 16
  | Destroy_notice _ -> 17
  | Cache_fetch _ -> 18
  | Cache_data _ -> 19
  | Cache_invalidate _ -> 20
  | Cancel _ -> 21
  | Dir_put _ -> 22
  | Dir_get _ -> 23
  | Dir_nack _ -> 24
  | Epoch_announce _ -> 25

(* The message's target name, or [no_target] (compared physically)
   when it has none: no option, so recording allocates nothing. *)
let no_target = Name.make ~birth_node:0 ~serial:0

let target = function
  | Inv_request { target; _ }
  | Inv_nack { target; _ }
  | Hint_update { target; _ }
  | Locate_request { target; _ }
  | Locate_reply { target; _ }
  | Move_transfer { target; _ }
  | Ckpt_write { target; _ }
  | Ckpt_delta { target; _ }
  | Ckpt_delete { target }
  | Ckpt_mark { target; _ }
  | Replica_install { target; _ }
  | Destroy_notice { target }
  | Cache_fetch { target; _ }
  | Cache_data { target; _ }
  | Cache_invalidate { target }
  | Cancel { target; _ }
  | Dir_put { target; _ }
  | Dir_get { target; _ }
  | Dir_nack { target; _ } ->
    target
  | Inv_reply _ | Create_request _ | Create_reply _ | Move_ack _ | Ckpt_ack _
  | Replica_ack _ | Epoch_announce _ ->
    no_target

(* Whether the facts carry the message: false for a delta checkpoint,
   whose description is free text, and for a name too large to
   pack. *)
let fits m =
  match m with
  | Ckpt_delta _ -> false
  | _ ->
    let t = target m in
    t == no_target || name_packs t

let journal_code m = if fits m then constructor_code m else code_text

let journal_name m =
  let t = target m in
  if t != no_target && fits m then pack_name t else 0

(* [inv_id.seq] is deliberately not a fact: traces correlate request
   and reply through event parent ids, and a per-invocation number
   would make every reply's text distinct.  The same goes for a
   cancellation's sequence number and a directory lease stamp. *)
let journal_arg = function
  | Inv_reply { inv_id; _ } -> inv_id.origin
  | Hint_update { at_node; _ } | Locate_reply { at_node; _ } -> at_node
  | Ckpt_write { version; _ } -> version
  | Ckpt_mark { passive; version; _ } -> (version * 2) + Bool.to_int passive
  | Cache_data { payload; _ } -> Bool.to_int (Option.is_some payload)
  | Dir_put { home; _ } -> home
  | Epoch_announce { epoch; _ } -> epoch
  | _ -> 0

let op_str = function
  | Inv_request { op; _ } -> op
  | Create_request { type_name; _ } -> type_name
  | _ -> ""

(* Reply texts name only the origin node, so the common ones are
   rendered once. *)
let inv_reply_names = Array.init 64 (fun i -> "inv_reply n" ^ string_of_int i)

(* The text of a message with code [code]; [name ()] prints its
   target, for the texts that show one. *)
let text ~code ~name ~arg ~str =
  match code with
  | 1 -> String.concat "" [ "inv_request "; name (); "."; str ]
  | 2 ->
    if arg >= 0 && arg < Array.length inv_reply_names then
      inv_reply_names.(arg)
    else "inv_reply n" ^ string_of_int arg
  | 3 -> "inv_nack " ^ name ()
  | 4 -> Printf.sprintf "hint %s@%d" (name ()) arg
  | 5 -> "locate? " ^ name ()
  | 6 -> Printf.sprintf "locate! %s@%d" (name ()) arg
  | 7 -> "create " ^ str
  | 8 -> "create_reply"
  | 9 -> "move " ^ name ()
  | 10 -> "move_ack"
  | 11 -> Printf.sprintf "ckpt_write %s v%d" (name ()) arg
  | 12 -> "ckpt_ack"
  | 13 -> "ckpt_delete " ^ name ()
  | 14 ->
    Printf.sprintf "ckpt_mark %s passive=%b v%d" (name ()) (arg land 1 = 1)
      (arg asr 1)
  | 15 -> "replica " ^ name ()
  | 16 -> "replica_ack"
  | 17 -> "destroy " ^ name ()
  | 18 -> "cache? " ^ name ()
  | 19 ->
    Printf.sprintf "cache! %s %s" (name ()) (if arg = 1 then "hit" else "miss")
  | 20 -> "cache_inval " ^ name ()
  | 21 -> "cancel " ^ name ()
  | 22 -> Printf.sprintf "dir_put %s@%d" (name ()) arg
  | 23 -> "dir? " ^ name ()
  | 24 -> "dir_nack " ^ name ()
  | 25 -> Printf.sprintf "epoch e%d" arg
  | c -> invalid_arg (Printf.sprintf "Message.render: unknown code %d" c)

let journal_str m =
  if fits m then op_str m
  else
    match m with
    | Ckpt_delta { target; base_version; version; delta; _ } ->
      Printf.sprintf "ckpt_delta %s v%d->v%d (%s)" (Name.to_string target)
        base_version version (Delta.describe delta)
    | _ ->
      text ~code:(constructor_code m)
        ~name:(fun () -> Name.to_string (target m))
        ~arg:(journal_arg m) ~str:(op_str m)

let render ~code ~name ~arg ~str =
  if code = code_text then str
  else
    text ~code ~name:(fun () -> Name.to_string (unpack_name name)) ~arg ~str

let describe m =
  render ~code:(journal_code m) ~name:(journal_name m) ~arg:(journal_arg m)
    ~str:(journal_str m)

(* ------------------------------------------------------------------ *)
(* The simulated transport hands whole OCaml values between kernels, so
   in-sim frames carry their trace context in an envelope; the wire is
   modelled by [size_bytes] alone. *)

type traced = { tr_ctx : Eden_obs.Tracectx.t option; tr_msg : t }

let traced ?ctx m = { tr_ctx = ctx; tr_msg = m }

(* What a trace context costs on the wire; charged to the LAN timing
   model so traced and untraced frames are not timed identically. *)
let trace_ctx_bytes = 16

let traced_size { tr_ctx; tr_msg } =
  size_bytes tr_msg
  + (match tr_ctx with Some _ -> trace_ctx_bytes | None -> 0)
