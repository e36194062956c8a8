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
      span : Eden_obs.Span.t option;
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
(* Wire codec.

   A simple self-delimiting text format: integers are decimal followed
   by ';', strings are length-prefixed, variants carry a small tag.
   [span] is simulator-side metadata, not wire data, so [encode] omits
   it and [decode] always yields [span = None]. *)

exception Decode of string

type reader = { buf : string; mutable pos : int }

let r_fail r msg = raise (Decode (Printf.sprintf "%s at byte %d" msg r.pos))

let w_int b n =
  Buffer.add_string b (string_of_int n);
  Buffer.add_char b ';'

let r_int r =
  let len = String.length r.buf in
  let rec scan i =
    if i >= len then r_fail r "unterminated integer"
    else if r.buf.[i] = ';' then i
    else scan (i + 1)
  in
  let stop = scan r.pos in
  let s = String.sub r.buf r.pos (stop - r.pos) in
  r.pos <- stop + 1;
  match int_of_string_opt s with
  | Some n -> n
  | None -> r_fail r (Printf.sprintf "bad integer %S" s)

let w_bool b v = w_int b (if v then 1 else 0)

let r_bool r =
  match r_int r with
  | 0 -> false
  | 1 -> true
  | n -> r_fail r (Printf.sprintf "bad boolean %d" n)

let w_str b s =
  w_int b (String.length s);
  Buffer.add_string b s

let r_str r =
  let n = r_int r in
  if n < 0 || r.pos + n > String.length r.buf then r_fail r "bad string length"
  else begin
    let s = String.sub r.buf r.pos n in
    r.pos <- r.pos + n;
    s
  end

let w_name b n =
  w_int b (Name.birth_node n);
  w_int b (Name.serial n)

let r_name r =
  let birth_node = r_int r in
  let serial = r_int r in
  match Name.make ~birth_node ~serial with
  | n -> n
  | exception Invalid_argument _ -> r_fail r "bad name"

let w_rights b s = w_int b (Rights.to_bits s)

let r_rights r =
  match Rights.of_bits (r_int r) with
  | Some s -> s
  | None -> r_fail r "bad rights bits"

let w_req b { origin; seq } =
  w_int b origin;
  w_int b seq

let r_req r =
  let origin = r_int r in
  let seq = r_int r in
  { origin; seq }

let rec w_value b = function
  | Value.Unit -> Buffer.add_char b 'u'
  | Value.Bool v ->
    Buffer.add_char b 'b';
    w_bool b v
  | Value.Int i ->
    Buffer.add_char b 'i';
    w_int b i
  | Value.Str s ->
    Buffer.add_char b 's';
    w_str b s
  | Value.Cap c ->
    Buffer.add_char b 'c';
    w_name b (Capability.name c);
    w_rights b (Capability.rights c)
  | Value.List vs ->
    Buffer.add_char b 'l';
    w_int b (List.length vs);
    List.iter (w_value b) vs
  | Value.Pair (x, y) ->
    Buffer.add_char b 'p';
    w_value b x;
    w_value b y
  | Value.Blob n ->
    Buffer.add_char b 'o';
    w_int b n

let r_char r =
  if r.pos >= String.length r.buf then r_fail r "unexpected end of input"
  else begin
    let c = r.buf.[r.pos] in
    r.pos <- r.pos + 1;
    c
  end

(* Recursion in the reader is bounded so that a hostile or corrupt
   input cannot blow the stack: past [max_value_depth] the decoder
   fails with [Decode] like any other malformed input, keeping
   {!decode} a total function. *)
let max_value_depth = 256

let rec r_value_at depth r =
  if depth > max_value_depth then r_fail r "value nesting too deep"
  else
    match r_char r with
    | 'u' -> Value.Unit
    | 'b' -> Value.Bool (r_bool r)
    | 'i' -> Value.Int (r_int r)
    | 's' -> Value.Str (r_str r)
    | 'c' ->
      let name = r_name r in
      let rights = r_rights r in
      Value.Cap (Capability.make name rights)
    | 'l' ->
      let n = r_int r in
      if n < 0 then r_fail r "negative list length"
      else Value.List (List.init n (fun _ -> r_value_at (depth + 1) r))
    | 'p' ->
      let x = r_value_at (depth + 1) r in
      let y = r_value_at (depth + 1) r in
      Value.Pair (x, y)
    | 'o' ->
      let n = r_int r in
      if n < 0 then r_fail r "negative blob size" else Value.Blob n
    | c -> r_fail r (Printf.sprintf "bad value tag %C" c)

let r_value r = r_value_at 0 r

let w_values b vs =
  w_int b (List.length vs);
  List.iter (w_value b) vs

let r_values r =
  let n = r_int r in
  if n < 0 then r_fail r "negative value count"
  else List.init n (fun _ -> r_value r)

let w_error b = function
  | Error.No_such_object -> w_int b 0
  | Error.No_such_operation s ->
    w_int b 1;
    w_str b s
  | Error.Rights_violation s ->
    w_int b 2;
    w_str b s
  | Error.Timeout -> w_int b 3
  | Error.Object_crashed -> w_int b 4
  | Error.Node_down -> w_int b 5
  | Error.Out_of_memory -> w_int b 6
  | Error.Frozen_immutable -> w_int b 7
  | Error.Bad_arguments s ->
    w_int b 8;
    w_str b s
  | Error.User_error s ->
    w_int b 9;
    w_str b s
  | Error.Move_refused s ->
    w_int b 10;
    w_str b s
  | Error.Disk_failed -> w_int b 11

let r_error r =
  match r_int r with
  | 0 -> Error.No_such_object
  | 1 -> Error.No_such_operation (r_str r)
  | 2 -> Error.Rights_violation (r_str r)
  | 3 -> Error.Timeout
  | 4 -> Error.Object_crashed
  | 5 -> Error.Node_down
  | 6 -> Error.Out_of_memory
  | 7 -> Error.Frozen_immutable
  | 8 -> Error.Bad_arguments (r_str r)
  | 9 -> Error.User_error (r_str r)
  | 10 -> Error.Move_refused (r_str r)
  | 11 -> Error.Disk_failed
  | n -> r_fail r (Printf.sprintf "bad error tag %d" n)

let w_result b = function
  | Ok vs ->
    w_int b 0;
    w_values b vs
  | Error e ->
    w_int b 1;
    w_error b e

let r_result r =
  match r_int r with
  | 0 -> Ok (r_values r)
  | 1 -> Error (r_error r)
  | n -> r_fail r (Printf.sprintf "bad result tag %d" n)

let w_reliability b = function
  | Reliability.Local -> w_int b 0
  | Reliability.Remote n ->
    w_int b 1;
    w_int b n
  | Reliability.Mirrored ns ->
    w_int b 2;
    w_int b (List.length ns);
    List.iter (w_int b) ns

let r_reliability r =
  match r_int r with
  | 0 -> Reliability.Local
  | 1 -> Reliability.Remote (r_int r)
  | 2 ->
    let n = r_int r in
    if n < 0 then r_fail r "negative mirror count"
    else Reliability.Mirrored (List.init n (fun _ -> r_int r))
  | n -> r_fail r (Printf.sprintf "bad reliability tag %d" n)

let w_delta b = function
  | Delta.Unchanged -> w_int b 0
  | Delta.Edits { len; edits } ->
    w_int b 1;
    w_int b len;
    w_int b (List.length edits);
    List.iter
      (fun (i, v) ->
        w_int b i;
        w_value b v)
      edits
  | Delta.Whole v ->
    w_int b 2;
    w_value b v

let r_delta r =
  match r_int r with
  | 0 -> Delta.Unchanged
  | 1 ->
    let len = r_int r in
    if len < 0 then r_fail r "negative delta length"
    else begin
      let n = r_int r in
      if n < 0 || n > len then r_fail r "bad delta edit count"
      else
        let edits =
          List.init n (fun _ ->
              let i = r_int r in
              let v = r_value r in
              (i, v))
        in
        Delta.Edits { len; edits }
    end
  | 2 -> Delta.Whole (r_value r)
  | n -> r_fail r (Printf.sprintf "bad delta tag %d" n)

let w_residence b = function
  | Res_active -> w_int b 0
  | Res_passive -> w_int b 1
  | Res_replica -> w_int b 2

let r_residence r =
  match r_int r with
  | 0 -> Res_active
  | 1 -> Res_passive
  | 2 -> Res_replica
  | n -> r_fail r (Printf.sprintf "bad residence tag %d" n)

(* A trace context, when present, precedes the message tag as a 'T'
   marker plus two integers.  A tag never starts with 'T', so readers
   that predate the envelope still decode untraced frames and new
   readers accept both forms. *)
let encode ?ctx m =
  let b = Buffer.create 64 in
  (match ctx with
  | Some c ->
    Buffer.add_char b 'T';
    w_int b (Eden_obs.Tracectx.trace c);
    w_int b (Eden_obs.Tracectx.parent c)
  | None -> ());
  (match m with
  | Inv_request
      { inv_id; target; op; args; presented; reply_to; hops; may_activate;
        span = _ } ->
    w_int b 0;
    w_req b inv_id;
    w_name b target;
    w_str b op;
    w_values b args;
    w_rights b presented;
    w_int b reply_to;
    w_int b hops;
    w_bool b may_activate
  | Inv_reply { inv_id; result; frozen_hint } ->
    w_int b 1;
    w_req b inv_id;
    w_result b result;
    w_bool b frozen_hint
  | Inv_nack { inv_id; target } ->
    w_int b 2;
    w_req b inv_id;
    w_name b target
  | Hint_update { target; at_node } ->
    w_int b 3;
    w_name b target;
    w_int b at_node
  | Locate_request { req_id; target; reply_to } ->
    w_int b 4;
    w_req b req_id;
    w_name b target;
    w_int b reply_to
  | Locate_reply { req_id; target; at_node; residence; version } ->
    w_int b 5;
    w_req b req_id;
    w_name b target;
    w_int b at_node;
    w_residence b residence;
    w_int b version
  | Create_request { req_id; type_name; init; reply_to } ->
    w_int b 6;
    w_req b req_id;
    w_str b type_name;
    w_value b init;
    w_int b reply_to
  | Create_reply { req_id; result } ->
    w_int b 7;
    w_req b req_id;
    (match result with
    | Ok cap ->
      w_int b 0;
      w_name b (Capability.name cap);
      w_rights b (Capability.rights cap)
    | Error e ->
      w_int b 1;
      w_error b e)
  | Move_transfer
      { target; type_name; repr; frozen; reliability; from_node; transfer_id }
    ->
    w_int b 8;
    w_name b target;
    w_str b type_name;
    w_value b repr;
    w_bool b frozen;
    w_reliability b reliability;
    w_int b from_node;
    w_req b transfer_id
  | Move_ack { transfer_id; accepted } ->
    w_int b 9;
    w_req b transfer_id;
    w_bool b accepted
  | Ckpt_write
      { req_id; target; type_name; repr; version; reliability; frozen;
        reply_to } ->
    w_int b 10;
    w_req b req_id;
    w_name b target;
    w_str b type_name;
    w_value b repr;
    w_int b version;
    w_reliability b reliability;
    w_bool b frozen;
    w_int b reply_to
  | Ckpt_ack { req_id; ok } ->
    w_int b 11;
    w_req b req_id;
    w_bool b ok
  | Ckpt_delete { target } ->
    w_int b 12;
    w_name b target
  | Ckpt_mark { target; passive; version } ->
    w_int b 13;
    w_name b target;
    w_bool b passive;
    w_int b version
  | Replica_install { target; type_name; repr; transfer_id; from_node } ->
    w_int b 14;
    w_name b target;
    w_str b type_name;
    w_value b repr;
    w_req b transfer_id;
    w_int b from_node
  | Replica_ack { transfer_id; accepted } ->
    w_int b 15;
    w_req b transfer_id;
    w_bool b accepted
  | Destroy_notice { target } ->
    w_int b 16;
    w_name b target
  | Cache_fetch { req_id; target; reply_to } ->
    w_int b 17;
    w_req b req_id;
    w_name b target;
    w_int b reply_to
  | Cache_data { req_id; target; payload } ->
    w_int b 18;
    w_req b req_id;
    w_name b target;
    (match payload with
    | None -> w_int b 0
    | Some (type_name, repr) ->
      w_int b 1;
      w_str b type_name;
      w_value b repr)
  | Cache_invalidate { target } ->
    w_int b 19;
    w_name b target
  | Ckpt_delta
      { req_id; target; type_name; delta; base_version; version; reliability;
        frozen; reply_to } ->
    w_int b 20;
    w_req b req_id;
    w_name b target;
    w_str b type_name;
    w_delta b delta;
    w_int b base_version;
    w_int b version;
    w_reliability b reliability;
    w_bool b frozen;
    w_int b reply_to
  | Cancel { inv_id; target } ->
    w_int b 21;
    w_req b inv_id;
    w_name b target
  | Dir_put { req_id; target; home; replicas; lease } ->
    w_int b 22;
    w_req b req_id;
    w_name b target;
    w_int b home;
    w_int b (List.length replicas);
    List.iter (w_int b) replicas;
    w_int b lease
  | Dir_get { req_id; target; reply_to } ->
    w_int b 23;
    w_req b req_id;
    w_name b target;
    w_int b reply_to
  | Dir_nack { req_id; target; home } ->
    w_int b 24;
    w_req b req_id;
    w_name b target;
    w_int b home
  | Epoch_announce { epoch; members } ->
    w_int b 25;
    w_int b epoch;
    w_int b (List.length members);
    List.iter (w_int b) members);
  Buffer.contents b

let r_message r =
  match r_int r with
  | 0 ->
    let inv_id = r_req r in
    let target = r_name r in
    let op = r_str r in
    let args = r_values r in
    let presented = r_rights r in
    let reply_to = r_int r in
    let hops = r_int r in
    let may_activate = r_bool r in
    Inv_request
      { inv_id; target; op; args; presented; reply_to; hops; may_activate;
        span = None }
  | 1 ->
    let inv_id = r_req r in
    let result = r_result r in
    let frozen_hint = r_bool r in
    Inv_reply { inv_id; result; frozen_hint }
  | 2 ->
    let inv_id = r_req r in
    let target = r_name r in
    Inv_nack { inv_id; target }
  | 3 ->
    let target = r_name r in
    let at_node = r_int r in
    Hint_update { target; at_node }
  | 4 ->
    let req_id = r_req r in
    let target = r_name r in
    let reply_to = r_int r in
    Locate_request { req_id; target; reply_to }
  | 5 ->
    let req_id = r_req r in
    let target = r_name r in
    let at_node = r_int r in
    let residence = r_residence r in
    let version = r_int r in
    Locate_reply { req_id; target; at_node; residence; version }
  | 6 ->
    let req_id = r_req r in
    let type_name = r_str r in
    let init = r_value r in
    let reply_to = r_int r in
    Create_request { req_id; type_name; init; reply_to }
  | 7 ->
    let req_id = r_req r in
    let result =
      match r_int r with
      | 0 ->
        let name = r_name r in
        let rights = r_rights r in
        Ok (Capability.make name rights)
      | 1 -> Error (r_error r)
      | n -> r_fail r (Printf.sprintf "bad create result tag %d" n)
    in
    Create_reply { req_id; result }
  | 8 ->
    let target = r_name r in
    let type_name = r_str r in
    let repr = r_value r in
    let frozen = r_bool r in
    let reliability = r_reliability r in
    let from_node = r_int r in
    let transfer_id = r_req r in
    Move_transfer
      { target; type_name; repr; frozen; reliability; from_node; transfer_id }
  | 9 ->
    let transfer_id = r_req r in
    let accepted = r_bool r in
    Move_ack { transfer_id; accepted }
  | 10 ->
    let req_id = r_req r in
    let target = r_name r in
    let type_name = r_str r in
    let repr = r_value r in
    let version = r_int r in
    let reliability = r_reliability r in
    let frozen = r_bool r in
    let reply_to = r_int r in
    Ckpt_write
      { req_id; target; type_name; repr; version; reliability; frozen;
        reply_to }
  | 11 ->
    let req_id = r_req r in
    let ok = r_bool r in
    Ckpt_ack { req_id; ok }
  | 12 -> Ckpt_delete { target = r_name r }
  | 13 ->
    let target = r_name r in
    let passive = r_bool r in
    let version = r_int r in
    Ckpt_mark { target; passive; version }
  | 14 ->
    let target = r_name r in
    let type_name = r_str r in
    let repr = r_value r in
    let transfer_id = r_req r in
    let from_node = r_int r in
    Replica_install { target; type_name; repr; transfer_id; from_node }
  | 15 ->
    let transfer_id = r_req r in
    let accepted = r_bool r in
    Replica_ack { transfer_id; accepted }
  | 16 -> Destroy_notice { target = r_name r }
  | 17 ->
    let req_id = r_req r in
    let target = r_name r in
    let reply_to = r_int r in
    Cache_fetch { req_id; target; reply_to }
  | 18 ->
    let req_id = r_req r in
    let target = r_name r in
    let payload =
      match r_int r with
      | 0 -> None
      | 1 ->
        let type_name = r_str r in
        let repr = r_value r in
        Some (type_name, repr)
      | n -> r_fail r (Printf.sprintf "bad payload tag %d" n)
    in
    Cache_data { req_id; target; payload }
  | 19 -> Cache_invalidate { target = r_name r }
  | 20 ->
    let req_id = r_req r in
    let target = r_name r in
    let type_name = r_str r in
    let delta = r_delta r in
    let base_version = r_int r in
    let version = r_int r in
    let reliability = r_reliability r in
    let frozen = r_bool r in
    let reply_to = r_int r in
    Ckpt_delta
      { req_id; target; type_name; delta; base_version; version; reliability;
        frozen; reply_to }
  | 21 ->
    let inv_id = r_req r in
    let target = r_name r in
    Cancel { inv_id; target }
  | 22 ->
    let req_id = r_req r in
    let target = r_name r in
    let home = r_int r in
    let n = r_int r in
    if n < 0 || n > 4096 then r_fail r "bad replica count"
    else
      let replicas = List.init n (fun _ -> r_int r) in
      let lease = r_int r in
      Dir_put { req_id; target; home; replicas; lease }
  | 23 ->
    let req_id = r_req r in
    let target = r_name r in
    let reply_to = r_int r in
    Dir_get { req_id; target; reply_to }
  | 24 ->
    let req_id = r_req r in
    let target = r_name r in
    let home = r_int r in
    Dir_nack { req_id; target; home }
  | 25 ->
    let epoch = r_int r in
    let n = r_int r in
    if n < 0 || n > 4096 then r_fail r "bad member count"
    else
      let members = List.init n (fun _ -> r_int r) in
      Epoch_announce { epoch; members }
  | n -> r_fail r (Printf.sprintf "bad message tag %d" n)

let r_ctx r =
  if r.pos < String.length r.buf && r.buf.[r.pos] = 'T' then begin
    r.pos <- r.pos + 1;
    let trace = r_int r in
    let parent = r_int r in
    Some (Eden_obs.Tracectx.make ~trace ~parent)
  end
  else None

let decode_traced s =
  let r = { buf = s; pos = 0 } in
  match
    let ctx = r_ctx r in
    let m = r_message r in
    (ctx, m)
  with
  | pair -> if r.pos <> String.length s then Error "trailing bytes" else Ok pair
  | exception Decode msg -> Error msg

let decode s = Result.map snd (decode_traced s)

(* ------------------------------------------------------------------ *)
(* The simulated transport hands whole OCaml values between kernels, so
   in-sim frames carry their trace context in an envelope rather than
   re-encoding every message. *)

type traced = { tr_ctx : Eden_obs.Tracectx.t option; tr_msg : t }

let traced ?ctx m = { tr_ctx = ctx; tr_msg = m }

(* What the 'T' prefix costs on the wire; charged to the LAN timing
   model so traced and untraced frames are not timed identically. *)
let trace_ctx_bytes = 16

let traced_size { tr_ctx; tr_msg } =
  size_bytes tr_msg
  + (match tr_ctx with Some _ -> trace_ctx_bytes | None -> 0)
