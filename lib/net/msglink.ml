(* A message of size S travels as ceil(S / max_frame) fragments; only
   the last fragment carries the message value, the earlier ones model
   the wire time of their chunk.  The receiver counts fragments per
   (src, msg_id) and delivers on a complete final fragment.  Message ids
   are never reused on a link and addresses never on a LAN, so a
   one-fragment message has no count to consult and is delivered
   directly. *)
type 'm packet = {
  pk_msg_id : int;
  pk_total : int;
  pk_content : 'm option;  (* Some on the final fragment *)
}

type 'm lan = 'm packet Lan.t

let create_lan ?params eng = Lan.create ?params eng

type key = { k_src : int; k_msg : int }

type 'm t = {
  station : 'm packet Lan.station;
  the_lan : 'm lan;
  size : 'm -> int;
  mutable up : bool;
  mutable handler : (src:int -> 'm -> unit) option;
  partial : (key, int) Hashtbl.t;
  msg_ids : Eden_util.Idgen.t;
}

let max_chunk lan = (Lan.params lan).Params.max_frame_bytes

let deliver tp frame =
  let p = frame.Lan.payload in
  if not tp.up then ()
  else if p.pk_total = 1 then begin
    match p.pk_content with
    | Some msg -> (
      match tp.handler with Some f -> f ~src:frame.Lan.src msg | None -> ())
    | None -> assert false (* the only fragment is the final one *)
  end
  else begin
    let key = { k_src = frame.Lan.src; k_msg = p.pk_msg_id } in
    let seen = Option.value ~default:0 (Hashtbl.find_opt tp.partial key) in
    match p.pk_content with
    | None -> Hashtbl.replace tp.partial key (seen + 1)
    | Some msg -> (
      Hashtbl.remove tp.partial key;
      (* A message missing fragments can never complete: drop it. *)
      if seen = p.pk_total - 1 then
        match tp.handler with
        | Some f -> f ~src:frame.Lan.src msg
        | None -> ())
  end

let attach lan ~name ~size =
  let station = Lan.attach lan ~name in
  let tp =
    {
      station;
      the_lan = lan;
      size;
      up = true;
      handler = None;
      partial = Hashtbl.create 16;
      msg_ids = Eden_util.Idgen.create ();
    }
  in
  Lan.on_receive station (fun frame -> deliver tp frame);
  tp

let address tp = Lan.address tp.station
let on_message tp f = tp.handler <- Some f
let set_up tp up = tp.up <- up
let is_up tp = tp.up

let transmit tp ~dest msg =
  if tp.up then begin
    let size = tp.size msg in
    let chunk = max_chunk tp.the_lan in
    let total = Stdlib.max 1 ((size + chunk - 1) / chunk) in
    let msg_id = Eden_util.Idgen.next tp.msg_ids in
    for i = 0 to total - 1 do
      let is_last = i = total - 1 in
      let bytes = if is_last then size - ((total - 1) * chunk) else chunk in
      let payload =
        {
          pk_msg_id = msg_id;
          pk_total = total;
          pk_content = (if is_last then Some msg else None);
        }
      in
      Lan.send tp.station ~dest ~bytes payload
    done
  end

let send tp ~dst msg =
  if dst = address tp then invalid_arg "Msglink.send: destination is self";
  transmit tp ~dest:(Lan.Unicast dst) msg

let broadcast tp msg = transmit tp ~dest:Lan.Broadcast msg
let reassembly_pending tp = Hashtbl.length tp.partial
