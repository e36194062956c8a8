(* Property tests on the {!Prop} harness: 100 seeds per property, each
   seed generating one structured value — messages and their journal
   facts, deltas, the fault plan text format, the health
   plane's structures, the metrics registry, the event heap, the
   directory ring and the trace analyses.  Everything here is pure — no
   engine, no cluster. *)

open Eden_kernel
module Splitmix = Eden_util.Splitmix
module Pqueue = Eden_util.Pqueue
module Time = Eden_util.Time
module Plan = Eden_fault.Plan
module Json = Eden_obs.Json

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_name rng =
  Name.make ~birth_node:(Splitmix.int rng 64) ~serial:(Splitmix.int rng 100_000)

(* A uniform subset of the rights: one coin per right, drawn as the
   bits of one integer. *)
let gen_rights rng =
  let all = Rights.to_list Rights.all in
  let bits = Splitmix.int rng (1 lsl List.length all) in
  Rights.of_list (List.filteri (fun i _ -> bits land (1 lsl i) <> 0) all)

let gen_cap rng = Capability.make (gen_name rng) (gen_rights rng)
let gen_string = Prop.Gen.string ~max_len:10

let rec gen_value depth rng =
  match Splitmix.int rng (if depth <= 0 then 6 else 8) with
  | 0 -> Value.Unit
  | 1 -> Value.Bool (Splitmix.bool rng)
  | 2 -> Value.Int (Splitmix.int_in rng (-100_000) 100_000)
  | 3 -> Value.Str (gen_string rng)
  | 4 -> Value.Cap (gen_cap rng)
  | 5 -> Value.Blob (Splitmix.int rng 65_536)
  | 6 ->
    Value.List
      (List.init (Splitmix.int rng 4) (fun _ -> gen_value (depth - 1) rng))
  | _ -> Value.Pair (gen_value (depth - 1) rng, gen_value (depth - 1) rng)

let gen_error rng =
  match Splitmix.int rng 12 with
  | 0 -> Error.No_such_object
  | 1 -> Error.No_such_operation (gen_string rng)
  | 2 -> Error.Rights_violation (gen_string rng)
  | 3 -> Error.Timeout
  | 4 -> Error.Object_crashed
  | 5 -> Error.Node_down
  | 6 -> Error.Out_of_memory
  | 7 -> Error.Frozen_immutable
  | 8 -> Error.Bad_arguments (gen_string rng)
  | 9 -> Error.User_error (gen_string rng)
  | 10 -> Error.Move_refused (gen_string rng)
  | _ -> Error.Disk_failed

let gen_req rng =
  { Message.origin = Splitmix.int rng 16; seq = Splitmix.int rng 10_000 }

let gen_result rng : Api.invoke_result =
  if Splitmix.bool rng then
    Ok (List.init (Splitmix.int rng 3) (fun _ -> gen_value 2 rng))
  else Error (gen_error rng)

let gen_reliability rng =
  match Splitmix.int rng 3 with
  | 0 -> Reliability.Local
  | 1 -> Reliability.Remote (Splitmix.int rng 8)
  | _ ->
    Reliability.Mirrored
      (List.init (1 + Splitmix.int rng 3) (fun _ -> Splitmix.int rng 8))

let gen_residence rng =
  match Splitmix.int rng 3 with
  | 0 -> Message.Res_active
  | 1 -> Message.Res_passive
  | _ -> Message.Res_replica

let gen_node rng = Splitmix.int rng 16
let gen_version rng = Splitmix.int rng 1_000

let gen_delta rng =
  match Splitmix.int rng 3 with
  | 0 -> Delta.Unchanged
  | 1 ->
    let len = Splitmix.int rng 6 in
    let edits =
      List.init (Splitmix.int rng (len + 1)) (fun _ ->
          (Splitmix.int rng (max len 1), gen_value 2 rng))
    in
    Delta.Edits { len; edits }
  | _ -> Delta.Whole (gen_value 2 rng)

(* A message of constructor [k] (0 to 25), with its names drawn from
   [gen_name]. *)
let gen_message_of ?(gen_name = gen_name) k rng : Message.t =
  match k with
  | 0 ->
    Message.Inv_request
      {
        inv_id = gen_req rng;
        target = gen_name rng;
        op = gen_string rng;
        args = List.init (Splitmix.int rng 3) (fun _ -> gen_value 2 rng);
        presented = gen_rights rng;
        reply_to = gen_node rng;
        hops = Splitmix.int rng 4;
        may_activate = Splitmix.bool rng;
        span = None;
      }
  | 1 ->
    Message.Inv_reply
      {
        inv_id = gen_req rng;
        result = gen_result rng;
        frozen_hint = Splitmix.bool rng;
      }
  | 2 -> Message.Inv_nack { inv_id = gen_req rng; target = gen_name rng }
  | 3 -> Message.Hint_update { target = gen_name rng; at_node = gen_node rng }
  | 4 ->
    Message.Locate_request
      { req_id = gen_req rng; target = gen_name rng; reply_to = gen_node rng }
  | 5 ->
    Message.Locate_reply
      {
        req_id = gen_req rng;
        target = gen_name rng;
        at_node = gen_node rng;
        residence = gen_residence rng;
        version = gen_version rng;
      }
  | 6 ->
    Message.Create_request
      {
        req_id = gen_req rng;
        type_name = gen_string rng;
        init = gen_value 2 rng;
        reply_to = gen_node rng;
      }
  | 7 ->
    Message.Create_reply
      {
        req_id = gen_req rng;
        result =
          (if Splitmix.bool rng then Ok (gen_cap rng)
           else Error (gen_error rng));
      }
  | 8 ->
    Message.Move_transfer
      {
        target = gen_name rng;
        type_name = gen_string rng;
        repr = gen_value 2 rng;
        frozen = Splitmix.bool rng;
        reliability = gen_reliability rng;
        from_node = gen_node rng;
        transfer_id = gen_req rng;
      }
  | 9 ->
    Message.Move_ack
      { transfer_id = gen_req rng; accepted = Splitmix.bool rng }
  | 10 ->
    Message.Ckpt_write
      {
        req_id = gen_req rng;
        target = gen_name rng;
        type_name = gen_string rng;
        repr = gen_value 2 rng;
        version = gen_version rng;
        reliability = gen_reliability rng;
        frozen = Splitmix.bool rng;
        reply_to = gen_node rng;
      }
  | 11 -> Message.Ckpt_ack { req_id = gen_req rng; ok = Splitmix.bool rng }
  | 12 -> Message.Ckpt_delete { target = gen_name rng }
  | 13 ->
    Message.Ckpt_mark
      {
        target = gen_name rng;
        passive = Splitmix.bool rng;
        version = gen_version rng;
      }
  | 14 ->
    Message.Replica_install
      {
        target = gen_name rng;
        type_name = gen_string rng;
        repr = gen_value 2 rng;
        transfer_id = gen_req rng;
        from_node = gen_node rng;
      }
  | 15 ->
    Message.Replica_ack
      { transfer_id = gen_req rng; accepted = Splitmix.bool rng }
  | 16 -> Message.Destroy_notice { target = gen_name rng }
  | 17 ->
    Message.Cache_fetch
      { req_id = gen_req rng; target = gen_name rng; reply_to = gen_node rng }
  | 18 ->
    Message.Cache_data
      {
        req_id = gen_req rng;
        target = gen_name rng;
        payload =
          (if Splitmix.bool rng then Some (gen_string rng, gen_value 2 rng)
           else None);
      }
  | 19 -> Message.Cache_invalidate { target = gen_name rng }
  | 20 -> Message.Cancel { inv_id = gen_req rng; target = gen_name rng }
  | 22 ->
    Message.Dir_put
      {
        req_id = gen_req rng;
        target = gen_name rng;
        home = gen_node rng;
        replicas = List.init (Splitmix.int rng 4) (fun _ -> gen_node rng);
        lease = Splitmix.int rng 1_000_000_000;
      }
  | 23 ->
    Message.Dir_get
      { req_id = gen_req rng; target = gen_name rng; reply_to = gen_node rng }
  | 24 ->
    (* home = -1 is the shard-miss reply, a live wire shape. *)
    Message.Dir_nack
      {
        req_id = gen_req rng;
        target = gen_name rng;
        home = (if Splitmix.bool rng then gen_node rng else -1);
      }
  | 25 ->
    Message.Epoch_announce
      {
        epoch = Splitmix.int rng 1_000;
        members = List.init (Splitmix.int rng 6) (fun _ -> gen_node rng);
      }
  | _ ->
    Message.Ckpt_delta
      {
        req_id = gen_req rng;
        target = gen_name rng;
        type_name = gen_string rng;
        delta = gen_delta rng;
        base_version = gen_version rng;
        version = gen_version rng;
        reliability = gen_reliability rng;
        frozen = Splitmix.bool rng;
        reply_to = gen_node rng;
      }

(* Names past what a journal packs into one int: a birth node of 2^22
   or more, or a serial of 2^40 or more. *)
let gen_huge_name rng =
  let small = gen_name rng in
  if Splitmix.bool rng then
    Name.make ~birth_node:((1 lsl 22) + Name.birth_node small)
      ~serial:(Name.serial small)
  else
    Name.make ~birth_node:(Name.birth_node small)
      ~serial:((1 lsl 40) + Name.serial small)

(* ------------------------------------------------------------------ *)
(* Properties *)

(* A journal records a message's Send and Recv as facts and renders
   the text when read; the text must be [Message.describe]'s, byte for
   byte, on the first read and on the memoised ones after it.  Each
   case records one message of every constructor, with small or
   unpackable names. *)
let journal_renders_describe =
  Prop.case ~name:"Journal rebuilds Message.describe from message facts"
    ~base:0xA110_0013L
    ~gen:(fun rng ->
      let gen_name = if Splitmix.bool rng then gen_name else gen_huge_name in
      List.init 26 (fun k -> gen_message_of ~gen_name k rng))
    ~show:(fun ms -> String.concat " | " (List.map Message.describe ms))
    (fun ms ->
      let module J = Eden_obs.Journal in
      let sink = J.sink () in
      J.set_renderer sink Message.render;
      let j = J.create sink ~node:0 ~cap:64 in
      List.iteri
        (fun i m ->
          let code = Message.journal_code m and name = Message.journal_name m in
          let arg = Message.journal_arg m and str = Message.journal_str m in
          ignore
            (J.record_send j ~at:(Time.ns i) ~ctx:None ~dst:(Some 1) ~code ~name
               ~arg ~str);
          ignore
            (J.record_recv j ~at:(Time.ns i) ~ctx:None ~src:2 ~code ~name ~arg
               ~str))
        ms;
      let texts () =
        List.map
          (fun ev ->
            match ev.J.ev_kind with
            | J.Send { msg; dst = Some 1 } -> "send " ^ msg
            | J.Recv { msg; src = 2 } -> "recv " ^ msg
            | k -> "other " ^ J.describe_kind k)
          (J.events j)
      in
      let want =
        List.concat_map
          (fun m ->
            let d = Message.describe m in
            [ "send " ^ d; "recv " ^ d ])
          ms
      in
      let diff got =
        List.find_opt (fun (w, g) -> w <> g) (List.combine want got)
      in
      match (diff (texts ()), diff (texts ())) with
      | None, None -> Ok ()
      | Some (w, g), _ -> Error (Printf.sprintf "first read %S, want %S" g w)
      | None, Some (w, g) ->
        Error (Printf.sprintf "memoised read %S, want %S" g w))

(* [Message.size_bytes] is the simulator's one model of a message on
   the wire: the LAN times every frame by [traced_size], which adds 16
   bytes for a trace context to it.  One message of each constructor
   from a fixed seed, with its size pinned. *)
let pinned_sizes =
  [| 82; 40; 44; 48; 48; 52; 44; 56; 74;
     40; 71; 40; 44; 45; 58; 40; 44; 48;
     45; 44; 44; 76; 60; 48; 48; 56 |]

let test_size_bytes_pinned () =
  let rng = Splitmix.create 0x5123_B17EL in
  let ctx = Eden_obs.Tracectx.make ~trace:7 ~parent:3 in
  Array.iteri
    (fun k want ->
      let m = gen_message_of k rng in
      let size = Message.size_bytes m in
      let what = Printf.sprintf "%d %s" k (Message.describe m) in
      Alcotest.(check int) what want size;
      Alcotest.(check int) (what ^ ", no context") size
        (Message.traced_size (Message.traced m));
      Alcotest.(check int) (what ^ ", with context") (size + 16)
        (Message.traced_size (Message.traced ~ctx m)))
    pinned_sizes

(* Chunked representations (a top-level List) are the delta fast path;
   mix in arbitrary shapes so the [Whole] fallback is exercised too. *)
let gen_chunked rng =
  if Splitmix.int rng 4 = 0 then gen_value 3 rng
  else Value.List (List.init (Splitmix.int rng 8) (fun _ -> gen_value 2 rng))

let gen_delta_pair rng =
  let base = gen_chunked rng in
  let target =
    match Splitmix.int rng 4 with
    | 0 -> base
    | 1 -> gen_chunked rng
    | _ -> (
      (* Dirty a few chunks of the base — the realistic shape. *)
      match base with
      | Value.List chunks ->
        Value.List
          (List.map
             (fun c ->
               if Splitmix.int rng 4 = 0 then gen_value 2 rng else c)
             chunks)
      | v -> v)
  in
  (base, target)

let show_value_pair (b, t) =
  Format.asprintf "%a -> %a" Value.pp b Value.pp t

let delta_apply_roundtrip =
  Prop.case ~name:"Delta.apply (diff base target) base = Ok target"
    ~base:0xA110_0006L ~gen:gen_delta_pair ~show:show_value_pair
    (fun (base, target) ->
      let d = Delta.diff ~base ~target in
      match Delta.apply d ~base with
      | Ok v when Value.equal v target -> Ok ()
      | Ok v -> Error (Format.asprintf "applied to %a" Value.pp v)
      | Error e -> Error (Printf.sprintf "apply failed: %s" e))

let delta_never_larger =
  (* The wire motivation: [diff] guarantees its payload never exceeds
     shipping the whole representation (it degenerates to [Whole]
     when most chunks are dirty). *)
  Prop.case ~name:"Delta.size_bytes (diff base target) <= whole"
    ~base:0xA110_0007L ~gen:gen_delta_pair ~show:show_value_pair
    (fun (base, target) ->
      let d = Delta.diff ~base ~target in
      let ds = Delta.size_bytes d
      and fs = Delta.size_bytes (Delta.Whole target) in
      if ds <= fs then Ok ()
      else Error (Printf.sprintf "delta %dB vs full %dB" ds fs))

let gen_plan_params rng =
  let seed = Splitmix.next64 rng in
  let nodes = Splitmix.int_in rng 2 8 in
  let segments = Splitmix.int_in rng 1 3 in
  (seed, nodes, segments)

let plan_roundtrip =
  Prop.case ~name:"Plan.of_string (to_string p) = p" ~base:0xA110_0005L
    ~gen:gen_plan_params
    ~show:(fun (seed, nodes, segments) ->
      Printf.sprintf "seed=0x%Lx nodes=%d segments=%d" seed nodes segments)
    (fun (seed, nodes, segments) ->
      let p = Plan.random ~seed ~nodes ~segments ~horizon:(Time.s 30) in
      let text = Plan.to_string p in
      match Plan.of_string text with
      | Error e -> Error (Printf.sprintf "parse failed: %s" e)
      | Ok p' ->
        if String.equal text (Plan.to_string p') then Ok ()
        else Error "re-rendered text differs")

(* ------------------------------------------------------------------ *)
(* Health-plane structures: the space-saving error bounds. *)

(* A seeded Zipf-ish stream over more keys than the sketch holds. *)
let gen_topk_stream rng =
  let capacity = Splitmix.int_in rng 4 16 in
  let keys = capacity * 4 in
  let len = Splitmix.int_in rng 50 400 in
  let stream =
    List.init len (fun _ ->
        (* Skewed: low ranks dominate, like object invocation counts. *)
        let r = Splitmix.float rng 1.0 in
        let rank = int_of_float (float_of_int keys *. r *. r *. r) in
        Printf.sprintf "obj%d" (min rank (keys - 1)))
  in
  (capacity, stream)

let topk_error_bounds =
  Prop.case ~name:"Topk estimates never undercount and err <= n/capacity"
    ~base:0xB1A0_0002L ~gen:gen_topk_stream
    ~show:(fun (capacity, stream) ->
      Printf.sprintf "capacity=%d len=%d" capacity (List.length stream))
    (fun (capacity, stream) ->
      let t = Eden_obs.Topk.create ~capacity in
      let true_counts = Hashtbl.create 64 in
      List.iter
        (fun key ->
          Eden_obs.Topk.add t key;
          Hashtbl.replace true_counts key
            (1 + Option.value ~default:0 (Hashtbl.find_opt true_counts key)))
        stream;
      let n = List.length stream in
      if Eden_obs.Topk.total t <> n then Error "total miscounted"
      else
        let bad =
          List.find_opt
            (fun e ->
              let truth =
                Option.value ~default:0
                  (Hashtbl.find_opt true_counts e.Eden_obs.Topk.e_key)
              in
              e.Eden_obs.Topk.e_count < truth
              || e.Eden_obs.Topk.e_count - e.Eden_obs.Topk.e_err > truth
              || e.Eden_obs.Topk.e_err * capacity > n)
            (Eden_obs.Topk.entries t)
        in
        match bad with
        | None ->
          (* Any key heavier than n/capacity must be present. *)
          let missing_heavy =
            Hashtbl.fold
              (fun key c acc ->
                if
                  c * capacity > n
                  && not
                       (List.exists
                          (fun e -> e.Eden_obs.Topk.e_key = key)
                          (Eden_obs.Topk.entries t))
                then key :: acc
                else acc)
              true_counts []
          in
          if missing_heavy = [] then Ok ()
          else
            Error
              (Printf.sprintf "heavy hitter %s missing"
                 (List.hd missing_heavy))
        | Some e ->
          Error
            (Printf.sprintf "bounds violated for %s (count %d err %d)"
               e.Eden_obs.Topk.e_key e.Eden_obs.Topk.e_count
               e.Eden_obs.Topk.e_err))

(* ------------------------------------------------------------------ *)
(* Event heap: (key, insertion order) against a sorted-list model *)

(* Pushes and pops interleaved over a key space of four values, so most
   entries tie with others.  The model is the list of live entries kept
   sorted on (key, seq), where seq counts pushes; every pop — and the
   final drain — must return the model's head.  Shrinking drops one
   operation at a time. *)

type heap_op = Push of int | Pop

let show_heap_ops ops =
  String.concat " "
    (List.map (function Push k -> string_of_int k | Pop -> "pop") ops)

let gen_heap_ops rng =
  List.init
    (1 + Splitmix.int rng 200)
    (fun _ -> if Splitmix.int rng 3 = 0 then Pop else Push (Splitmix.int rng 4))

let shrink_heap_ops ops =
  List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) ops) ops

let heap_matches_model =
  Prop.case ~name:"Pqueue pops in (key, seq) order" ~base:0xA110_0010L
    ~gen:gen_heap_ops ~shrink:shrink_heap_ops ~show:show_heap_ops (fun ops ->
      let h = Pqueue.create ~dummy:(-1) () in
      let model = ref [] and seq = ref 0 in
      let err = ref None in
      let fail fmt =
        Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt
      in
      let expect_pop got =
        match (!model, got) with
        | [], None -> ()
        | (k, s) :: rest, Some (k', s') when k = k' && s = s' -> model := rest
        | (k, s) :: _, Some (k', s') ->
          fail "popped (%d, %d), model head (%d, %d)" k' s' k s
        | [], Some (k', s') -> fail "popped (%d, %d) from an empty model" k' s'
        | (k, s) :: _, None -> fail "heap empty, model head (%d, %d)" k s
      in
      List.iter
        (function
          | Push k ->
            (* The value is the push's seq, so a pop names its entry. *)
            ignore (Pqueue.push_seq h k !seq !seq);
            model :=
              List.merge
                (fun (k1, s1) (k2, s2) ->
                  let c = Int.compare k1 k2 in
                  if c <> 0 then c else Int.compare s1 s2)
                !model [ (k, !seq) ];
            incr seq
          | Pop -> expect_pop (Pqueue.pop h))
        ops;
      if Pqueue.length h <> List.length !model then
        fail "length %d, model %d" (Pqueue.length h) (List.length !model);
      while not (Pqueue.is_empty h) do
        expect_pop (Pqueue.pop h)
      done;
      expect_pop None;
      match !err with Some m -> Error m | None -> Ok ())

(* The engine's two event tiers: pushes split at random between two
   heaps numbered from one counter pop, when each pop takes the smaller
   top in (key, seq) order, exactly as one heap fed the same pushes.
   Keys come from a space of four so most entries tie across tiers. *)

type tier_op = Tpush of bool * int | Tpop

let show_tier_ops ops =
  String.concat " "
    (List.map
       (function
         | Tpush (t, k) -> Printf.sprintf "%c%d" (if t then 't' else 'm') k
         | Tpop -> "pop")
       ops)

let gen_tier_ops rng =
  List.init
    (1 + Splitmix.int rng 200)
    (fun _ ->
      if Splitmix.int rng 3 = 0 then Tpop
      else Tpush (Splitmix.bool rng, Splitmix.int rng 4))

let tiers_merge_as_one =
  Prop.case ~name:"two tiers pop as one Pqueue" ~base:0xA110_0011L
    ~gen:gen_tier_ops ~shrink:shrink_heap_ops ~show:show_tier_ops (fun ops ->
      let one = Pqueue.create ~dummy:(-1) () in
      let main = Pqueue.create ~dummy:(-1) ()
      and timers = Pqueue.create ~dummy:(-1) () in
      let seq = ref 0 in
      let pop_merged () =
        let from q =
          let k = Pqueue.min_key q in
          Some (k, Pqueue.pop_exn q)
        in
        match (Pqueue.is_empty main, Pqueue.is_empty timers) with
        | true, true -> None
        | false, true -> from main
        | true, false -> from timers
        | false, false ->
          let km = Pqueue.min_key main and kt = Pqueue.min_key timers in
          if km < kt || (km = kt && Pqueue.min_seq main < Pqueue.min_seq timers)
          then from main
          else from timers
      in
      let err = ref None in
      let compare_pop () =
        let want = Pqueue.pop one and got = pop_merged () in
        if want <> got && !err = None then
          err :=
            Some
              (Printf.sprintf "one heap popped %s, the tiers %s"
                 (match want with
                 | None -> "nothing"
                 | Some (k, s) -> Printf.sprintf "(%d, %d)" k s)
                 (match got with
                 | None -> "nothing"
                 | Some (k, s) -> Printf.sprintf "(%d, %d)" k s))
      in
      List.iter
        (function
          | Tpush (to_timers, k) ->
            (* The value is the push's seq, so a pop names its entry. *)
            ignore (Pqueue.push_seq one k !seq !seq);
            ignore
              (Pqueue.push_seq (if to_timers then timers else main) k !seq !seq);
            incr seq
          | Tpop -> compare_pop ())
        ops;
      while not (Pqueue.is_empty one) do
        compare_pop ()
      done;
      compare_pop ();
      match !err with Some m -> Error m | None -> Ok ())

(* Clearing an entry's slot (what the engine does to the timeout of a
   wait that ended early) drops its value but not its place: pushes,
   pops and clears interleaved against a model of the live entries,
   sorted on (key, seq), each flagged once cleared.  Every pop must
   return the model head's key, and its value, or the dummy if it was
   cleared; a clear must touch no other entry, though freed slots are
   reused.  [Cclear i] clears the [i mod live]th live entry in model
   order, so the clears stay meaningful as shrinking drops pops. *)

type clear_op = Cpush of int | Cpop | Cclear of int

let show_clear_ops ops =
  String.concat " "
    (List.map
       (function
         | Cpush k -> string_of_int k
         | Cpop -> "pop"
         | Cclear i -> Printf.sprintf "clear%d" i)
       ops)

let gen_clear_ops rng =
  List.init
    (1 + Splitmix.int rng 200)
    (fun _ ->
      match Splitmix.int rng 6 with
      | 0 | 1 -> Cpop
      | 2 -> Cclear (Splitmix.int rng 64)
      | _ -> Cpush (Splitmix.int rng 4))

let cleared_keep_their_place =
  Prop.case ~name:"cleared Pqueue entries keep their place" ~base:0xA110_0012L
    ~gen:gen_clear_ops ~shrink:shrink_heap_ops ~show:show_clear_ops (fun ops ->
      let h = Pqueue.create ~dummy:(-1) () in
      (* (key, seq, slot, cleared), sorted on (key, seq). *)
      let model = ref [] and seq = ref 0 in
      let err = ref None in
      let fail fmt =
        Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt
      in
      let pop () =
        match !model with
        | [] -> if not (Pqueue.is_empty h) then fail "heap not empty"
        | (k, s, _, cleared) :: rest ->
          model := rest;
          if Pqueue.is_empty h then fail "heap empty, model head (%d, %d)" k s
          else begin
            let k' = Pqueue.min_key h and s' = Pqueue.min_seq h in
            let v = Pqueue.pop_exn h in
            let want = if cleared then -1 else s in
            if (k', s', v) <> (k, s, want) then
              fail "popped (%d, %d) = %d, model head (%d, %d) = %d" k' s' v k
                s want
          end
      in
      List.iter
        (function
          | Cpush k ->
            (* The value is the push's seq, so a pop names its entry. *)
            let slot = Pqueue.push_seq h k !seq !seq in
            model :=
              List.merge
                (fun (k1, s1, _, _) (k2, s2, _, _) ->
                  let c = Int.compare k1 k2 in
                  if c <> 0 then c else Int.compare s1 s2)
                !model
                [ (k, !seq, slot, false) ];
            incr seq
          | Cpop -> pop ()
          | Cclear i -> (
            match !model with
            | [] -> ()
            | live ->
              let target = i mod List.length live in
              model :=
                List.mapi
                  (fun j ((k, s, slot, _) as e) ->
                    if j = target then begin
                      Pqueue.clear h slot;
                      (k, s, slot, true)
                    end
                    else e)
                  live))
        ops;
      if Pqueue.length h <> List.length !model then
        fail "length %d, model %d" (Pqueue.length h) (List.length !model);
      while !model <> [] do
        pop ()
      done;
      pop ();
      match !err with Some m -> Error m | None -> Ok ())

(* ------------------------------------------------------------------ *)
(* Directory ring: placement balance and minimal remapping *)

(* A random membership: 2..16 distinct node ids drawn from 0..63 —
   ring quality must not depend on ids being dense or starting at 0. *)
let gen_node_set rng =
  let n = 2 + Splitmix.int rng 15 in
  let seen = Hashtbl.create 16 in
  let rec draw acc k =
    if k = 0 then acc
    else
      let id = Splitmix.int rng 64 in
      if Hashtbl.mem seen id then draw acc k
      else begin
        Hashtbl.add seen id ();
        draw (id :: acc) (k - 1)
      end
  in
  draw [] n

let show_nodes nodes = String.concat "," (List.map string_of_int nodes)

(* Distinct names, enough per node that placement noise is statistical
   rather than structural: with 512 vnodes per node the load spread is
   ~1/sqrt(512) = 4.4%, so 1.3x the mean is a >6-sigma bound — tight
   enough to catch a broken mixer, loose enough never to flake. *)
let ring_keys n =
  List.init (2048 * n) (fun i -> Name.make ~birth_node:(i mod 64) ~serial:i)

let shard_counts ring nodes keys =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun name ->
      let s = Directory.shard ring name in
      if not (List.mem s nodes) then
        failwith (Printf.sprintf "shard %d not in the node set" s);
      Hashtbl.replace counts s
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts s)))
    keys;
  counts

let ring_balance =
  Prop.case ~name:"ring balance: max/mean load <= 1.3" ~base:0xD1A0_0001L
    ~gen:gen_node_set ~show:show_nodes (fun nodes ->
      let ring = Directory.make ~nodes in
      let n = List.length nodes in
      let keys = ring_keys n in
      let counts = shard_counts ring nodes keys in
      let mean = float_of_int (List.length keys) /. float_of_int n in
      let worst =
        List.fold_left
          (fun w id ->
            max w (Option.value ~default:0 (Hashtbl.find_opt counts id)))
          0 nodes
      in
      if float_of_int worst <= 1.3 *. mean then Ok ()
      else Error (Printf.sprintf "max load %d vs mean %.0f" worst mean))

let test_ring_point_name_aliasing () =
  (* Regression: point positions and name positions must come from
     disjoint mixer domains.  With a shared domain, node 0's vnode [k]
     sits at [mix64 k] and a node-0-born name with serial [s] at
     [mix64 s] — every low-serial name lands exactly on a node-0 vnode
     point, and "first point at or after" hands node 0 the entire
     keyspace.  Low ids and low serials are precisely what a real
     cluster mints first, so this shape is the common case, not a
     corner. *)
  let nodes = [ 0; 1; 2; 3 ] in
  let ring = Directory.make ~nodes in
  let keys =
    List.init 2048 (fun s -> Name.make ~birth_node:0 ~serial:(s + 1))
  in
  let counts = shard_counts ring nodes keys in
  let mean = float_of_int (List.length keys) /. float_of_int 4 in
  List.iter
    (fun id ->
      let c = Option.value ~default:0 (Hashtbl.find_opt counts id) in
      if float_of_int c > 1.3 *. mean then
        Alcotest.failf "node %d owns %d of %d node-0-born names" id c
          (List.length keys))
    nodes

(* Consistent hashing's point: membership changes remap only the keys
   the changed node owned.  A leave must not move any key the leaver
   did not own, a join may only move keys onto the joiner, and either
   way the moved fraction stays near 1/n (bounded at 2/n — again about
   6 sigma for these sizes). *)
let gen_membership rng =
  let nodes = gen_node_set rng in
  let rec fresh () =
    let id = Splitmix.int rng 64 in
    if List.mem id nodes then fresh () else id
  in
  (nodes, fresh ())

let ring_minimal_remap =
  Prop.case ~name:"ring remap: join/leave move <= 2/n of the keys"
    ~base:0xD1A0_0002L ~gen:gen_membership
    ~show:(fun (nodes, joiner) ->
      Printf.sprintf "[%s] joiner %d" (show_nodes nodes) joiner)
    (fun (nodes, joiner) ->
      let n = List.length nodes in
      let keys = ring_keys n in
      let k = List.length keys in
      let before = Directory.make ~nodes in
      let leaver = List.hd nodes in
      let after_leave = Directory.make ~nodes:(List.tl nodes) in
      let after_join = Directory.make ~nodes:(joiner :: nodes) in
      let moved_leave = ref 0 and moved_join = ref 0 in
      let err = ref None in
      List.iter
        (fun key ->
          let s0 = Directory.shard before key in
          let sl = Directory.shard after_leave key in
          let sj = Directory.shard after_join key in
          if s0 = leaver then incr moved_leave
          else if sl <> s0 && !err = None then
            err :=
              Some
                (Printf.sprintf
                   "leave of %d moved %s from %d to %d" leaver
                   (Name.to_string key) s0 sl);
          if sj <> s0 then begin
            incr moved_join;
            if sj <> joiner && !err = None then
              err :=
                Some
                  (Printf.sprintf
                     "join of %d moved %s from %d to %d" joiner
                     (Name.to_string key) s0 sj)
          end)
        keys;
      match !err with
      | Some e -> Error e
      | None ->
        if !moved_leave * n > 2 * k then
          Error
            (Printf.sprintf "leave moved %d of %d keys (n = %d)"
               !moved_leave k n)
        else if !moved_join * (n + 1) > 2 * k then
          Error
            (Printf.sprintf "join moved %d of %d keys (n = %d)"
               !moved_join k n)
        else Ok ())

(* The ring build against the tuple-and-[compare] build it replaced,
   kept here as the oracle: every (position, node) pair in an array
   sorted by polymorphic [compare], so position ties go to the lower
   node id, and lookups by binary search and a linear detour walk.
   Real 62-bit positions practically never tie, so half the cases draw
   positions through a coarse mask ([Directory.of_points]) that makes
   ties common; the tie order is then visible to [shard_of_hash] at
   the tied position. *)
type ring_case = {
  rc_nodes : int list;  (* 1..16 distinct ids in 0..63, unsorted *)
  rc_vnodes : int;  (* 1..512 *)
  rc_bits : int;  (* position mask width: 62 = exact, 3..12 = coarse *)
  rc_down : int list;  (* the nodes the skipping lookups treat as down *)
  rc_seed : int;  (* for the random probe positions *)
}

let ring_position c node k =
  let p = Directory.point node k in
  if c.rc_bits >= 62 then p else p land ((1 lsl c.rc_bits) - 1)

let oracle_ring c =
  let nodes = List.sort_uniq Int.compare c.rc_nodes in
  let points =
    List.concat_map
      (fun node -> List.init c.rc_vnodes (fun k -> (ring_position c node k, node)))
      nodes
    |> Array.of_list
  in
  Array.sort compare points;
  points

let oracle_start points h =
  let len = Array.length points in
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst points.(mid) < h then lo := mid + 1 else hi := mid
  done;
  if !lo = len then 0 else !lo

let oracle_shard points h = snd points.(oracle_start points h)

let oracle_shard_skipping points ~down h =
  let len = Array.length points in
  let start = oracle_start points h in
  let rec walk i =
    if i >= len then snd points.(start)
    else
      let owner = snd points.((start + i) mod len) in
      if down owner then walk (i + 1) else owner
  in
  walk 0

let gen_ring_case rng =
  let nodes = gen_node_set rng in
  let nodes = if Splitmix.int rng 8 = 0 then [ List.hd nodes ] else nodes in
  {
    rc_nodes = nodes;
    rc_vnodes = 1 + Splitmix.int rng 512;
    rc_bits = (if Splitmix.bool rng then 62 else 3 + Splitmix.int rng 10);
    rc_down = List.filter (fun _ -> Splitmix.int rng 3 = 0) nodes;
    rc_seed = Splitmix.int rng 1_000_000;
  }

let show_ring_case c =
  Printf.sprintf "nodes [%s] vnodes %d bits %d down [%s] seed %d"
    (show_nodes c.rc_nodes) c.rc_vnodes c.rc_bits (show_nodes c.rc_down)
    c.rc_seed

(* Fewer nodes and vnodes first; the positions stay as drawn. *)
let shrink_ring_case c =
  let fewer_nodes =
    match c.rc_nodes with
    | [] | [ _ ] -> []
    | _ ->
      List.map
        (fun drop ->
          let nodes = List.filter (( <> ) drop) c.rc_nodes in
          { c with rc_nodes = nodes; rc_down = List.filter (( <> ) drop) c.rc_down })
        c.rc_nodes
  in
  let fewer_vnodes =
    List.filter_map
      (fun v -> if v < c.rc_vnodes then Some { c with rc_vnodes = v } else None)
      [ 1; 2; c.rc_vnodes / 2 ]
  in
  fewer_vnodes @ fewer_nodes

let ring_matches_oracle =
  Prop.case ~name:"ring build = tuple-and-compare oracle" ~base:0xD1A0_0003L
    ~gen:gen_ring_case ~shrink:shrink_ring_case ~show:show_ring_case (fun c ->
      let ring =
        Directory.of_points ~vnodes:c.rc_vnodes ~nodes:c.rc_nodes
          (ring_position c)
      in
      let points = oracle_ring c in
      let down id = List.mem id c.rc_down in
      let rng = Splitmix.create (Int64.of_int c.rc_seed) in
      let span = if c.rc_bits >= 62 then max_int else 1 lsl c.rc_bits in
      (* Every point's position and the one after it; random
         positions; and one past the top, which wraps. *)
      let probes =
        Array.fold_right (fun (h, _) acc -> h :: (h + 1) :: acc) points []
        @ List.init 64 (fun _ -> Splitmix.int rng span)
        @ [ span; 0 ]
      in
      let nodes = List.sort_uniq Int.compare c.rc_nodes in
      if Directory.nodes ring <> nodes then
        Error
          (Printf.sprintf "nodes [%s], oracle [%s]"
             (show_nodes (Directory.nodes ring)) (show_nodes nodes))
      else
        (* Skipping walks the ring from each probe, so it is checked
           at a sample of them: every 16th, and all the random ones. *)
        let n_probes = List.length probes in
        List.to_seq probes
        |> Seq.mapi (fun i h -> (i, h))
        |> Seq.find_map (fun (i, h) ->
               let got = Directory.shard_of_hash ring h
               and want = oracle_shard points h in
               if got <> want then
                 Some (Printf.sprintf "shard_of_hash %d = %d, oracle %d" h got want)
               else if i mod 16 = 0 || i >= n_probes - 66 then
                 let got = Directory.shard_of_hash_skipping ring ~down h
                 and want = oracle_shard_skipping points ~down h in
                 if got <> want then
                   Some
                     (Printf.sprintf "shard_of_hash_skipping %d = %d, oracle %d"
                        h got want)
                 else None
               else None)
        |> function
        | Some e -> Error e
        | None -> Ok ())

(* ------------------------------------------------------------------ *)
(* Trace analysis against a list-based oracle.  [Oracle] is the
   straightforward implementation of the critical-path attribution,
   the checker and the profile (per-trace lists, polymorphic tables,
   sorts) that the indexed ones in lib/obs replace; on random event
   lists — shuffled, with duplicate ids, missing parents, holds, and
   every kind a rule reads — both must give the same breakdowns,
   violations and profile JSON. *)

module Journal = Eden_obs.Journal
module Critical = Eden_obs.Critical
module Check = Eden_obs.Check
module Profile = Eden_obs.Profile

module Oracle = struct
  open Critical

  let has_prefix p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p

  (* The oracle reads the parent as an option ([None] for [-1]), the
     way the list-based code it reproduces did. *)
  let parent_opt (e : Journal.event) =
    if e.ev_parent < 0 then None else Some e.ev_parent

  let directory_message msg =
    has_prefix "locate" msg || has_prefix "dir" msg || has_prefix "hint" msg
    || has_prefix "inv_nack" msg

  let hold_overlap holds ~parent ~t0 ~t1 =
    match Hashtbl.find_opt holds parent with
    | None -> 0
    | Some spans ->
      List.fold_left
        (fun acc (h0, h1) ->
          let lo = max t0 h0 and hi = min t1 h1 in
          acc + max 0 (hi - lo))
        0 spans

  let classify ~holds prev cur =
    let t0 = Time.to_ns prev.Journal.ev_at
    and t1 = Time.to_ns cur.Journal.ev_at in
    let gap = t1 - t0 in
    match prev.Journal.ev_kind with
    | Journal.Retry _ -> [ (Backoff, gap) ]
    | _ -> (
      match cur.Journal.ev_kind with
      | Journal.Net_flush _ -> [ (Coalesce, gap) ]
      | Journal.Net_hold _ -> [ (Wire, gap) ]
      | Journal.Recv { msg; _ } ->
        let held =
          match parent_opt cur with
          | None -> 0
          | Some send_id -> min gap (hold_overlap holds ~parent:send_id ~t0 ~t1)
        in
        let carry = if directory_message msg then Directory else Wire in
        if held = 0 then [ (carry, gap) ]
        else [ (Service, held); (carry, gap - held) ]
      | Journal.Send { msg; _ } ->
        [ ((if directory_message msg then Directory else Service), gap) ]
      | Journal.Work_start _ ->
        let c =
          match prev.Journal.ev_kind with
          | Journal.Drain_stall _ -> Drain
          | _ -> Queue
        in
        [ (c, gap) ]
      | Journal.Drain_stall _ -> [ (Queue, gap) ]
      | Journal.Dir_hit _ | Journal.Dir_miss _ | Journal.Dir_fallback _
      | Journal.Dir_publish _ ->
        [ (Directory, gap) ]
      | Journal.Retry _ | Journal.Hedge _ -> [ (Wait, gap) ]
      | Journal.Clone_win _ -> [ (Spec_wait, gap) ]
      | Journal.Inv_end _ ->
        let c =
          match prev.Journal.ev_kind with
          | Journal.Recv _ | Journal.Inv_begin _ | Journal.Clone_win _ ->
            Service
          | _ -> Wait
        in
        [ (c, gap) ]
      | _ -> [ (Service, gap) ])

  let attribute events =
    let begin_ev =
      List.find_opt
        (fun e ->
          match e.Journal.ev_kind with Journal.Inv_begin _ -> true | _ -> false)
        events
    in
    match begin_ev with
    | None -> None
    | Some b -> (
      let end_ev =
        List.fold_left
          (fun acc e ->
            match e.Journal.ev_kind with
            | Journal.Inv_end _ when e.Journal.ev_id > b.Journal.ev_id -> Some e
            | _ -> acc)
          None events
      in
      match end_ev with
      | None -> None
      | Some e ->
        let window =
          List.filter
            (fun ev ->
              ev.Journal.ev_id >= b.Journal.ev_id
              && ev.Journal.ev_id <= e.Journal.ev_id)
            events
        in
        let holds = Hashtbl.create 7 in
        List.iter
          (fun ev ->
            match (ev.Journal.ev_kind, parent_opt ev) with
            | Journal.Net_hold { by; _ }, Some parent ->
              let h0 = Time.to_ns ev.Journal.ev_at in
              let span = (h0, h0 + Time.to_ns by) in
              let prior =
                Option.value (Hashtbl.find_opt holds parent) ~default:[]
              in
              Hashtbl.replace holds parent (span :: prior)
            | _ -> ())
          window;
        let parts = Array.make n_categories 0 in
        let rec walk = function
          | prev :: (cur :: _ as rest) ->
            List.iter
              (fun (c, ns) ->
                parts.(category_index c) <- parts.(category_index c) + ns)
              (classify ~holds prev cur);
            walk rest
          | _ -> ()
        in
        walk window;
        let op, target =
          match b.Journal.ev_kind with
          | Journal.Inv_begin { op; target; _ } -> (op, target)
          | _ -> assert false
        in
        let outcome =
          match e.Journal.ev_kind with
          | Journal.Inv_end { outcome; _ } -> outcome
          | _ -> assert false
        in
        Some
          {
            bd_trace = b.Journal.ev_trace;
            bd_node = b.Journal.ev_node;
            bd_op = op;
            bd_target = target;
            bd_outcome = outcome;
            bd_begin = b.Journal.ev_at;
            bd_total_ns =
              Time.to_ns e.Journal.ev_at - Time.to_ns b.Journal.ev_at;
            bd_parts = parts;
          })

  let breakdowns events =
    let by_trace : (int, Journal.event list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun ev ->
        let tr = ev.Journal.ev_trace in
        let prior = Option.value (Hashtbl.find_opt by_trace tr) ~default:[] in
        Hashtbl.replace by_trace tr (ev :: prior))
      events;
    let traces = Hashtbl.fold (fun tr evs acc -> (tr, evs) :: acc) by_trace [] in
    let traces = List.sort (fun (a, _) (b, _) -> Int.compare a b) traces in
    List.filter_map
      (fun (_, evs) ->
        let evs =
          List.sort
            (fun a b -> Int.compare a.Journal.ev_id b.Journal.ev_id)
            evs
        in
        attribute evs)
      traces

  let check ~complete events =
    let open Check in
    let by_id = Hashtbl.create 1024 in
    List.iter
      (fun (e : Journal.event) -> Hashtbl.replace by_id e.ev_id e)
      events;
    let out = ref [] in
    let add v_rule v_event v_detail =
      out := { v_rule; v_event; v_detail } :: !out
    in
    if complete then
      List.iter
        (fun (e : Journal.event) ->
          match e.ev_kind with
          | Journal.Recv { src; msg } -> (
            match parent_opt e with
            | None ->
              add "recv-matches-send" (Some e.ev_id)
                (Printf.sprintf "recv of %s has no parent" msg)
            | Some p -> (
              match Hashtbl.find_opt by_id p with
              | None ->
                add "recv-matches-send" (Some e.ev_id)
                  (Printf.sprintf
                     "parent #%d of recv %s is not in any journal" p msg)
              | Some pe -> (
                match pe.ev_kind with
                | Journal.Send _ ->
                  if pe.ev_node <> src then
                    add "recv-matches-send" (Some e.ev_id)
                      (Printf.sprintf
                         "recv names source n%d but send #%d is on n%d" src
                         p pe.ev_node)
                | k ->
                  add "recv-matches-send" (Some e.ev_id)
                    (Printf.sprintf "parent #%d is a %s, not a send" p
                       (Journal.kind_name k)))))
          | _ -> ())
        events;
    List.iter
      (fun (e : Journal.event) ->
        match parent_opt e with
        | Some p when p <> e.ev_id -> (
          match Hashtbl.find_opt by_id p with
          | Some pe when Time.compare pe.ev_at e.ev_at > 0 ->
            add "causal-time-order" (Some e.ev_id)
              (Printf.sprintf "at %s but its parent #%d is at %s"
                 (Time.to_string e.ev_at) p (Time.to_string pe.ev_at))
          | _ -> ())
        | _ -> ())
      events;
    if complete then begin
      let ends = Hashtbl.create 64 in
      List.iter
        (fun (e : Journal.event) ->
          match e.ev_kind with
          | Journal.Inv_end _ ->
            let last =
              match Hashtbl.find_opt ends e.ev_trace with
              | Some id -> max id e.ev_id
              | None -> e.ev_id
            in
            Hashtbl.replace ends e.ev_trace last
          | _ -> ())
        events;
      List.iter
        (fun (e : Journal.event) ->
          match e.ev_kind with
          | Journal.Retry { op; attempt } -> (
            match Hashtbl.find_opt ends e.ev_trace with
            | Some id when id > e.ev_id -> ()
            | _ ->
              add "retry-terminates" (Some e.ev_id)
                (Printf.sprintf
                   "retry #%d of %s in trace %d has no later inv_end" attempt
                   op e.ev_trace))
          | _ -> ())
        events
    end;
    let epochs = Hashtbl.create 64 in
    List.iter
      (fun (e : Journal.event) ->
        match e.ev_kind with
        | Journal.Cache_invalidate { target; epoch } ->
          let key = (e.ev_node, target) in
          let cur =
            match Hashtbl.find_opt epochs key with Some x -> x | None -> 0
          in
          Hashtbl.replace epochs key (max cur epoch)
        | Journal.Cache_install { target; epoch } -> (
          match Hashtbl.find_opt epochs (e.ev_node, target) with
          | Some bumped when epoch < bumped ->
            add "install-epoch" (Some e.ev_id)
              (Printf.sprintf
                 "install of %s at epoch %d on n%d after invalidation \
                  bumped the epoch to %d"
                 target epoch e.ev_node bumped)
          | _ -> ())
        | _ -> ())
      events;
    if complete then begin
      let acct = Hashtbl.create 64 in
      List.iter
        (fun (e : Journal.event) ->
          let bump dfan dsites dwin dcancel =
            let fans, sites, wins, cancels =
              match Hashtbl.find_opt acct e.ev_trace with
              | Some x -> x
              | None -> (0, 0, 0, 0)
            in
            Hashtbl.replace acct e.ev_trace
              (fans + dfan, sites + dsites, wins + dwin, cancels + dcancel)
          in
          match e.ev_kind with
          | Journal.Clone_fanout { sites; _ } -> bump 1 sites 0 0
          | Journal.Clone_win _ -> bump 0 0 1 0
          | Journal.Clone_cancel _ -> bump 0 0 0 1
          | _ -> ())
        events;
      Hashtbl.fold (fun trace acct l -> (trace, acct) :: l) acct []
      |> List.sort compare
      |> List.iter (fun (trace, (fans, sites, wins, cancels)) ->
             if fans = 0 then begin
               if wins > 0 || cancels > 0 then
                 add "clone-resolves-once" None
                   (Printf.sprintf
                      "trace %d has %d win(s) and %d cancel(s) but no fan-out"
                      trace wins cancels)
             end
             else if wins > fans then
               add "clone-resolves-once" None
                 (Printf.sprintf "trace %d: %d wins for %d fan-out(s)" trace
                    wins fans)
             else if wins + cancels <> sites then
               add "clone-resolves-once" None
                 (Printf.sprintf
                    "trace %d: %d fan-out(s) to %d site(s) resolved as %d \
                     win(s) + %d cancel(s)"
                    trace fans sites wins cancels))
    end;
    let last_table () =
      let last = Hashtbl.create 64 in
      List.iter
        (fun (e : Journal.event) ->
          match e.ev_kind with
          | Journal.Inv_end _ | Journal.Dir_fallback _ ->
            let fb, iv =
              match Hashtbl.find_opt last e.ev_trace with
              | Some x -> x
              | None -> (0, 0)
            in
            let entry =
              match e.ev_kind with
              | Journal.Dir_fallback _ -> (max fb e.ev_id, iv)
              | _ -> (fb, max iv e.ev_id)
            in
            Hashtbl.replace last e.ev_trace entry
          | _ -> ())
        events;
      last
    in
    if complete then begin
      let last = last_table () in
      List.iter
        (fun (e : Journal.event) ->
          let resolved ~fallback_only what target =
            let fb, iv =
              match Hashtbl.find_opt last e.ev_trace with
              | Some x -> x
              | None -> (0, 0)
            in
            let ok = fb > e.ev_id || ((not fallback_only) && iv > e.ev_id) in
            if not ok then
              add "dir-resolves-or-falls-back" (Some e.ev_id)
                (Printf.sprintf "dir %s for %s in trace %d has no later %s"
                   what target e.ev_trace
                   (if fallback_only then "dir_fallback"
                    else "inv_end or dir_fallback"))
          in
          match e.ev_kind with
          | Journal.Dir_hit { target; _ } ->
            resolved ~fallback_only:false "hit" target
          | Journal.Dir_miss { target } ->
            resolved ~fallback_only:true "miss" target
          | _ -> ())
        events
    end;
    if complete then begin
      let last = last_table () in
      let ordered =
        List.sort
          (fun (a : Journal.event) (b : Journal.event) ->
            Int.compare a.ev_id b.ev_id)
          events
      in
      let view = Hashtbl.create 16 in
      let newest = ref 0 in
      List.iter
        (fun (e : Journal.event) ->
          match e.ev_kind with
          | Journal.Epoch_bump { epoch } ->
            let prev =
              match Hashtbl.find_opt view e.ev_node with
              | Some p -> p
              | None -> 0
            in
            if epoch <= prev then
              add "epoch-monotonic" (Some e.ev_id)
                (Printf.sprintf
                   "n%d bumped to epoch %d after already reaching epoch %d"
                   e.ev_node epoch prev);
            Hashtbl.replace view e.ev_node (max epoch prev);
            if epoch > !newest then newest := epoch
          | Journal.Dir_hit { target; _ } ->
            let mine =
              match Hashtbl.find_opt view e.ev_node with
              | Some p -> p
              | None -> 0
            in
            if mine < !newest then begin
              let fb, iv =
                match Hashtbl.find_opt last e.ev_trace with
                | Some x -> x
                | None -> (0, 0)
              in
              if not (fb > e.ev_id || iv > e.ev_id) then
                add "epoch-monotonic" (Some e.ev_id)
                  (Printf.sprintf
                     "dir hit for %s on n%d (view e%d, cluster at e%d) in \
                      trace %d has no later inv_end or dir_fallback"
                     target e.ev_node mine !newest e.ev_trace)
            end
          | _ -> ())
        ordered
    end;
    if complete then
      List.iter
        (fun (bd : breakdown) ->
          let sum = sum_parts bd in
          if sum <> bd.bd_total_ns then
            add "attribution-complete" None
              (Printf.sprintf
                 "trace %d (%s.%s): categories sum to %dns but end-to-end \
                  latency is %dns"
                 bd.bd_trace bd.bd_target bd.bd_op sum bd.bd_total_ns))
        (breakdowns events);
    List.rev !out

  (* The profile's JSON, from sorted breakdown lists and a
     [List.sort_uniq] count of the traces that began. *)
  let profile_json events =
    let bds = breakdowns events in
    let began =
      List.length
        (List.sort_uniq Int.compare
           (List.filter_map
              (fun (e : Journal.event) ->
                match e.Journal.ev_kind with
                | Journal.Inv_begin _ -> Some e.Journal.ev_trace
                | _ -> None)
              events))
    in
    let parts = Array.make n_categories 0 in
    let total = ref 0 in
    List.iter
      (fun bd ->
        total := !total + bd.bd_total_ns;
        Array.iteri (fun i ns -> parts.(i) <- parts.(i) + ns) bd.bd_parts)
      bds;
    let sorted =
      List.sort
        (fun a b ->
          match Int.compare a.bd_total_ns b.bd_total_ns with
          | 0 -> Int.compare a.bd_trace b.bd_trace
          | c -> c)
        bds
    in
    let share c =
      if !total <= 0 then 0.
      else float_of_int parts.(category_index c) /. float_of_int !total
    in
    let dominant =
      List.fold_left
        (fun best c -> if share c > share best then c else best)
        Service categories
    in
    let quantile q =
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      if n = 0 then None
      else
        let rank = int_of_float (ceil (q *. float_of_int n)) in
        Some arr.(max 0 (min (n - 1) (rank - 1)))
    in
    let bd_json bd =
      Json.Obj
        [
          ("trace", Json.Int bd.bd_trace);
          ("node", Json.Int bd.bd_node);
          ("op", Json.Str bd.bd_op);
          ("target", Json.Str bd.bd_target);
          ("outcome", Json.Str bd.bd_outcome);
          ("total_ns", Json.Int bd.bd_total_ns);
          ( "parts",
            Json.Obj
              (List.map
                 (fun c -> (category_name c, Json.Int (part bd c)))
                 categories) );
        ]
    in
    let quant name q acc =
      match quantile q with None -> acc | Some bd -> (name, bd_json bd) :: acc
    in
    Json.to_string ~compact:true
      (Json.Obj
         ([
            ("requests", Json.Int (List.length bds));
            ("skipped", Json.Int (began - List.length bds));
            ("total_ns", Json.Int !total);
            ( "parts",
              Json.Obj
                (List.map
                   (fun c ->
                     (category_name c, Json.Int parts.(category_index c)))
                   categories) );
            ("dominant", Json.Str (category_name dominant));
          ]
         @ List.rev
             (quant "p999" 0.999 (quant "p95" 0.95 (quant "p50" 0.50 [])))))
end

(* A handful of traces over a small id space, so ids, traces and
   parents collide often: duplicate ids, parents that name no event
   or the event itself, traces whose root is missing, times that run
   backwards, and every kind the rules and the attribution read. *)
let gen_analysis_event ~n rng : Journal.event =
  let id = Splitmix.int rng n in
  let pick xs = Prop.Gen.choose xs rng in
  let node = Splitmix.int rng 4 in
  let msg () =
    pick [ "locate o1"; "dir_get o1"; "hint o2"; "inv_nack o1";
           "inv_request o1.get"; "inv_reply ok"; "ckpt_write o3"; "" ]
  in
  let kind =
    match Splitmix.int rng 22 with
    | 0 | 1 -> Journal.Send { msg = msg (); dst = pick [ None; Some 1; Some 2 ] }
    | 2 | 3 -> Journal.Recv { msg = msg (); src = Splitmix.int rng 4 }
    | 4 | 5 -> Journal.Inv_begin
        {
          op = pick [ "get"; "put" ];
          target = pick [ "o1"; "o2" ];
          caller = -1;
        }
    | 6 | 7 -> Journal.Inv_end { op = "get"; outcome = pick [ "ok"; "timeout" ] }
    | 8 -> Journal.Retry { op = "get"; attempt = 1 + Splitmix.int rng 3 }
    | 9 -> Journal.Hedge { op = "get"; dst = 2 }
    | 10 -> Journal.Clone_fanout { op = "get"; sites = 2 + Splitmix.int rng 2 }
    | 11 -> Journal.Clone_win { op = "get"; winner = 1 }
    | 12 -> Journal.Clone_cancel { dst = 2 }
    | 13 -> Journal.Dir_hit { target = "o1"; home = 1 }
    | 14 -> Journal.Dir_miss { target = "o1" }
    | 15 -> Journal.Dir_fallback { target = "o1" }
    | 16 -> Journal.Epoch_bump { epoch = Splitmix.int rng 4 }
    | 17 ->
      Journal.Net_hold
        { dst = Some 1; by = Time.ns (Splitmix.int rng 3_000) }
    | 18 -> Journal.Work_start { op = "get" }
    | 19 -> pick [ Journal.Drain_stall { target = "o1" };
                   Journal.Net_flush { dst = 1; msgs = 2 };
                   Journal.Dir_publish { target = "o1"; home = 2 } ]
    | 20 -> Journal.Cache_invalidate { target = "o1"; epoch = Splitmix.int rng 4 }
    | _ -> Journal.Cache_install { target = "o1"; epoch = Splitmix.int rng 4 }
  in
  {
    ev_id = id;
    ev_node = node;
    ev_at = Time.ns (500 + (id * 1_000) + Splitmix.int_in rng (-300) 2_000);
    ev_trace = pick [ 0; 1; 2; 3; id; n + 1 ];
    ev_parent =
      (match Splitmix.int rng 4 with
      | 0 -> -1
      | 1 -> id
      | _ -> Splitmix.int rng (n + 2));
    ev_kind = kind;
  }

let gen_analysis_events rng =
  let n = 1 + Splitmix.int rng 40 in
  let evs = List.init (Splitmix.int rng 80) (fun _ -> gen_analysis_event ~n rng) in
  (* Half the lists come in id order, as assembled timelines do. *)
  if Splitmix.bool rng then
    List.stable_sort
      (fun (a : Journal.event) b -> Int.compare a.ev_id b.ev_id)
      evs
  else evs

let show_analysis_events evs =
  String.concat "; "
    (List.map (fun e -> Format.asprintf "%a" Journal.pp_event e) evs)

let shrink_analysis_events evs =
  List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) evs) evs

let analysis_agrees evs =
  let show_vs vs =
    String.concat " | "
      (List.map (fun v -> Format.asprintf "%a" Check.pp_violation v) vs)
  in
  if Critical.breakdowns evs <> Oracle.breakdowns evs then
    Error "breakdowns differ"
  else
    let differing =
      List.find_opt
        (fun complete ->
          Check.run ~complete evs <> Oracle.check ~complete evs)
        [ true; false ]
    in
    match differing with
    | Some complete ->
      Error
        (Printf.sprintf "complete:%b violations differ: %s vs oracle %s"
           complete
           (show_vs (Check.run ~complete evs))
           (show_vs (Oracle.check ~complete evs)))
    | None ->
      let json =
        Json.to_string ~compact:true
          (Profile.to_json (Profile.of_timeline evs))
      in
      if json <> Oracle.profile_json evs then
        Error (Printf.sprintf "profile JSON differs: %s" json)
      else Ok ()

let analysis_matches_oracle =
  Prop.case ~seeds:300 ~name:"indexed analysis = list-based oracle"
    ~gen:gen_analysis_events ~shrink:shrink_analysis_events
    ~show:show_analysis_events analysis_agrees

(* The same events spread over a wide, sparse id space, as when a
   quiet node's ring reaches far back behind busy ones: the small ids
   map, in order, onto a few dense runs with gaps of up to [span]
   between them, so trace ids need several radix passes and parents
   lie far back, in a gap (absent) or ahead.  Duplicate ids survive
   the map; half the lists stay unsorted. *)
let gen_wide_analysis_events rng =
  let evs = gen_analysis_events rng in
  let span =
    Prop.Gen.choose [ 1 lsl 12; 1 lsl 24; 1 lsl 40; max_int / 8 ] rng
  in
  let top =
    List.fold_left
      (fun m (e : Journal.event) ->
        let parent = max e.ev_parent 0 in
        max m (max e.ev_id (max e.ev_trace parent)))
      0 evs
  in
  let runs = 1 + Splitmix.int rng 4 in
  let offset = Array.make (top + 1) 0 in
  let gap () = Splitmix.int rng (span / runs) in
  let shift = ref (gap ()) in
  for k = 0 to top do
    if Splitmix.int rng (top + 1) < runs then shift := !shift + gap ();
    offset.(k) <- !shift
  done;
  let wide k = k + offset.(k) in
  let far_back = wide 0 and absent = wide top + 1 + Splitmix.int rng span in
  List.map
    (fun (e : Journal.event) ->
      {
        e with
        ev_id = wide e.ev_id;
        ev_trace = wide e.ev_trace;
        ev_parent =
          (match (e.ev_parent, Splitmix.int rng 6) with
          | p, 0 when p >= 0 -> far_back
          | p, 1 when p >= 0 -> absent
          | p, _ when p >= 0 -> wide p
          | _, _ -> -1);
      })
    evs

let wide_analysis_matches_oracle =
  Prop.case ~seeds:300 ~name:"indexed analysis = oracle on wide id spans"
    ~gen:gen_wide_analysis_events ~shrink:shrink_analysis_events
    ~show:show_analysis_events analysis_agrees

(* Long, dense timelines like an assembled run's: 20k-25k events whose
   ids start far above 0 and run densely but for the gaps rings leave
   (a few ids here and there, and now and then a run of hundreds), each
   trace rooted at an event of its own or before the retained window.
   Parents lie a few positions back, thousands back, before the window
   (where [Index.parent]'s dense-id guess clamps to position 0), ahead
   of their child (where it clamps to the child's own position), or at
   the event itself; a few ids repeat.  The gaps put the guess off by
   as many positions as ids went missing, so a search that trusted the
   guess would lose far parents.  Most lists come in id order. *)
let gen_far_analysis_events rng =
  let n = 20_000 + Splitmix.int rng 5_000 in
  let base = (1 lsl 20) + Splitmix.int rng (1 lsl 30) in
  let pool = Array.make 64 (base - 1 - Splitmix.int rng 50_000) in
  let id = ref base in
  let evs =
    List.init n (fun _ ->
        (match Splitmix.int rng 400 with
        | 0 -> id := !id + 100 + Splitmix.int rng 900
        | k when k < 8 -> id := !id + 1 + Splitmix.int rng 3
        | k when k < 12 -> () (* a repeated id *)
        | _ -> incr id);
        let id = !id in
        let trace =
          match Splitmix.int rng 8 with
          | 0 ->
            pool.(Splitmix.int rng 64) <- id;
            id
          | _ -> pool.(Splitmix.int rng 64)
        in
        let parent =
          match Splitmix.int rng 20 with
          | 0 | 1 | 2 -> -1
          | 3 | 4 | 5 | 6 | 7 | 8 | 9 -> id - 1 - Splitmix.int rng 5
          | 10 | 11 | 12 | 13 | 14 -> id - 1_000 - Splitmix.int rng 8_000
          | 15 | 16 -> base - 1 - Splitmix.int rng 10_000
          | 17 | 18 -> id + 1 + Splitmix.int rng 100
          | _ -> id
        in
        let e = gen_analysis_event ~n:8 rng in
        {
          e with
          ev_id = id;
          ev_trace = trace;
          ev_parent = parent;
          ev_at = Time.ns ((id - base) * 1_000 + Splitmix.int_in rng (-300) 2_000);
        })
  in
  if Splitmix.int rng 4 = 0 then begin
    let a = Array.of_list evs in
    Splitmix.shuffle rng a;
    Array.to_list a
  end
  else evs

(* A counterexample of 20k events is replayed from its seed, not read. *)
let show_far_analysis_events evs =
  match evs with
  | [] -> "no events"
  | (e : Journal.event) :: _ ->
    Printf.sprintf "%d events, the first id %d" (List.length evs) e.ev_id

let far_analysis_matches_oracle =
  Prop.case ~seeds:12 ~name:"indexed analysis = oracle on far parents"
    ~gen:gen_far_analysis_events ~show:show_far_analysis_events
    analysis_agrees

(* [Timeline.assemble] merges the journals newest first with a heap;
   whatever the interleaving, ring sizes (wrapped, disabled) and
   journal count, it must equal the id-sorted concatenation of
   [Journal.events], and [Journal.nth] must read the same events. *)
module Timeline = Eden_obs.Timeline

let gen_journal_ops rng =
  let caps = List.init (1 + Splitmix.int rng 6) (fun _ -> Splitmix.int rng 12) in
  let k = List.length caps in
  (caps, List.init (Splitmix.int rng 120) (fun _ -> Splitmix.int rng k))

let show_journal_ops (caps, ops) =
  Printf.sprintf "caps [%s], records into [%s]"
    (String.concat ";" (List.map string_of_int caps))
    (String.concat ";" (List.map string_of_int ops))

let assemble_is_sorted_merge =
  Prop.case ~name:"Timeline.assemble = id-sorted journal events"
    ~gen:gen_journal_ops ~show:show_journal_ops (fun (caps, ops) ->
      let sink = Journal.sink () in
      let js =
        Array.of_list
          (List.mapi (fun node cap -> Journal.create sink ~node ~cap) caps)
      in
      List.iteri
        (fun i j ->
          ignore
            (Journal.record js.(j) ~at:(Time.us i)
               (Journal.Epoch_bump { epoch = i })))
        ops;
      let js = Array.to_list js in
      let expected =
        List.stable_sort
          (fun (a : Journal.event) b -> Int.compare a.ev_id b.ev_id)
          (List.concat_map Journal.events js)
      in
      if Timeline.assemble js <> expected then Error "merge differs"
      else if
        List.exists
          (fun j ->
            List.init (Journal.retained j) (Journal.nth j) <> Journal.events j
            || List.init (Journal.retained j) (Journal.nth_id j)
               <> List.map (fun (e : Journal.event) -> e.ev_id) (Journal.events j))
          js
      then Error "nth disagrees with events"
      else Ok ())

(* ------------------------------------------------------------------ *)
(* The metrics registry against a list-based model.

   The model keeps every registration in a list under its canonical
   key (labels stably sorted by key) and finds, orders and compares
   keys with the generic [compare] and [=] the registry's rules are
   stated in.  Names, keys and values come from small pools, and half
   the label lists re-use an earlier one in a shuffled order, so
   re-registrations, kind and bucket clashes and duplicate keys are
   common.  Per registration the two must agree on the outcome (the
   same physical instrument, a fresh one, or the same
   [Invalid_argument] message); at the end on [sample], on [find] of
   every key as it was written, and on what [iter] visits. *)

module Metrics = Eden_obs.Metrics

type reg_kind =
  | K_counter
  | K_histogram of float array
  | K_counter_fn of int
  | K_gauge_fn of float

type reg_op =
  | Register of string * (string * string) list * reg_kind
  | Bump of int  (* the [n mod count]-th owned instrument registered *)

type reg_handle = H_counter of Metrics.counter | H_histogram of Metrics.histogram

type model_entry = {
  me_name : string;
  me_labels : (string * string) list;
  me_kind : reg_kind;
  me_handle : reg_handle option;  (* the registry's, for [==] *)
  mutable me_count : int;
  mutable me_obs : float list;
}

let reg_buckets =
  [ [| 1.0; 2.0 |]; [| 1.0; 2.0; 4.0 |]; [| 0.5 |]; [||]; [| 2.0; 1.0 |] ]

let gen_reg_ops rng =
  let pool = ref [] in
  let labels () =
    match !pool with
    | _ :: _ when Splitmix.bool rng ->
      let l = Splitmix.choose rng (Array.of_list !pool) in
      let a = Array.of_list l in
      for i = Array.length a - 1 downto 1 do
        let j = Splitmix.int rng (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      Array.to_list a
    | _ ->
      let l =
        Prop.Gen.list ~max_len:3
          (Prop.Gen.pair
             (Prop.Gen.choose [ "node"; "seg"; "k" ])
             (Prop.Gen.choose [ "0"; "1"; "10"; "" ]))
          rng
      in
      pool := l :: !pool;
      l
  in
  List.init (1 + Splitmix.int rng 40) (fun _ ->
      if Splitmix.int rng 4 = 0 then Bump (Splitmix.int rng 64)
      else
        let name = Prop.Gen.choose [ "a"; "b"; "eden.x"; "" ] rng in
        let kind =
          match Splitmix.int rng 4 with
          | 0 -> K_counter
          | 1 -> K_histogram (Prop.Gen.choose reg_buckets rng)
          | 2 -> K_counter_fn (Splitmix.int rng 100)
          | _ -> K_gauge_fn (float_of_int (Splitmix.int rng 100) /. 4.0)
        in
        Register (name, labels (), kind))

let show_reg_op = function
  | Bump n -> Printf.sprintf "bump %d" n
  | Register (name, labels, kind) ->
    Printf.sprintf "%s %S {%s}"
      (match kind with
      | K_counter -> "counter"
      | K_histogram b ->
        Printf.sprintf "histogram [%s]"
          (String.concat ";" (Array.to_list (Array.map string_of_float b)))
      | K_counter_fn n -> Printf.sprintf "counter_fn %d" n
      | K_gauge_fn g -> Printf.sprintf "gauge_fn %g" g)
      name
      (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels))

let show_reg_ops ops = String.concat "; " (List.map show_reg_op ops)

let shrink_reg_ops ops =
  List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) ops) ops

let model_key labels =
  List.stable_sort (fun (a, _) (b, _) -> compare a b) labels

let model_kind_name = function
  | K_counter | K_counter_fn _ -> "counter"
  | K_gauge_fn _ -> "gauge"
  | K_histogram _ -> "histogram"

(* What the model expects of one registration: [Ok None] for a fresh
   instrument, [Ok (Some e)] for [e]'s, or the error message. *)
let model_register entries name labels kind =
  let key = model_key labels in
  let existing =
    List.find_opt (fun e -> e.me_name = name && e.me_labels = key) entries
  in
  let already e =
    Error
      (Printf.sprintf "Metrics: %S already registered as a %s" name
         (model_kind_name e.me_kind))
  in
  let increasing b =
    let ok = ref true in
    Array.iteri (fun i x -> if i > 0 && x <= b.(i - 1) then ok := false) b;
    !ok
  in
  match (kind, existing) with
  | K_histogram [||], _ -> Error "Metrics.histogram: no buckets"
  | K_histogram b, _ when not (increasing b) ->
    Error "Metrics.histogram: bounds must be strictly increasing"
  | _, None -> Ok (key, None)
  | K_counter, Some ({ me_kind = K_counter; _ } as e) -> Ok (key, Some e)
  | K_histogram b, Some ({ me_kind = K_histogram b'; _ } as e) ->
    if b = b' then Ok (key, Some e)
    else Error (Printf.sprintf "Metrics: histogram %S bucket mismatch" name)
  | _, Some e -> already e

let registry_register reg name labels kind =
  match kind with
  | K_counter -> Some (H_counter (Metrics.counter reg ~labels name))
  | K_histogram buckets ->
    Some (H_histogram (Metrics.histogram reg ~labels ~buckets name))
  | K_counter_fn n ->
    Metrics.register_counter_fn reg ~labels name (fun () -> n);
    None
  | K_gauge_fn g ->
    Metrics.register_gauge_fn reg ~labels name (fun () -> g);
    None

let same_handle a b =
  match (a, b) with
  | H_counter a, H_counter b -> a == b
  | H_histogram a, H_histogram b -> a == b
  | _ -> false

let model_value e =
  match e.me_kind with
  | K_counter -> Metrics.Counter e.me_count
  | K_counter_fn n -> Metrics.Counter n
  | K_gauge_fn g -> Metrics.Gauge g
  | K_histogram bounds ->
    let n = Array.length bounds in
    let counts = Array.make (n + 1) 0 in
    List.iter
      (fun v ->
        let rec slot i = if i >= n || v <= bounds.(i) then i else slot (i + 1) in
        let i = slot 0 in
        counts.(i) <- counts.(i) + 1)
      e.me_obs;
    Metrics.Histogram
      {
        bounds;
        counts = Array.sub counts 0 n;
        overflow = counts.(n);
        count = List.length e.me_obs;
        sum = List.fold_left ( +. ) 0.0 e.me_obs;
      }

let registry_matches_model =
  Prop.case ~name:"registry = list-based model" ~base:0x3E7_0001L
    ~gen:gen_reg_ops ~shrink:shrink_reg_ops ~show:show_reg_ops (fun ops ->
      let reg = Metrics.create () in
      let entries = ref [] in
      let step = function
        | Bump n -> (
          match List.filter (fun e -> e.me_handle <> None) !entries with
          | [] -> Ok ()
          | owned ->
            let e = List.nth owned (n mod List.length owned) in
            (match e.me_handle with
            | Some (H_counter c) ->
              Metrics.incr c;
              e.me_count <- e.me_count + 1
            | Some (H_histogram h) ->
              let v = float_of_int (n mod 5) in
              Metrics.observe h v;
              e.me_obs <- v :: e.me_obs
            | None -> ());
            Ok ())
        | Register (name, labels, kind) as op -> (
          let got =
            try Ok (registry_register reg name labels kind)
            with Invalid_argument m -> Error m
          in
          let fail fmt =
            Printf.ksprintf
              (fun m -> Error (Printf.sprintf "%s: %s" (show_reg_op op) m))
              fmt
          in
          match (model_register !entries name labels kind, got) with
          | Error want, Error m when want = m -> Ok ()
          | Error want, _ -> fail "want Invalid_argument %S" want
          | Ok _, Error m -> fail "unexpected Invalid_argument %S" m
          | Ok (_, Some e), Ok h -> (
            match (e.me_handle, h) with
            | Some a, Some b when same_handle a b -> Ok ()
            | _ -> fail "re-registration did not return the instrument")
          | Ok (key, None), Ok h ->
            let reused =
              match h with
              | None -> false
              | Some h ->
                List.exists
                  (fun e ->
                    match e.me_handle with
                    | Some h' -> same_handle h h'
                    | None -> false)
                  !entries
            in
            if reused then fail "a fresh key returned an old instrument"
            else begin
              entries :=
                {
                  me_name = name;
                  me_labels = key;
                  me_kind = kind;
                  me_handle = h;
                  me_count = 0;
                  me_obs = [];
                }
                :: !entries;
              Ok ()
            end)
      in
      let rec steps = function
        | [] -> Ok ()
        | op :: rest -> (
          match step op with Ok () -> steps rest | Error _ as e -> e)
      in
      match steps ops with
      | Error _ as e -> e
      | Ok () ->
        let want =
          List.map
            (fun e ->
              {
                Metrics.s_name = e.me_name;
                s_labels = e.me_labels;
                s_value = model_value e;
              })
            !entries
          |> List.sort (fun (a : Metrics.sample) b ->
                 compare (a.s_name, a.s_labels) (b.s_name, b.s_labels))
        in
        let got = Metrics.sample reg in
        let visited =
          let acc = ref [] in
          Metrics.iter reg (fun s_name s_labels s_value ->
              acc := { Metrics.s_name; s_labels; s_value } :: !acc);
          List.sort compare !acc
        in
        let find_mismatch =
          List.find_opt
            (function
              | Bump _ -> false
              | Register (name, labels, _) ->
                let key = model_key labels in
                let model =
                  List.find_map
                    (fun (s : Metrics.sample) ->
                      if s.s_name = name && s.s_labels = key then
                        Some s.s_value
                      else None)
                    want
                in
                Metrics.find got ~labels name <> model)
            ops
        in
        if got <> want then
          Error
            (Printf.sprintf "sample differs (%d instruments, model %d)"
               (List.length got) (List.length want))
        else if visited <> List.sort compare want then
          Error "iter visits differ from the model"
        else
          match find_mismatch with
          | Some op -> Error ("find differs: " ^ show_reg_op op)
          | None -> Ok ())

let () =
  Alcotest.run "eden_props"
    [
      ( "message",
        [
          journal_renders_describe;
          Alcotest.test_case "size_bytes pinned per constructor" `Quick
            test_size_bytes_pinned;
        ] );
      ("delta", [ delta_apply_roundtrip; delta_never_larger ]);
      ("fault_plan", [ plan_roundtrip ]);
      ("metrics", [ registry_matches_model ]);
      ("health", [ topk_error_bounds ]);
      ("pqueue", [ heap_matches_model; tiers_merge_as_one; cleared_keep_their_place ]);
      ( "directory",
        [
          ring_balance;
          ring_minimal_remap;
          ring_matches_oracle;
          Alcotest.test_case "point/name domains never alias" `Quick
            test_ring_point_name_aliasing;
        ] );
      ( "analysis",
        [ analysis_matches_oracle; wide_analysis_matches_oracle;
          far_analysis_matches_oracle;
          assemble_is_sorted_merge ] );
    ]
