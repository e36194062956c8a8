(* The three workloads, driven from outside the library: build a
   cluster with the shipped options, create the object population,
   then run closed-loop clients as simulated processes and tally what
   every invocation returned.  Inputs come from the workload seed only;
   each cluster gets a seed derived from it. *)

open Eden_util
open Eden_sim
open Eden_kernel

(* ckpt_local is ckpt_mix with every object checkpointing to its home's
   own disk instead of mirroring on the next two nodes; see README.md
   for why both exist. *)
type kind = Hot_invoke | Locate_scale | Ckpt_mix | Ckpt_local

let all = [ Hot_invoke; Locate_scale; Ckpt_mix; Ckpt_local ]

let name = function
  | Hot_invoke -> "hot_invoke"
  | Locate_scale -> "locate_scale"
  | Ckpt_mix -> "ckpt_mix"
  | Ckpt_local -> "ckpt_local"

let chunked = function
  | Ckpt_mix | Ckpt_local -> true
  | Hot_invoke | Locate_scale -> false

let of_name s = List.find_opt (fun k -> name k = s) all

type spec = {
  kind : kind;
  nodes : int;
  objects_per_node : int;
  clients_per_node : int;
  requests_per_client : int;
  think_mean_s : float;  (** 0 = no think time *)
  timeout : Time.t;  (** per attempt; retries follow [Api.default_retry] *)
  streams : int;
      (** independent input streams (each with its own cold cluster)
          pooled into the virtual-time figures *)
}

let spec kind =
  let base =
    { kind; nodes = 8; objects_per_node = 4; clients_per_node = 2;
      requests_per_client = 1000; think_mean_s = 0.0; timeout = Time.s 2;
      streams = 16 }
  in
  match kind with
  | Hot_invoke -> base
  | Locate_scale ->
    { base with nodes = 128; objects_per_node = 64; clients_per_node = 1;
      requests_per_client = 90; think_mean_s = 0.2; streams = 4 }
  | Ckpt_mix | Ckpt_local -> { base with objects_per_node = 8 }

let total_objects s = s.nodes * s.objects_per_node
let total_clients s = s.nodes * s.clients_per_node
let attempts s = total_clients s * s.requests_per_client

(* Stream [sub] of a workload seed drives one round's inputs, and the
   cluster seed is derived from the same pair, so the one seed argument
   reproduces the whole run. *)
let stream kind seed ~sub =
  Splitmix.create
    (Int64.logxor
       (Int64.of_int ((seed * 1024) + sub))
       (Int64.of_int (Hashtbl.hash (name kind))))

let cluster_seed kind seed ~sub =
  Int64.logand (Splitmix.next64 (stream kind seed ~sub)) 0x7fff_ffff_ffffL

(* ------------------------------------------------------------------ *)
(* The object type *)

let chunks = 16
let chunk_bytes = 1024
let payload_blob = 246 (* Pair (Int, Blob 246) sizes to 256 B *)
let compute_us = 50
let chunk stamp = Value.Pair (Value.Int stamp, Value.Blob chunk_bytes)

let initial_repr kind =
  if chunked kind then Value.List (List.init chunks (fun _ -> chunk 0))
  else Value.Unit

let chunk_stamp = function
  | Value.Pair (Value.Int s, Value.Blob n) when n = chunk_bytes -> Some s
  | _ -> None

let chunk_list ctx =
  match ctx.Api.get_repr () with
  | Value.List cs when List.length cs = chunks -> Ok cs
  | _ -> Error (Error.User_error "representation is not a chunk list")

let type_name = "hostbench_obj"

let obj_type =
  let open Api in
  Typemgr.make_exn ~name:type_name
    ~classes:
      (Opclass.one_class ~name:"all"
         ~operations:[ "work"; "read"; "poke"; "save"; "dump"; "set_rel" ]
         ~limit:16)
    [
      Typemgr.operation "work" ~mutates:false (fun ctx args ->
          let* a, b = arg2 args in
          let* us = int_arg b in
          ctx.compute (Time.us us);
          reply [ a ]);
      Typemgr.operation "read" ~mutates:false (fun ctx args ->
          let* v = arg1 args in
          let* i = int_arg v in
          let* cs = chunk_list ctx in
          if i < 0 || i >= chunks then bad_arguments "read: chunk index"
          else reply [ List.nth cs i ]);
      Typemgr.operation "poke" (fun ctx args ->
          let* v, c = arg2 args in
          let* i = int_arg v in
          let* cs = chunk_list ctx in
          if i < 0 || i >= chunks then bad_arguments "poke: chunk index"
          else
            let* () =
              ctx.set_repr
                (Value.List (List.mapi (fun j x -> if j = i then c else x) cs))
            in
            reply_unit);
      Typemgr.operation "save" (fun ctx args ->
          let* () = no_args args in
          let* () = ctx.checkpoint () in
          reply_unit);
      Typemgr.operation "dump" ~mutates:false (fun ctx args ->
          let* () = no_args args in
          reply [ ctx.get_repr () ]);
      Typemgr.operation "set_rel" (fun ctx args ->
          (* [] = the home's own disk; otherwise the listed nodes. *)
          let* sites =
            List.fold_right
              (fun v acc ->
                let* n = int_arg v in
                let* l = acc in
                Ok (n :: l))
              args (Ok [])
          in
          let rel =
            if sites = [] then Reliability.Local else Reliability.Mirrored sites
          in
          let* () = ctx.set_reliability rel in
          reply_unit);
    ]

(* ------------------------------------------------------------------ *)
(* Set-up *)

(* Wrappers around the calls the benchmark makes into the library; the
   traced run records a span in each. *)
type hooks = {
  on_create :
    Cluster.t ->
    (unit -> (Capability.t, Error.t) result) ->
    (Capability.t, Error.t) result;
  on_invoke :
    Cluster.t -> req:int -> (unit -> Api.invoke_result) -> Api.invoke_result;
  on_run : Cluster.t -> (unit -> unit) -> unit;
}

let no_hooks =
  { on_create = (fun _ f -> f ()); on_invoke = (fun _ ~req:_ f -> f ());
    on_run = (fun _ f -> f ()) }

let must what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Error.to_string e)

(* Build the cluster, register the type, create the population and set
   reliability (ckpt_mix mirrors each object on the next two nodes),
   then drain.  Returns the cluster and the capabilities, object [i]
   living on node [i / objects_per_node]. *)
let setup s ~seed ~sub hooks =
  let cl =
    Cluster.default ~seed:(cluster_seed s.kind seed ~sub)
      ~options:Cluster.default_options ~n_nodes:s.nodes ()
  in
  Cluster.register_type cl obj_type;
  let caps = ref [] in
  let _ =
    Cluster.in_process cl ~name:"hostbench.setup" (fun () ->
        for node = 0 to s.nodes - 1 do
          for _ = 1 to s.objects_per_node do
            let cap =
              must "create_object"
                (hooks.on_create cl (fun () ->
                     Cluster.create_object cl ~node ~type_name
                       (initial_repr s.kind)))
            in
            caps := cap :: !caps;
            if chunked s.kind then begin
              let mirror k = Value.Int ((node + k) mod s.nodes) in
              let sites = if s.kind = Ckpt_mix then [ mirror 1; mirror 2 ] else [] in
              ignore
                (must "set_rel"
                   (Cluster.invoke cl ~from:node cap ~op:"set_rel" sites))
            end
          done
        done)
  in
  hooks.on_run cl (fun () -> Cluster.run cl);
  let caps = Array.of_list (List.rev !caps) in
  if Array.length caps <> total_objects s then
    failwith "setup did not create the whole population";
  (cl, caps)

(* ------------------------------------------------------------------ *)
(* The request phase *)

type write = { w_stamp : int; w_issued : int; mutable w_acked : int option }

type tally = {
  mutable attempted : int;
  mutable ok : int;
  mutable failed : int;
  lat : int array;  (** virtual ns of each completed invocation *)
  errors : (string, int) Hashtbl.t;
  mutable problems : string list;  (** correctness failures, newest first *)
  mutable v_start : int;
  mutable v_end : int;
  mutable pokes : int;
  mutable saves : int;
  writes : write list array;  (** chunked workloads: per object * chunk, newest first *)
}

let problem t fmt =
  Printf.ksprintf
    (fun m -> if List.length t.problems < 20 then t.problems <- m :: t.problems)
    fmt

let new_tally s =
  { attempted = 0; ok = 0; failed = 0; lat = Array.make (attempts s) 0;
    errors = Hashtbl.create 8; problems = []; v_start = 0; v_end = 0;
    pokes = 0; saves = 0;
    writes =
      Array.make (if chunked s.kind then total_objects s * chunks else 0) [] }

type request =
  | Work of { obj : int; payload : Value.t }
  | Read of { obj : int; idx : int }
  | Poke of { obj : int; idx : int; stamp : int }
  | Save of { obj : int }

let target = function
  | Work { obj; _ } | Read { obj; _ } | Poke { obj; _ } | Save { obj } -> obj

let other_node rng s home =
  let n = Splitmix.int rng (s.nodes - 1) in
  if n >= home then n + 1 else n

let draw s rng ~home ~rid =
  let on node = (node * s.objects_per_node) + Splitmix.int rng s.objects_per_node in
  let payload = Value.Pair (Value.Int rid, Value.Blob payload_blob) in
  match s.kind with
  | Hot_invoke ->
    let node = if Splitmix.coin rng 0.9 then other_node rng s home else home in
    Work { obj = on node; payload }
  | Locate_scale -> Work { obj = on (other_node rng s home); payload }
  | Ckpt_mix | Ckpt_local ->
    let obj = Splitmix.int rng (total_objects s) in
    let u = Splitmix.float rng 1.0 in
    if u < 0.6 then Read { obj; idx = Splitmix.int rng chunks }
    else if u < 0.9 then Poke { obj; idx = Splitmix.int rng chunks; stamp = rid }
    else Save { obj }

let call = function
  | Work { payload; _ } -> ("work", [ payload; Value.Int compute_us ])
  | Read { idx; _ } -> ("read", [ Value.Int idx ])
  | Poke { idx; stamp; _ } -> ("poke", [ Value.Int idx; chunk stamp ])
  | Save _ -> ("save", [])

(* Stamps a chunk may legally hold: 0 (initial) or one written to it. *)
let known_stamp t ~slot stamp =
  stamp = 0 || List.exists (fun w -> w.w_stamp = stamp) t.writes.(slot)

let check_reply t req ~now = function
  | Error _ -> ()
  | Ok vs -> (
    match (req, vs) with
    | Work { payload; _ }, [ v ] when Value.equal v payload -> ()
    | Work _, _ -> problem t "work reply does not echo its argument"
    | Read { obj; idx }, [ c ] -> (
      match chunk_stamp c with
      | Some st when known_stamp t ~slot:((obj * chunks) + idx) st -> ()
      | _ -> problem t "read of object %d chunk %d returned a foreign chunk" obj idx)
    | Read _, _ -> problem t "read reply is not one chunk"
    | Poke { obj; idx; stamp }, [] ->
      List.iter
        (fun w -> if w.w_stamp = stamp then w.w_acked <- Some now)
        t.writes.((obj * chunks) + idx)
    | Save _, [] -> ()
    | (Poke _ | Save _), _ -> problem t "write reply carries values")

(* One closed-loop client: issue, await, record, think, repeat. *)
let client s cl caps t rng hooks ~home ~cid =
  let eng = Cluster.engine cl in
  let now () = Time.to_ns (Engine.now eng) in
  for i = 0 to s.requests_per_client - 1 do
    if s.think_mean_s > 0.0 then
      Engine.delay (Time.of_sec (Splitmix.exponential rng s.think_mean_s));
    let rid = (cid * s.requests_per_client) + i + 1 in
    let req = draw s rng ~home ~rid in
    let op, args = call req in
    let v0 = now () in
    (match req with
    | Poke { obj; idx; stamp } ->
      t.pokes <- t.pokes + 1;
      let slot = (obj * chunks) + idx in
      t.writes.(slot) <- { w_stamp = stamp; w_issued = v0; w_acked = None } :: t.writes.(slot)
    | Save _ -> t.saves <- t.saves + 1
    | Work _ | Read _ -> ());
    t.attempted <- t.attempted + 1;
    let r =
      hooks.on_invoke cl ~req:rid (fun () ->
          Cluster.invoke cl ~from:home ~timeout:s.timeout
            ~retry:Api.default_retry caps.(target req) ~op args)
    in
    let v1 = now () in
    (match r with
    | Ok _ ->
      t.lat.(t.ok) <- v1 - v0;
      t.ok <- t.ok + 1
    | Error e ->
      t.failed <- t.failed + 1;
      let k = Error.to_string e in
      Hashtbl.replace t.errors k (1 + Option.value ~default:0 (Hashtbl.find_opt t.errors k)));
    check_reply t req ~now:v1 r;
    if v1 > t.v_end then t.v_end <- v1
  done

let request_phase s ~seed ~sub cl caps hooks =
  let t = new_tally s in
  t.v_start <- Time.to_ns (Engine.now (Cluster.engine cl));
  let root = Splitmix.split (stream s.kind seed ~sub) in
  for cid = 0 to total_clients s - 1 do
    let rng = Splitmix.split root in
    let home = cid / s.clients_per_node in
    ignore
      (Cluster.in_process cl ~name:"hostbench.client" (fun () ->
           client s cl caps t rng hooks ~home ~cid))
  done;
  hooks.on_run cl (fun () -> Cluster.run cl);
  t

(* ------------------------------------------------------------------ *)
(* Correctness after the drain *)

(* Every created object is active on exactly one node: each has a
   home, and the nodes' active counts add up to the population plus
   one node object per node. *)
let check_placement s cl caps t =
  Array.iteri
    (fun i cap ->
      if Cluster.where_is cl cap = None then problem t "object %d is active nowhere" i)
    caps;
  let active = ref 0 in
  for n = 0 to s.nodes - 1 do
    active := !active + Cluster.active_objects cl n
  done;
  if !active <> total_objects s + s.nodes then
    problem t "%d active objects on %d nodes, expected %d" !active s.nodes
      (total_objects s + s.nodes)

(* Chunked workloads: each chunk must hold a write no acknowledged write
   provably followed — its last acknowledged write, or a write
   attempted later whose outcome the client never learned. *)
let check_chunks s cl caps t =
  let finals = Array.make (Array.length caps) None in
  let _ =
    Cluster.in_process cl ~name:"hostbench.verify" (fun () ->
        Array.iteri
          (fun i cap ->
            let home = i / s.objects_per_node in
            let rec go k =
              match
                Cluster.invoke cl ~from:home ~timeout:s.timeout
                  ~retry:Api.default_retry cap ~op:"dump" []
              with
              | Ok [ Value.List cs ] -> finals.(i) <- Some cs
              | Ok _ -> ()
              | Error _ when k > 0 -> go (k - 1)
              | Error _ -> ()
            in
            go 5)
          caps)
  in
  Cluster.run cl;
  Array.iteri
    (fun obj final ->
      match final with
      | None -> problem t "object %d could not be read back" obj
      | Some cs ->
        List.iteri
          (fun idx c ->
            let slot = (obj * chunks) + idx in
            let ws = t.writes.(slot) in
            (* Superseded: some acknowledged write was issued after
               [ack], so it reached the object later. *)
            let superseded ack =
              List.exists
                (fun w -> w.w_acked <> None && w.w_issued > ack)
                ws
            in
            let allowed st =
              if st = 0 then not (superseded (t.v_start - 1))
              else
                match List.find_opt (fun w -> w.w_stamp = st) ws with
                | None -> false
                | Some { w_acked = None; _ } -> true
                | Some { w_acked = Some a; _ } -> not (superseded a)
            in
            match chunk_stamp c with
            | Some st when allowed st -> ()
            | _ -> problem t "object %d chunk %d holds a lost or foreign write" obj idx)
          cs)
    finals

let check s cl caps t =
  check_placement s cl caps t;
  if chunked s.kind then check_chunks s cl caps t
