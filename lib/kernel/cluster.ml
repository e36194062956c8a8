open Eden_util
open Eden_sim
open Eden_hw
module Metrics = Eden_obs.Metrics
module Journal = Eden_obs.Journal
module Tracectx = Eden_obs.Tracectx
module Timeline = Eden_obs.Timeline
module Health = Eden_obs.Health
module Topk = Eden_obs.Topk
module Window = Eden_obs.Window

type node_id = int

(* -------------------------------------------------------------------- *)
(* Internal structures *)

(* How to deliver an invocation's result back to its caller. *)
type reply_route =
  | Reply_local of Api.invoke_result Promise.t
  | Reply_remote of { requester : node_id; inv_id : Message.request_id }

type work = {
  w_op : string;
  w_args : Value.t list;
  w_presented : Rights.t;
  w_route : reply_route;
  mutable w_ctx : Tracectx.t option;
      (* the trace context the request arrived with, so the reply (and
         anything else this work causes) extends the same causal chain.
         Its trace is the requester's [Inv_begin], so it also names the
         caller of every invocation the handler makes.
         Mutable because Work_start / Drain_stall journal events
         re-parent the chain through themselves so queue and drain
         residency are visible as gaps on the causal path. *)
}

type obj_status = Running | Draining | Dead

(* A work waiting for a free slot in its invocation class, with the
   operation it resolved to at admission and an admission stamp, so
   works queued in different classes can be handed over in the order
   they arrived. *)
type queued = { q_work : work; q_op : Typemgr.operation; q_stamp : int }

(* One invocation class of an object, in the type's declaration order. *)
type class_slot = {
  cs_limit : int;
  mutable cs_running : int;
  cs_queue : queued Fifo.t;
}

type obj = {
  ob_name : Name.t;
  ob_label : string;  (* [ob_name] rendered once, for names and traces *)
  ob_type : Typemgr.t;
  mutable ob_repr : Value.t;
  mutable ob_frozen : bool;
  mutable ob_reliability : Reliability.t;
  mutable ob_home : node_id;
  mutable ob_status : obj_status;
  ob_is_replica : bool;
  ob_queue : work Mailbox.t;  (* the coordinator's port *)
  ob_stash : work Fifo.t;  (* held while draining for a move *)
  ob_classes : class_slot array;  (* indexed like [Typemgr.classes] *)
  mutable ob_admitted : int;  (* admission stamps handed out *)
  ob_inflight : work Itbl.t;  (* pid -> work being served *)
  mutable ob_running_total : int;
  ob_drained : Condition.t;
  mutable ob_coordinator : Engine.Pid.t option;
  mutable ob_behaviour_pids : Engine.Pid.t list;
  ob_proc_pids : Engine.Pid.t Itbl.t;
      (* live invocation processes and subprocesses, by pid *)
  mutable ob_ctx : Api.ctx option;  (* the kernel interface, built once *)
  mutable ob_sems : (string, Semaphore.t) Hashtbl.t option;
  mutable ob_ports : (string, Value.t Mailbox.t) Hashtbl.t option;
      (* named semaphores and ports; built on first use, as most
         objects never name one *)
  ob_rng : Splitmix.t;
  mutable ob_mem : int;  (* bytes reserved on the current home *)
  mutable ob_ckpt_sites : node_id list;
  mutable ob_ckpt_version : int;
      (* monotonic: bumped at the start of every checkpoint round and
         carried across reincarnations via the snapshot it restores *)
  mutable ob_ckpt_base : (int * Value.t) option;
      (* (version, repr) as of the last checkpoint round — the diff
         base for delta checkpoints.  Values are immutable, so holding
         the old representation is free (structure is shared). *)
  mutable ob_ckpt_acked : (node_id, int) Hashtbl.t option;
      (* highest version each checksite acknowledged; a site at the
         current base version gets a delta, anyone else a full write.
         Built on the first ack. *)
  mutable ob_ckpt_inflight : bool;
      (* a checkpoint round is running; concurrent requests coalesce *)
  mutable ob_ckpt_queued : bool;
      (* a request arrived while in flight: run one follow-up round *)
  ob_ckpt_idle : Condition.t;  (* signalled when the round finishes *)
}

type snapshot = {
  ss_type : string;
  mutable ss_repr : Value.t;
  mutable ss_version : int;
      (* the checkpoint round that wrote this snapshot; reincarnation
         prefers the highest version among reachable checksites *)
  mutable ss_reliability : Reliability.t;
  mutable ss_frozen : bool;
  mutable ss_passive : bool;
      (* true when this snapshot is authoritative: the object is known
         not to be active anywhere *)
}

(* What a requester is waiting for, keyed by sequence number.  The
   boolean on [Inv_result] is the reply's frozen hint: the serving node
   saw the target immutable, so the requester may cache a replica. *)
type inv_outcome = Inv_result of Api.invoke_result * bool | Inv_nacked

type locate_state = {
  mutable loc_candidates : (node_id * Message.residence * int) list;
      (* (site, residence, snapshot version) — version is meaningful
         for passive answers and 0 otherwise *)
  loc_active : (node_id * Message.residence) Promise.t;
      (* filled as soon as an active/replica site answers *)
}

(* One invocation request: the same request id sent to every site it
   fans out to — one site for a plain request, the clone set for a
   speculative read.  The first real result wins (and [fo_from] names
   the site it came from, so losers can be told apart and cancelled);
   nacks are only an answer once every site has nacked. *)
type fanout = {
  fo_pr : inv_outcome Promise.t;
  mutable fo_unnacked : int;  (* sites yet to nack, 1 or more at the start *)
  mutable fo_from : node_id;  (* the site whose answer filled [fo_pr] *)
}

type pending =
  | P_fanout of fanout
  | P_locate of locate_state
  | P_reply of Message.t Promise.t
      (* any other request: filled with the one reply message that
         echoes its id (a create, move, replica, checkpoint, cache or
         directory reply); the requester decodes it *)

(* One name's record at its registry shard: the last published home,
   the replica sites accumulated across publishes, and the publish
   stamp (virtual-time ns).  Stamps are monotonic per name — a
   delayed or duplicated pre-move publish can never regress the entry
   — and double as the lease: an entry older than [dir_lease_ttl] is
   dropped rather than served. *)
type dir_entry = {
  mutable de_home : node_id;
  mutable de_replicas : node_id list;
  mutable de_lease : int;
}

type node = {
  nd_id : node_id;
  nd_machine : Machine.t;
  nd_tp : Transport.t;
  mutable nd_up : bool;
  mutable nd_disk_ok : bool;
      (* false while the checkpoint store is failed: snapshots can
         neither be written nor read, so this node refuses checkpoint
         writes, reincarnations and passive locate answers *)
  mutable nd_mem : Memory.t;
  nd_active : obj Name.Table.t;
  nd_replicas : obj Name.Table.t;
  nd_cache : obj Name.Table.t;
      (* node-local frozen-replica cache: representations fetched on a
         frozen-hinted reply and served locally from then on.  Entries
         are hints in Lampson's sense — capabilities still validate on
         every use, and the nack path invalidates. *)
  nd_fetching : unit Name.Table.t;  (* cache fetches in flight *)
  nd_cache_epoch : int Name.Table.t;
      (* per-name invalidation generation: bumped whenever the name's
         cached representation is invalidated (unfreeze, nack,
         destroy).  A fetch snapshots the epoch before it asks and
         discards its payload if the epoch moved while the reply was
         in flight, so a delayed [Cache_data] can never install a
         stale pre-invalidation replica. *)
  nd_store : snapshot Name.Table.t;  (* survives node crashes *)
  nd_hints : node_id Name.Table.t;
  nd_forward : node_id Name.Table.t;  (* objects that moved away *)
  nd_activating : (obj, Error.t) result Promise.t Name.Table.t;
  nd_locating : (node_id * Message.residence) option Promise.t Name.Table.t;
      (* coalesces concurrent locate broadcasts for one name *)
  nd_pending : pending Itbl.t;
  nd_seq : Idgen.t;
  mutable nd_rtt : Rtt.t;
      (* how long active answers to this node's locate broadcasts take:
         opens each locate's reply window (volatile; reset on crash) *)
  nd_located_at : int array;
      (* the send times of this node's recent locate broadcasts, so an
         answer that outlives its window still feeds [nd_rtt]: slot
         [seq land (locate_slots - 1)] holds the pair (seq, send ns) at
         [2i] and [2i + 1], seq -1 when the slot is free *)
  nd_clone_sites : node_id list Name.Table.t;
      (* replica sites learned from locate answers and frozen-hinted
         replies: the clone set for speculative reads.  Hints in
         Lampson's sense — a stale site just nacks its clone, which
         also evicts the entry *)
  nd_recent : Dedup.t;
      (* serving-side idempotence bookkeeping: recently seen request
         ids and what became of them, so duplicated, hedged and
         cancelled clones never double-apply (volatile; reset on
         crash) *)
  nd_types_loaded : (string, unit) Hashtbl.t;
  nd_kprocs : Engine.Pid.t Itbl.t;  (* live kernel processes, by pid *)
  mutable nd_ckpt_async : int;
      (* asynchronous checkpoint pipelines currently in flight from
         this node (the eden.ckpt.async_inflight gauge) *)
  nd_journal : Journal.t;
      (* this node's event journal; survives crashes (it is observer
         state, not node state) *)
  nd_dir : dir_entry Name.Table.t;
      (* the registry shard this node serves: entries for every name
         whose ring position lands here.  Volatile — a crash empties
         it, and requesters fall back to broadcast and republish. *)
  mutable nd_epoch : int;
      (* this node's membership view: the epoch of the newest
         [Epoch_announce] it has applied (or initiated).  May lag the
         cluster epoch while an announce is in flight; invariant 7
         checks it only ever moves forward. *)
  mutable nd_draining : bool;
      (* decommission in progress: the node still serves traffic, but
         drain evacuation and the migration policy must not choose it
         as a destination *)
}

type options = {
  use_hint_cache : bool;
  use_forwarding : bool;
  coalesce_locates : bool;
  use_replica_cache : bool;
  use_ckpt_delta : bool;
  speculate : Api.speculate;
  use_directory : bool;
}

let default_options =
  {
    use_hint_cache = true;
    use_forwarding = true;
    coalesce_locates = true;
    use_replica_cache = false;
    use_ckpt_delta = false;
    speculate = Api.no_speculation;
    use_directory = false;
  }

(* Owned per-node counters on the invocation hot path (the sampled
   collectors for hardware and network live in [register_collectors]). *)
type node_metrics = {
  m_inv : Metrics.counter;  (* invocations issued from this node *)
  m_remote : Metrics.counter;  (* requests that crossed the wire *)
  m_dispatch : Metrics.counter;  (* works admitted by coordinators here *)
  m_hint_hit : Metrics.counter;
  m_hint_miss : Metrics.counter;
  m_locates : Metrics.counter;  (* locate broadcasts issued *)
  m_nacks : Metrics.counter;  (* nacked requests (stale location) *)
  m_ckpts : Metrics.counter;  (* snapshots written on this node's disk *)
  m_ckpt_bytes : Metrics.counter;
  m_retries : Metrics.counter;  (* timed-out attempts re-issued *)
  m_recoveries : Metrics.counter;  (* successful reincarnations here *)
  m_orphans : Metrics.counter;  (* replies that arrived after timeout *)
  m_cache_hit : Metrics.counter;  (* invocations served by the replica cache *)
  m_cache_miss : Metrics.counter;  (* frozen-hinted replies with no entry *)
  m_cache_inval : Metrics.counter;  (* cached replicas dropped *)
  m_ckpt_delta_bytes : Metrics.counter;
      (* checkpoint payload shipped as deltas from this home node *)
  m_ckpt_full_bytes : Metrics.counter;  (* ... as full representations *)
  m_ckpt_fallbacks : Metrics.counter;
      (* delta writes nacked (version mismatch / lost base) and
         re-sent as full writes *)
  m_ckpt_coalesced : Metrics.counter;
      (* checkpoint requests folded into an in-flight round *)
  m_clone_fanouts : Metrics.counter;
      (* speculative fan-outs issued from this node *)
  m_clone_cancels : Metrics.counter;  (* cancellations sent to losers *)
  m_hedges : Metrics.counter;  (* hedged retries fired from this node *)
  m_dedup : Metrics.counter;
      (* duplicate requests dropped by the idempotence table here *)
  m_retracted : Metrics.counter;
      (* queued work dropped unexecuted because a cancel arrived *)
  m_dir_hits : Metrics.counter;
      (* locates resolved by a directory answer from this requester *)
  m_dir_misses : Metrics.counter;
      (* lookups this shard answered with "no valid entry" *)
  m_dir_nacks : Metrics.counter;
      (* directory-routed sends nacked by a stale home (requester) *)
  m_dir_fallbacks : Metrics.counter;
      (* attempts that gave up on the directory and broadcast *)
  m_dir_leases : Metrics.counter;
      (* expired entries dropped by this shard at lookup time *)
  m_epoch_bumps : Metrics.counter;
      (* membership view advances applied on this node *)
  m_drain_moves : Metrics.counter;
      (* objects evacuated from this node by a decommission drain *)
}

(* The health plane, present only when [Cluster.create ~health] asked
   for it: the SLO evaluator plus one hot-object sketch per node, fed
   from the invocation and locate paths. *)
type health_plane = {
  hp_health : Health.t;
  hp_topk : Topk.t array;  (* indexed by node id *)
}

(* Per-node sketch size: large enough that every object of the bench
   and chaos workloads is tracked exactly, small enough that the
   eviction min-scan stays trivial.  The space-saving error bound is
   total/capacity, so doubling this halves the worst-case
   over-estimate. *)
let topk_capacity = 64

(* Cluster-wide remote round-trip telemetry for hedged retries: the
   requester path bumps the open tick's bucket count per observed RTT
   and an engine sampler closes one tick at a time into a sliding
   {!Window.Hist}, exactly the windowed-quantile machinery the health
   plane's burn-rate rules use.  The hedge threshold is then a live
   quantile of recent RTTs rather than a guessed constant. *)
type hedge_state = {
  hs_hist : Window.Hist.h;
  hs_tick : int array;  (* per-bucket observations in the open tick *)
  mutable hs_tick_over : int;
}

type t = {
  eng : Engine.t;
  c_lan : Transport.net;
  nodes : node array;
  types : (string, Typemgr.t) Hashtbl.t;
  c_rng : Splitmix.t;
  opts : options;
  mutable c_node_objects : Capability.t array;
      (* one kernel-created node object per node, fixed names *)
  mutable n_inv : int;
  c_metrics : Metrics.t;
  c_lat : Metrics.histogram;  (* end-to-end invocation latency, seconds *)
  c_nm : node_metrics array;
  c_jsink : Journal.sink;  (* shared event-id allocator for all journals *)
  c_labels : string Name.Table.t;
      (* each invoked name rendered once ("obj<B.S>"), shared by its
         journal events and hot-object sketch *)
  mutable c_health : health_plane option;
  c_hedge : hedge_state option;  (* present iff hedging is enabled *)
  c_dir : Directory.t Lazy.t;
      (* the consistent-hash ring mapping names to registry shards at
         the boot membership (epoch 0); a pure function of the member
         set, shared by all nodes.  Built on first lookup, so a
         cluster with the directory off never pays for it. *)
  mutable c_epoch : int;
      (* the newest membership epoch any node has initiated; bumped by
         join and decommission.  Epoch 0 is the boot membership. *)
  mutable c_members : node_id list;
      (* ring members at [c_epoch], ascending.  Spares are powered
         nodes outside this list: reachable over the LAN, but owning
         no ring segment until a join admits them. *)
  c_rings : (int, Directory.t Lazy.t) Hashtbl.t;
      (* epoch -> the ring for that membership, captured at bump time
         and built on first lookup, so a node serving through an old
         view keeps resolving against the exact ring its view names *)
  c_make_ctx : t -> obj -> Api.ctx;
      (* [make_ctx]: type code calls back into the invocation and
         mobility paths, which are defined after the code that builds
         objects *)
}

(* The floor of a locate's first reply window: what a node opens with
   before any answer has been measured, and whenever answers come back
   faster than this. *)
let locate_window = Time.ms 3
let locate_retries = 3
let locate_slots = 64

(* Per-node journal ring size.  Generous enough that the chaos suite
   never wraps (wrapping only degrades trace completeness, it is not
   an error), small enough that the rings cycle within the cache: E20
   shows the journal's hot-path cost is dominated by the ring's cache
   footprint, and quadrupling this cap roughly doubles the overhead.
   [~journal_cap:0] disables retention entirely. *)
let default_journal_cap = 4096

(* Checkpoint/move/replica acknowledgements: generous enough for a
   megabyte representation to cross the wire and settle on an era disk
   (~1 MB/s at best), tight enough to detect a dead peer. *)
let ack_timeout = Time.s 15
let max_hops = 8

(* Invocation latencies span 10us local fast paths to multi-second
   locate-retry storms: log-spaced 1-3-10 bucket bounds, in seconds. *)
let latency_buckets =
  [| 1e-5; 3e-5; 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 0.1; 0.3; 1.0; 3.0; 10.0 |]

(* Hedge telemetry window: 1000 one-millisecond ticks.  The window
   must out-span a degradation episode, or the quantile chases the
   inflated latencies — each slow reply pushes the threshold past the
   next, and hedging disarms itself exactly when it is needed.  A
   second of history keeps the healthy baseline in the estimate. *)
let hedge_tick = Time.ms 1
let hedge_ticks = 1000

(* Serving-side idempotence table size.  Bounds memory, not
   correctness: sequence numbers are never reissued, so eviction can
   only let a duplicate re-execute, never drop a fresh request. *)
let dedup_cap = 8192

(* Lease on cancelled-only dedup entries.  A cancel that arrives for a
   request this node never saw leaves a tombstone whose only job is to
   swallow that request should it still show up; one virtual second
   out-lives any urgent-cancel / queued-request race by orders of
   magnitude.  Expiring them keeps a drop-heavy run from filling the
   table with dead keys and evicting entries that still guard real
   in-flight duplicates. *)
let dedup_ttl = Time.s 1

exception Fatal of string
(* Internal invariant violations surface loudly instead of corrupting
   the simulation. *)

(* -------------------------------------------------------------------- *)
(* Small helpers *)

let ( let* ) = Result.bind

let node_of cl i =
  if i < 0 || i >= Array.length cl.nodes then
    invalid_arg (Printf.sprintf "Cluster: no such node %d" i)
  else cl.nodes.(i)

(* A node named by a caller, for moving or replicating an object to. *)
let node_in_range cl i =
  if i < 0 || i >= Array.length cl.nodes then
    Error (Error.Move_refused "no such node")
  else Ok ()

let costs node = (Machine.config node.nd_machine).Machine.costs
let cpu node = Machine.cpu node.nd_machine
let consume node t = Cpu.consume (cpu node) t
let home cl obj = cl.nodes.(obj.ob_home)

let nm cl (node : node) = cl.c_nm.(node.nd_id)

(* The [Inv_begin] id of the invocation served by the calling
   process, if it is one of [obj]'s invocation processes, else [-1]:
   the caller of a nested invocation. *)
let current_caller cl obj =
  match Engine.running cl.eng with
  | Some pid -> (
    match Itbl.find_opt obj.ob_inflight (Engine.Pid.to_int pid) with
    | Some { w_ctx = Some c; _ } -> Tracectx.trace c
    | Some { w_ctx = None; _ } | None -> -1)
  | None -> -1

let next_seq node = Idgen.next node.nd_seq

let new_request_id node =
  { Message.origin = node.nd_id; seq = next_seq node }

let add_pending node seq p = Itbl.replace node.nd_pending seq p

let deadline_of ?timeout eng =
  Option.map (fun d -> Time.add (Engine.now eng) d) timeout

let remaining eng = function
  | None -> None
  | Some dl ->
    let now = Engine.now eng in
    Some (if Time.(dl > now) then Time.diff dl now else Time.zero)

(* The running process leaves [tbl]: called by a tracked process as
   its body returns or raises. *)
let untrack cl tbl =
  match Engine.running cl.eng with
  | Some p -> Itbl.remove tbl (Engine.Pid.to_int p)
  | None -> ()

let track tbl pid = Itbl.replace tbl (Engine.Pid.to_int pid) pid

(* Spawn a daemon listed in [tbl] for as long as its body runs, so a
   crash or move finds exactly the live ones to kill.  Every kill path
   empties the table before it kills, which covers the one exit the
   body never sees: a kill before the process starts. *)
let spawn_tracked cl tbl ~name f =
  let pid =
    Engine.spawn cl.eng ~name (fun () ->
        match f () with
        | () -> untrack cl tbl
        | exception e ->
          untrack cl tbl;
          raise e)
  in
  Engine.set_daemon cl.eng pid;
  track tbl pid;
  pid

let spawn_kproc cl node ~name f = spawn_tracked cl node.nd_kprocs ~name f

(* Empty a pid table and return its processes newest first (descending
   pid: pids grow with spawn order), the order crash, move and node
   failure kill in. *)
let take_pids tbl =
  let pids = Itbl.fold (fun _ p acc -> p :: acc) tbl [] in
  Itbl.reset tbl;
  List.sort (fun a b -> Engine.Pid.compare b a) pids

(* A name's printed form, rendered on first use and shared after.  A
   label is old by the time it is reused, so the journal rings that
   keep it cost the minor collector nothing. *)
let label cl name =
  match Name.Table.find cl.c_labels name with
  | l -> l
  | exception Not_found ->
    let l = Name.to_string name in
    Name.Table.add cl.c_labels name l;
    l

let jrecord cl node ?ctx kind =
  Journal.record node.nd_journal ~at:(Engine.now cl.eng) ?ctx kind

(* Journal the send and derive the envelope context: the message's
   parent is the send event itself, and its trace is the caller's (or a
   fresh trace rooted at the send when the caller has none). *)
let send_ctx cl node ?ctx msg ~dst =
  let s =
    Journal.record_send node.nd_journal ~at:(Engine.now cl.eng) ~ctx ~dst
      ~code:(Message.journal_code msg) ~name:(Message.journal_name msg)
      ~arg:(Message.journal_arg msg) ~str:(Message.journal_str msg)
  in
  match ctx with
  | Some c -> Tracectx.with_parent c ~parent:s
  | None -> Tracectx.root s

let send_msg ?ctx cl node ~dst msg =
  if node.nd_up && dst <> node.nd_id then begin
    let ctx = send_ctx cl node ?ctx msg ~dst:(Some dst) in
    Transport.send node.nd_tp ~dst (Message.traced ~ctx msg)
  end

(* Urgent unicast: flushes any coalescing batch queued for [dst] ahead
   of itself, so a cancellation never rides behind — or worse, inside
   the same wire transfer as — the very work it retracts. *)
let send_msg_now ?ctx cl node ~dst msg =
  if node.nd_up && dst <> node.nd_id then begin
    let ctx = send_ctx cl node ?ctx msg ~dst:(Some dst) in
    Transport.send_now node.nd_tp ~dst (Message.traced ~ctx msg)
  end

let bcast_msg ?ctx cl node msg =
  if node.nd_up then begin
    let ctx = send_ctx cl node ?ctx msg ~dst:None in
    Transport.broadcast node.nd_tp (Message.traced ~ctx msg)
  end

(* ---- Request/reply: one reply slot per outstanding request ---- *)

(* A fresh request id with a reply slot registered under it. *)
let expect cl node =
  let req_id = new_request_id node in
  let pr = Promise.create cl.eng in
  add_pending node req_id.Message.seq (P_reply pr);
  (req_id, pr)

(* [expect], then send the request [mk] builds around the id. *)
let request ?ctx cl node ~dst mk =
  let ((req_id, _) as slot) = expect cl node in
  send_msg ?ctx cl node ~dst (mk req_id);
  slot

(* Wait for the slot's reply ([None] on timeout), then drop the slot. *)
let await_reply ?timeout node (req_id, pr) =
  let r = Promise.await ?timeout pr in
  Itbl.remove node.nd_pending req_id.Message.seq;
  r

(* A reply reached a request that expects another kind of message. *)
let wrong_reply () = raise (Fatal "pending kind mismatch for reply")

(* Hand a reply to the request it echoes.  A reply that outlived its
   request's timeout finds no slot and is dropped. *)
let reply node (req_id : Message.request_id) msg =
  match Itbl.find_opt node.nd_pending req_id.seq with
  | Some (P_reply pr) ->
    Itbl.remove node.nd_pending req_id.seq;
    ignore (Promise.fill pr msg)
  | Some (P_fanout _ | P_locate _) -> wrong_reply ()
  | None -> ()

(* ---- Hedge telemetry (see {!hedge_state}) ---- *)

let hedge_observe cl rtt =
  match cl.c_hedge with
  | None -> ()
  | Some hs ->
    let s = float_of_int (Time.to_ns rtt) /. 1e9 in
    let n = Array.length latency_buckets in
    let rec idx i =
      if i >= n || s <= latency_buckets.(i) then i else idx (i + 1)
    in
    let i = idx 0 in
    if i = n then hs.hs_tick_over <- hs.hs_tick_over + 1
    else hs.hs_tick.(i) <- hs.hs_tick.(i) + 1

(* [Window.Hist.push] copies the counts, so the open tick is reused. *)
let hedge_close_tick hs =
  Window.Hist.push hs.hs_hist ~counts:hs.hs_tick ~overflow:hs.hs_tick_over;
  Array.fill hs.hs_tick 0 (Array.length hs.hs_tick) 0;
  hs.hs_tick_over <- 0

(* The wait after which a hedged retry fires, or [None] while the
   estimator has nothing to stand on.  An empty window estimates [nan]
   — hedging only starts once real round trips have been observed. *)
let hedge_threshold cl =
  match cl.c_hedge with
  | None -> None
  | Some hs ->
    let q = cl.opts.speculate.Api.sp_quantile in
    let v = Window.Hist.quantile_last hs.hs_hist hedge_ticks q in
    if Float.is_nan v || v <= 0.0 then None
    else Some (Time.ns (int_of_float (v *. 1e9)))

(* -------------------------------------------------------------------- *)
(* The sharded locate directory.

   A consistent-hash ring ({!Directory}) assigns every name a registry
   shard: the node recording the name's current home and known replica
   sites.  A requester with no hint asks the shard with one unicast
   instead of broadcasting; every event that changes an object's home
   — creation, reincarnation, move (and through it the migration
   policy) — publishes a lease-stamped update to the shard.  The
   registry is a hint layer, never an authority: a stale entry is
   detected by the home's own nack (NACK-on-wrong-home, the replica
   cache's lazy-invalidation discipline), and every failure of the
   directory — miss, expired lease, dead shard, stale answer — falls
   back to the broadcast locate, which remains the ground truth and
   repairs the registry as a side effect. *)

(* How long a requester waits for the shard's answer before falling
   back to broadcast; the broadcast locate's floor window, so a dead
   shard costs one window, not a retry ladder. *)
let dir_window = Time.ms 3

(* An entry this much older than its last publish is dropped rather
   than served: a home that died without handing the object anywhere
   republishes on reincarnation, and anything it failed to republish
   ages out instead of misdirecting requesters forever. *)
let dir_lease_ttl = Time.s 10

let dir_enabled cl = cl.opts.use_directory

(* The ring a given membership view resolves against.  Each epoch's
   member list is captured at bump time, so every view a node can hold
   names its exact ring; the boot ring backs epoch 0.  A ring is built
   the first time a lookup forces it. *)
let ring_of cl view =
  Lazy.force
    (if view <= 0 then cl.c_dir
     else
       match Hashtbl.find_opt cl.c_rings view with
       | Some r -> r
       | None -> cl.c_dir)

(* The registry shard [viewer] talks to for [name]: the owner under
   the viewer's membership view, detouring past powered-off owners to
   the next live ring point.  Publisher and requester compute the same
   detour, so entries published while a shard is down are findable at
   its stand-in.  Before the detour, a crashed shard stayed pinned in
   the ring: every lookup of a name it owned burned the full directory
   window against a dead node and fell back to broadcast — one wasted
   round trip per touch, forever.  Minimal-remap makes the detour and
   reconfiguration agree: a decommissioned node's ring points are
   exactly the ones removed at the next epoch, so an old view skipping
   the dead owner lands on the same shard the new ring names. *)
let dir_shard cl (viewer : node) name =
  Directory.shard_skipping
    (ring_of cl viewer.nd_epoch)
    ~down:(fun id -> not cl.nodes.(id).nd_up)
    name

let dir_lease_valid cl lease =
  Time.to_ns (Engine.now cl.eng) - lease <= Time.to_ns dir_lease_ttl

(* Store an update at the shard.  Publish stamps are monotonic per
   name; a same-home update unions replica knowledge (capped like the
   clone set), a home change restates it. *)
let dir_store node ~target ~home ~replicas ~lease =
  match Name.Table.find_opt node.nd_dir target with
  | Some e when lease < e.de_lease -> ()
  | Some e ->
    if e.de_home = home then
      List.iter
        (fun s ->
          if (not (List.mem s e.de_replicas)) && List.length e.de_replicas < 8
          then e.de_replicas <- s :: e.de_replicas)
        replicas
    else begin
      e.de_home <- home;
      e.de_replicas <- replicas
    end;
    e.de_lease <- lease
  | None ->
    Name.Table.replace node.nd_dir target
      { de_home = home; de_replicas = replicas; de_lease = lease }

(* Publish [target]'s location to its registry shard, stamped with the
   current virtual time.  Fire-and-forget: a lost publish only costs
   the next requester a broadcast. *)
let dir_publish ?ctx cl node target ~home ~replicas =
  if dir_enabled cl && node.nd_up then begin
    let pub =
      jrecord cl node ?ctx
        (Journal.Dir_publish { target = label cl target; home })
    in
    let ctx =
      match ctx with
      | Some c -> Tracectx.with_parent c ~parent:pub
      | None -> Tracectx.root pub
    in
    let lease = Time.to_ns (Engine.now cl.eng) in
    let shard = dir_shard cl node target in
    if shard = node.nd_id then dir_store node ~target ~home ~replicas ~lease
    else
      send_msg ~ctx cl node ~dst:shard
        (Message.Dir_put
           { req_id = new_request_id node; target; home; replicas; lease })
  end

(* NACK-on-wrong-home: the home the shard named refused to serve, so
   tell the shard.  The shard drops the entry only if it still names
   [stale_home] — a newer publish that already repaired it wins. *)
let dir_invalidate ?ctx cl node target ~stale_home =
  let shard = dir_shard cl node target in
  if shard = node.nd_id then (
    match Name.Table.find_opt node.nd_dir target with
    | Some e when e.de_home = stale_home -> Name.Table.remove node.nd_dir target
    | Some _ | None -> ())
  else
    send_msg ?ctx cl node ~dst:shard
      (Message.Dir_nack
         { req_id = new_request_id node; target; home = stale_home })

(* Ask [target]'s registry shard where it lives.  A [`Hit] is a hint,
   not an authority — it is trusted for exactly one send, and the
   home's nack falls back to broadcast.  [`Dead] is a shard that never
   answered (down, partitioned, or just slow): same fallback. *)
let dir_resolve ?ctx cl node target ~deadline =
  let shard = dir_shard cl node target in
  if shard = node.nd_id then (
    (* This node is the shard: consult the registry in place. *)
    match Name.Table.find_opt node.nd_dir target with
    | Some e when dir_lease_valid cl e.de_lease -> `Hit (e.de_home, e.de_replicas)
    | Some _ ->
      Name.Table.remove node.nd_dir target;
      Metrics.incr (nm cl node).m_dir_leases;
      Metrics.incr (nm cl node).m_dir_misses;
      `Miss
    | None ->
      Metrics.incr (nm cl node).m_dir_misses;
      `Miss)
  else begin
    let slot =
      request ?ctx cl node ~dst:shard (fun req_id ->
          Message.Dir_get { req_id; target; reply_to = node.nd_id })
    in
    let window =
      match remaining cl.eng deadline with
      | Some left when Time.(left < dir_window) -> left
      | Some _ | None -> dir_window
    in
    match await_reply ~timeout:window node slot with
    | Some (Message.Dir_put { home; replicas; _ }) -> `Hit (home, replicas)
    | Some (Message.Dir_nack _) -> `Miss
    | Some _ -> wrong_reply ()
    | None -> `Dead
  end

(* The kernel interface of [obj], built on first use (see [make_ctx]). *)
let obj_ctx cl obj =
  match obj.ob_ctx with
  | Some ctx -> ctx
  | None ->
    let ctx = cl.c_make_ctx cl obj in
    obj.ob_ctx <- Some ctx;
    ctx

(* -------------------------------------------------------------------- *)
(* Delivering replies *)

let resolve_inv_pending cl node ~src seq outcome =
  match Itbl.find_opt node.nd_pending seq with
  | Some (P_fanout fo) ->
    (* First real result wins the fan-out.  A nack is one site's
       refusal, not an answer — only unanimity resolves the race. *)
    let answered =
      match outcome with
      | Inv_result _ -> true
      | Inv_nacked ->
        fo.fo_unnacked <- fo.fo_unnacked - 1;
        fo.fo_unnacked = 0
    in
    if answered then begin
      Itbl.remove node.nd_pending seq;
      fo.fo_from <- src;
      ignore (Promise.fill fo.fo_pr outcome)
    end
  | Some (P_locate _ | P_reply _) ->
    raise (Fatal "pending kind mismatch for invocation reply")
  | None -> (
    (* Late reply after the requester gave up (or after a faster clone
       already won): the operation may have executed, but nobody is
       listening — the paper's orphan. *)
    match outcome with
    | Inv_result _ -> Metrics.incr (nm cl node).m_orphans
    | Inv_nacked -> ())

(* Answer a request served at [node]; [frozen] is the reply's frozen
   hint.  A remote requester on this very node (the object moved to it
   mid-request) is resolved in place. *)
let deliver_reply ?ctx cl node ~frozen route result =
  match route with
  | Reply_local pr -> ignore (Promise.fill pr result)
  | Reply_remote { requester; inv_id } ->
    if requester = node.nd_id then
      resolve_inv_pending cl node ~src:node.nd_id inv_id.Message.seq
        (Inv_result (result, frozen))
    else
      send_msg ?ctx cl node ~dst:requester
        (Message.Inv_reply { inv_id; result; frozen_hint = frozen })

let fail_work cl obj w error =
  deliver_reply ?ctx:w.w_ctx cl (home cl obj) ~frozen:obj.ob_frozen w.w_route
    (Error error)

(* -------------------------------------------------------------------- *)
(* The coordinator: dispatching invocations inside an object *)

(* Retraction point: the moment queued work would become an invocation
   process is the last chance for a cancellation to matter.  Local work
   is never speculative; remote work transitions its idempotence entry
   to Started here — or is dropped, if a cancel got there first. *)
let work_retracted node w =
  match w.w_route with
  | Reply_local _ -> false
  | Reply_remote { inv_id; _ } -> (
    match Dedup.start node.nd_recent inv_id with
    | `Run -> false
    | `Retracted -> true)

(* The body of an invocation process, serving [w] as process [id]. *)
let serve_work cl obj node op w id =
  (* Mark the instant execution actually begins — the gap back to the
     triggering receive (or stall) is queue residency — and re-parent
     the work's causal chain through the mark so the reply extends
     it. *)
  (match w.w_ctx with
  | Some c ->
    let ws = jrecord cl node ~ctx:c (Journal.Work_start { op = w.w_op }) in
    w.w_ctx <- Some (Tracectx.with_parent c ~parent:ws)
  | None -> ());
  Itbl.replace obj.ob_inflight id w;
  let result =
    try op.Typemgr.op_handler (obj_ctx cl obj) w.w_args with
    | Engine.Killed as e -> raise e
    | Engine.Stalled_waiting as e -> raise e
    | exn -> Error (Error.User_error (Printexc.to_string exn))
  in
  Itbl.remove obj.ob_inflight id;
  deliver_reply ?ctx:w.w_ctx cl (home cl obj) ~frozen:obj.ob_frozen w.w_route
    result

let rec start_invocation cl obj slot op w =
  let node = home cl obj in
  if work_retracted node w then begin
    Metrics.incr (nm cl node).m_retracted;
    (* Dropped unexecuted; give the slot to the next queued work. *)
    match Fifo.pop slot.cs_queue with
    | Some next -> start_invocation cl obj slot next.q_op next.q_work
    | None -> ()
  end
  else start_invocation_admitted cl obj slot op w

and start_invocation_admitted cl obj slot op w =
  let node = home cl obj in
  slot.cs_running <- slot.cs_running + 1;
  obj.ob_running_total <- obj.ob_running_total + 1;
  (* Creating the invocation process is the 432's expensive step. *)
  consume node (costs node).Costs.process_create_cpu;
  let pid =
    Engine.spawn cl.eng
      ~name:(obj.ob_label ^ "." ^ w.w_op)
      (fun () ->
        let id =
          match Engine.running cl.eng with
          | Some p -> Engine.Pid.to_int p
          | None -> assert false
        in
        match serve_work cl obj node op w id with
        | () -> finish_invocation cl obj slot id
        | exception e ->
          finish_invocation cl obj slot id;
          raise e)
  in
  track obj.ob_proc_pids pid

and finish_invocation cl obj slot id =
  Itbl.remove obj.ob_proc_pids id;
  Itbl.remove obj.ob_inflight id;
  slot.cs_running <- slot.cs_running - 1;
  obj.ob_running_total <- obj.ob_running_total - 1;
  Condition.broadcast obj.ob_drained;
  match obj.ob_status with
  | Running -> (
    match Fifo.pop slot.cs_queue with
    | Some next -> start_invocation cl obj slot next.q_op next.q_work
    | None -> ())
  | Draining | Dead -> ()

(* Validation and class admission for one incoming work item. *)
let coordinator_admit cl obj w =
  let node = home cl obj in
  Metrics.incr (nm cl node).m_dispatch;
  consume node (costs node).Costs.invoke_dispatch_cpu;
  match obj.ob_status with
  | Dead -> fail_work cl obj w Error.Object_crashed
  | Draining ->
    (* The request is about to sit behind a draining object; mark the
       stall (and re-parent through it) so the wait until reactivation
       is attributed to drain, not plain queueing. *)
    (match w.w_ctx with
    | Some c ->
      let ds =
        jrecord cl node ~ctx:c (Journal.Drain_stall { target = obj.ob_label })
      in
      w.w_ctx <- Some (Tracectx.with_parent c ~parent:ds)
    | None -> ());
    Fifo.push_exn obj.ob_stash w
  | Running -> (
    match Typemgr.resolve obj.ob_type w.w_op with
    | None -> fail_work cl obj w (Error.No_such_operation w.w_op)
    | Some (op, class_index) ->
      if not (Rights.subset op.Typemgr.required_rights w.w_presented) then
        fail_work cl obj w (Error.Rights_violation w.w_op)
      else if obj.ob_frozen && op.Typemgr.mutates then
        fail_work cl obj w Error.Frozen_immutable
      else begin
        let slot = obj.ob_classes.(class_index) in
        if slot.cs_running < slot.cs_limit then
          start_invocation cl obj slot op w
        else begin
          let stamp = obj.ob_admitted in
          obj.ob_admitted <- stamp + 1;
          Fifo.push_exn slot.cs_queue { q_work = w; q_op = op; q_stamp = stamp }
        end
      end)

let coordinator_loop cl obj () =
  let rec loop () =
    match Mailbox.recv obj.ob_queue with
    | None -> loop ()
    | Some w ->
      coordinator_admit cl obj w;
      loop ()
  in
  loop ()

let spawn_coordinator cl obj =
  let pid =
    Engine.spawn cl.eng
      ~name:("coord:" ^ obj.ob_label)
      (coordinator_loop cl obj)
  in
  Engine.set_daemon cl.eng pid;
  obj.ob_coordinator <- Some pid

let spawn_behaviours cl obj =
  if not obj.ob_is_replica then
    List.iter
      (fun b ->
        let pid =
          Engine.spawn cl.eng
            ~name:(Printf.sprintf "%s!%s" obj.ob_label b.Typemgr.b_name)
            (fun () -> b.Typemgr.b_body (obj_ctx cl obj))
        in
        Engine.set_daemon cl.eng pid;
        obj.ob_behaviour_pids <- pid :: obj.ob_behaviour_pids)
      (Typemgr.behaviours obj.ob_type)

(* -------------------------------------------------------------------- *)
(* Memory and type-code loading *)

(* A crash replaces a node's [nd_mem], and every reservation made in
   the old one dies with it.  Work that reserves memory and then blocks
   checks, before it registers anything, that the memory it reserved
   in is still its node's: otherwise the node crashed (and perhaps
   restarted) meanwhile, and the work fails as [Node_down]. *)
let load_type_code node tm =
  let tname = Typemgr.name tm in
  if Hashtbl.mem node.nd_types_loaded tname then Ok ()
  else begin
    let bytes = Typemgr.code_bytes tm and mem = node.nd_mem in
    match Memory.reserve mem bytes with
    | Error `Out_of_memory -> Error Error.Out_of_memory
    | Ok () ->
      (* Code segments come off the local disk (or, on a diskless
         node, would come from a file server; we model a local read). *)
      Disk.read (Machine.disk node.nd_machine) ~bytes;
      if node.nd_mem != mem then Error Error.Node_down
      else begin
        Hashtbl.replace node.nd_types_loaded tname ();
        Ok ()
      end
  end

let object_footprint tm repr =
  Value.size_bytes repr + Typemgr.short_term_bytes tm

(* The admission check every path that brings an object into a node's
   memory makes: the type is registered, its code is loaded here, and
   the object's footprint is reserved.  Returns the type, the bytes
   reserved and the memory they are reserved in. *)
let admit cl node ~type_name ~repr =
  match Hashtbl.find_opt cl.types type_name with
  | None -> Error (Error.Bad_arguments ("unknown type " ^ type_name))
  | Some tm -> (
    let* () = load_type_code node tm in
    let footprint = object_footprint tm repr and mem = node.nd_mem in
    match Memory.reserve mem footprint with
    | Error `Out_of_memory -> Error Error.Out_of_memory
    | Ok () -> Ok (tm, footprint, mem))

(* -------------------------------------------------------------------- *)
(* Object construction (shared by create / activate / replicate) *)

let build_obj cl ~name ~tm ~repr ~frozen ~reliability ~home ~is_replica ~mem =
  {
    ob_name = name;
    ob_label = label cl name;
    ob_type = tm;
    ob_repr = repr;
    ob_frozen = frozen;
    ob_reliability = reliability;
    ob_home = home;
    ob_status = Running;
    ob_is_replica = is_replica;
    ob_queue = Mailbox.create cl.eng;
    ob_stash = Fifo.create ();
    ob_classes =
      Array.of_list
        (List.map
           (fun c ->
             {
               cs_limit = c.Opclass.limit;
               cs_running = 0;
               cs_queue = Fifo.create ();
             })
           (Typemgr.classes tm));
    ob_admitted = 0;
    ob_inflight = Itbl.create 4;
    ob_running_total = 0;
    ob_drained = Condition.create cl.eng;
    ob_coordinator = None;
    ob_behaviour_pids = [];
    ob_proc_pids = Itbl.create 8;
    ob_ctx = None;
    ob_sems = None;
    ob_ports = None;
    ob_rng = Splitmix.split cl.c_rng;
    ob_mem = mem;
    ob_ckpt_sites = [];
    ob_ckpt_version = 0;
    ob_ckpt_base = None;
    ob_ckpt_acked = None;
    ob_ckpt_inflight = false;
    ob_ckpt_queued = false;
    ob_ckpt_idle = Condition.create cl.eng;
  }

(* The table in an object's [slot], built on first insert. *)
let table slot ~set =
  match slot with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 4 in
    set (Some tbl);
    tbl

let ckpt_ack obj site version =
  Hashtbl.replace
    (table obj.ob_ckpt_acked ~set:(fun t -> obj.ob_ckpt_acked <- t))
    site version

let ckpt_unack obj site =
  Option.iter (fun acked -> Hashtbl.remove acked site) obj.ob_ckpt_acked

(* Create a brand-new object on [node].  Blocking. *)
let do_create_local cl node type_name init =
  if not node.nd_up then Error Error.Node_down
  else
    let* tm, footprint, mem = admit cl node ~type_name ~repr:init in
    consume node (costs node).Costs.process_create_cpu;
    if node.nd_mem != mem then Error Error.Node_down
    else begin
      let name = Name.make ~birth_node:node.nd_id ~serial:(next_seq node) in
      let obj =
        build_obj cl ~name ~tm ~repr:init ~frozen:false
          ~reliability:Reliability.Local ~home:node.nd_id ~is_replica:false
          ~mem:footprint
      in
      spawn_coordinator cl obj;
      spawn_behaviours cl obj;
      Name.Table.replace node.nd_active name obj;
      dir_publish cl node name ~home:node.nd_id ~replicas:[];
      Ok (Capability.make name Rights.all)
    end

(* Reincarnate a passive object from its snapshot on [node].  Blocking.
   Concurrent activations of the same object on one node coalesce. *)
let activate cl node name =
  match Name.Table.find_opt node.nd_active name with
  | Some obj -> Ok obj
  | None -> (
    match Name.Table.find_opt node.nd_activating name with
    | Some pr -> (
      match Promise.await pr with
      | Some r -> r
      | None -> raise (Fatal "activation promise has no timeout"))
    | None -> (
      match Name.Table.find_opt node.nd_store name with
      | None -> Error Error.No_such_object
      | Some _ when not node.nd_disk_ok ->
        (* The snapshot exists but cannot be read back. *)
        Error Error.Disk_failed
      | Some snap -> (
        let pr = Promise.create cl.eng in
        Name.Table.replace node.nd_activating name pr;
        let finish r =
          (* A crash empties the table; a later activation may own the
             entry by now. *)
          (match Name.Table.find_opt node.nd_activating name with
          | Some p when p == pr -> Name.Table.remove node.nd_activating name
          | Some _ | None -> ());
          ignore (Promise.fill pr r);
          r
        in
        match admit cl node ~type_name:snap.ss_type ~repr:snap.ss_repr with
        | Error e -> finish (Error e)
        | Ok (tm, footprint, mem) ->
          (* Read the long-term representation from disk. *)
          Disk.read (Machine.disk node.nd_machine)
            ~bytes:(Value.size_bytes snap.ss_repr);
          consume node (costs node).Costs.activation_fixed_cpu;
          if node.nd_mem != mem then finish (Error Error.Node_down)
          else begin
            let obj =
              build_obj cl ~name ~tm ~repr:snap.ss_repr
                ~frozen:snap.ss_frozen ~reliability:snap.ss_reliability
                ~home:node.nd_id ~is_replica:false ~mem:footprint
            in
            obj.ob_ckpt_sites <-
              Reliability.checksites snap.ss_reliability ~home:node.nd_id;
            obj.ob_ckpt_version <- snap.ss_version;
            obj.ob_ckpt_base <- Some (snap.ss_version, snap.ss_repr);
            (* Seed the acked table optimistically: checksites are
               usually at the version we just restored.  A site that
               is actually behind nacks its first delta, which falls
               back to a full write and repairs the entry. *)
            List.iter
              (fun site ->
                ckpt_ack obj site snap.ss_version)
              obj.ob_ckpt_sites;
            snap.ss_passive <- false;
            let actx =
              Tracectx.root
                (jrecord cl node
                   (Journal.Activate
                      {
                        target = label cl name;
                        version = snap.ss_version;
                      }))
            in
            (* Tell sibling checksites the object lives again. *)
            List.iter
              (fun site ->
                if site <> node.nd_id then
                  send_msg ~ctx:actx cl node ~dst:site
                    (Message.Ckpt_mark
                       {
                         target = name;
                         passive = false;
                         version = snap.ss_version;
                       }))
              obj.ob_ckpt_sites;
            (* The reincarnation condition handler runs before any
               invocation is dispatched. *)
            (match Typemgr.reincarnate tm with
            | None -> ()
            | Some handler -> handler (obj_ctx cl obj));
            if obj.ob_status = Dead then
              finish (Error Error.Object_crashed)
            else if node.nd_mem != mem then finish (Error Error.Node_down)
            else begin
              spawn_coordinator cl obj;
              spawn_behaviours cl obj;
              Name.Table.replace node.nd_active name obj;
              (* Reincarnation is a home change the shard must hear
                 about, or it keeps naming the dead home. *)
              dir_publish ~ctx:actx cl node name ~home:node.nd_id
                ~replicas:[];
              Metrics.incr (nm cl node).m_recoveries;
              finish (Ok obj)
            end
          end)))

(* -------------------------------------------------------------------- *)
(* Checkpointing, crash, reincarnation *)

(* Returns whether the snapshot reached stable storage; a failed disk
   accepts nothing (and writes no partial state). *)
let write_snapshot cl node ~target ~type_name ~repr ~version ~reliability
    ~frozen ~passive =
  if not node.nd_disk_ok then false
  else begin
    let bytes = Value.size_bytes repr in
    Metrics.incr (nm cl node).m_ckpts;
    Metrics.add (nm cl node).m_ckpt_bytes bytes;
    Disk.write (Machine.disk node.nd_machine) ~bytes;
    (match Name.Table.find_opt node.nd_store target with
    | Some snap ->
      snap.ss_repr <- repr;
      snap.ss_version <- version;
      snap.ss_reliability <- reliability;
      snap.ss_frozen <- frozen;
      snap.ss_passive <- passive
    | None ->
      Name.Table.replace node.nd_store target
        {
          ss_type = type_name;
          ss_repr = repr;
          ss_version = version;
          ss_reliability = reliability;
          ss_frozen = frozen;
          ss_passive = passive;
        });
    true
  end

(* Apply a delta checkpoint against the stored snapshot.  Refusal is
   the nack that makes the sender fall back to a full write: disk
   failed, no snapshot to diff against, or the stored version is not
   the delta's base. *)
let apply_delta_snapshot cl node ~target ~base_version ~version ~delta
    ~reliability ~frozen =
  if not node.nd_disk_ok then false
  else
    match Name.Table.find_opt node.nd_store target with
    | None -> false
    | Some snap when snap.ss_version <> base_version -> false
    | Some snap -> (
      match Delta.apply delta ~base:snap.ss_repr with
      | Error _ -> false
      | Ok repr ->
        let bytes = Delta.size_bytes delta in
        Metrics.incr (nm cl node).m_ckpts;
        Metrics.add (nm cl node).m_ckpt_bytes bytes;
        Disk.write (Machine.disk node.nd_machine) ~bytes;
        snap.ss_repr <- repr;
        snap.ss_version <- version;
        snap.ss_reliability <- reliability;
        snap.ss_frozen <- frozen;
        snap.ss_passive <- false;
        true)

(* One checkpoint round: stamp a fresh version and write [repr] to
   every checksite — as a delta where the site is known to hold the
   current diff base, as a full representation otherwise.  All writes
   (the local disk one included) race one shared acknowledgement
   deadline instead of paying one [ack_timeout] per site. *)
let checkpoint_round cl obj ~repr =
  if obj.ob_status = Dead then Error Error.Object_crashed
  else begin
    let node = home cl obj in
    let metrics = nm cl node in
    consume node (costs node).Costs.checkpoint_fixed_cpu;
    obj.ob_ckpt_version <- obj.ob_ckpt_version + 1;
    let version = obj.ob_ckpt_version in
    let ctx =
      Tracectx.root
        (jrecord cl node
           (Journal.Ckpt_round
              { target = obj.ob_label; version }))
    in
    let type_name = Typemgr.name obj.ob_type in
    (* A checksite that has left the membership (decommissioned, not
       merely crashed) will never ack: drop it from the write set
       rather than stalling every round on a permanently dark mirror.
       Crashed members keep their write — the shared deadline covers
       transient outages. *)
    let sites =
      Reliability.checksites obj.ob_reliability ~home:node.nd_id
      |> List.filter (fun s -> s = node.nd_id || List.mem s cl.c_members)
    in
    let deadline = deadline_of ~timeout:ack_timeout cl.eng in
    let delta =
      if not cl.opts.use_ckpt_delta then None
      else
        match obj.ob_ckpt_base with
        | None -> None
        | Some (bv, base) ->
          (* Finding the dirty chunks is a read-only sweep of the
             representation. *)
          consume node
            (Costs.delta_scan_cost (costs node)
               ~bytes:(Value.size_bytes repr));
          Some (bv, Delta.diff ~base ~target:repr)
    in
    let site_at site v =
      match obj.ob_ckpt_acked with
      | Some acked -> Hashtbl.find_opt acked site = Some v
      | None -> false
    in
    let send_full site =
      Metrics.add metrics.m_ckpt_full_bytes (Value.size_bytes repr);
      request ~ctx cl node ~dst:site (fun req_id ->
          Message.Ckpt_write
            {
              req_id;
              target = obj.ob_name;
              type_name;
              repr;
              version;
              reliability = obj.ob_reliability;
              frozen = obj.ob_frozen;
              reply_to = node.nd_id;
            })
    in
    let send_delta site ~base_version d =
      Metrics.add metrics.m_ckpt_delta_bytes (Delta.size_bytes d);
      request ~ctx cl node ~dst:site (fun req_id ->
          Message.Ckpt_delta
            {
              req_id;
              target = obj.ob_name;
              type_name;
              delta = d;
              base_version;
              version;
              reliability = obj.ob_reliability;
              frozen = obj.ob_frozen;
              reply_to = node.nd_id;
            })
    in
    (* Launch every remote write first so they overlap each other and
       the local disk write. *)
    let remote_acks =
      List.filter_map
        (fun site ->
          if site = node.nd_id then None
          else
            match delta with
            | Some (bv, d) when site_at site bv ->
              Some (site, send_delta site ~base_version:bv d, true)
            | _ -> Some (site, send_full site, false))
        sites
    in
    let write_local_full () =
      Metrics.add metrics.m_ckpt_full_bytes (Value.size_bytes repr);
      write_snapshot cl node ~target:obj.ob_name ~type_name ~repr ~version
        ~reliability:obj.ob_reliability ~frozen:obj.ob_frozen ~passive:false
    in
    let write_local () =
      match delta with
      | Some (bv, d) when site_at node.nd_id bv ->
        if
          apply_delta_snapshot cl node ~target:obj.ob_name ~base_version:bv
            ~version ~delta:d ~reliability:obj.ob_reliability
            ~frozen:obj.ob_frozen
        then begin
          Metrics.add metrics.m_ckpt_delta_bytes (Delta.size_bytes d);
          true
        end
        else begin
          (* The local base is gone or stale: same fallback as a
             remote nack. *)
          Metrics.incr metrics.m_ckpt_fallbacks;
          write_local_full ()
        end
      | _ -> write_local_full ()
    in
    let local_in = List.mem node.nd_id sites in
    let local_ok = local_in && write_local () in
    let local_failed = local_in && not local_ok in
    (* Await the remote acknowledgements against the shared deadline;
       a nacked delta re-sends the full representation, still under
       the same deadline. *)
    let rec await_ack site slot was_delta =
      match await_reply ?timeout:(remaining cl.eng deadline) node slot with
      | Some (Message.Ckpt_ack { ok = true; _ }) -> true
      | Some (Message.Ckpt_ack { ok = false; _ }) when was_delta ->
        Metrics.incr metrics.m_ckpt_fallbacks;
        await_ack site (send_full site) false
      | Some (Message.Ckpt_ack _) | None -> false
      | Some _ -> wrong_reply ()
    in
    let ok_sites, failed =
      List.fold_left
        (fun (oks, failed) (site, slot, was_delta) ->
          if await_ack site slot was_delta then (site :: oks, failed)
          else (oks, site :: failed))
        ( (if local_ok then [ node.nd_id ] else []),
          if local_failed then [ node.nd_id ] else [] )
        remote_acks
    in
    List.iter (fun site -> ckpt_ack obj site version) ok_sites;
    List.iter (ckpt_unack obj) failed;
    (* Remove snapshots at sites no longer in the checksite set. *)
    List.iter
      (fun old_site ->
        if not (List.mem old_site sites) then begin
          ckpt_unack obj old_site;
          if old_site = node.nd_id then
            Name.Table.remove node.nd_store obj.ob_name
          else
            send_msg ~ctx cl node ~dst:old_site
              (Message.Ckpt_delete { target = obj.ob_name })
        end)
      obj.ob_ckpt_sites;
    obj.ob_ckpt_sites <- List.rev ok_sites;
    (* This round's representation is the next round's diff base. *)
    obj.ob_ckpt_base <- Some (version, repr);
    match failed with
    | [] -> Ok ()
    | _ :: _ ->
      if local_failed then Error Error.Disk_failed else Error Error.Node_down
  end

(* Checkpoint rounds for one object are serialised: a second request
   while one is in flight waits its turn (sync) or coalesces into a
   single follow-up round (async). *)
let acquire_ckpt_slot obj =
  while obj.ob_ckpt_inflight do
    ignore (Condition.await ~timeout:ack_timeout obj.ob_ckpt_idle)
  done;
  obj.ob_ckpt_inflight <- true

let release_ckpt_slot obj =
  obj.ob_ckpt_inflight <- false;
  Condition.broadcast obj.ob_ckpt_idle

let do_checkpoint cl obj =
  if obj.ob_is_replica then
    Error (Error.Bad_arguments "replicas do not checkpoint")
  else if obj.ob_status = Dead then Error Error.Object_crashed
  else begin
    acquire_ckpt_slot obj;
    Fun.protect
      ~finally:(fun () -> release_ckpt_slot obj)
      (fun () -> checkpoint_round cl obj ~repr:obj.ob_repr)
  end

(* Start a checkpoint and return immediately.  The round snapshots the
   representation at call time — values are immutable, so capturing
   the reference is a free copy-on-write — and runs in a kernel
   process.  [Ok ()] means launched (or coalesced), not succeeded. *)
let do_checkpoint_async cl obj =
  if obj.ob_is_replica then
    Error (Error.Bad_arguments "replicas do not checkpoint")
  else if obj.ob_status = Dead then Error Error.Object_crashed
  else begin
    let node = home cl obj in
    if obj.ob_ckpt_inflight then begin
      obj.ob_ckpt_queued <- true;
      Metrics.incr (nm cl node).m_ckpt_coalesced;
      Ok ()
    end
    else begin
      obj.ob_ckpt_inflight <- true;
      node.nd_ckpt_async <- node.nd_ckpt_async + 1;
      let repr = obj.ob_repr in
      ignore
        (spawn_kproc cl node
           ~name:("k:ckpt_async:" ^ obj.ob_label)
           (fun () ->
             Fun.protect
               ~finally:(fun () ->
                 node.nd_ckpt_async <- node.nd_ckpt_async - 1;
                 release_ckpt_slot obj)
               (fun () ->
                 let rec rounds repr =
                   ignore (checkpoint_round cl obj ~repr);
                   if obj.ob_ckpt_queued && obj.ob_status <> Dead then begin
                     obj.ob_ckpt_queued <- false;
                     rounds obj.ob_repr
                   end
                 in
                 rounds repr)));
      Ok ()
    end
  end

(* Collect every request the object is holding, in admission order.
   In-flight works are ordered by pid, which is their start order, and
   works queued in different classes by their admission stamps: table
   or class order would tie the crash, move and drain paths to how pids
   hash or how the type lists its classes. *)
let outstanding_works obj =
  let inflight =
    Itbl.fold (fun pid w acc -> (pid, w) :: acc) obj.ob_inflight []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  let queued =
    Array.to_list obj.ob_classes
    |> List.concat_map (fun c -> Fifo.to_list c.cs_queue)
    |> List.sort (fun a b -> Int.compare a.q_stamp b.q_stamp)
    |> List.map (fun q -> q.q_work)
  in
  let stashed = Fifo.to_list obj.ob_stash in
  let buffered =
    let rec drain acc =
      match Mailbox.try_recv obj.ob_queue with
      | Some w -> drain (w :: acc)
      | None -> List.rev acc
    in
    drain []
  in
  inflight @ queued @ stashed @ buffered

let kill_object_procs cl obj =
  let self = [] in
  let pids =
    (match obj.ob_coordinator with Some p -> [ p ] | None -> [])
    @ obj.ob_behaviour_pids @ take_pids obj.ob_proc_pids
  in
  obj.ob_coordinator <- None;
  obj.ob_behaviour_pids <- [];
  (* If the current process is one of the object's own (crash called
     from a handler or behaviour), kill it last so the rest of the
     dismantling completes. *)
  let here = Engine.running cl.eng in
  let mine, others =
    match here with
    | None -> (self, pids)
    | Some me ->
      List.partition (fun p -> Engine.Pid.equal p me) pids
  in
  List.iter (fun p -> Engine.kill cl.eng p) others;
  (* A mover draining the object waits for in-flight work that will now
     never finish: wake it to see the object dead. *)
  Condition.broadcast obj.ob_drained;
  List.iter (fun p -> Engine.kill cl.eng p) mine

let unregister cl obj =
  let node = home cl obj in
  if obj.ob_is_replica then Name.Table.remove node.nd_replicas obj.ob_name
  else Name.Table.remove node.nd_active obj.ob_name;
  Memory.release node.nd_mem obj.ob_mem;
  obj.ob_mem <- 0

(* The crash primitive: destroy all active state.  If the object has a
   checkpoint it becomes passive; otherwise it is gone for good. *)
let do_crash cl obj =
  if obj.ob_status <> Dead then begin
    obj.ob_status <- Dead;
    let node = home cl obj in
    let works = outstanding_works obj in
    List.iter (fun w -> fail_work cl obj w Error.Object_crashed) works;
    (* Flip the stored snapshots to passive-authoritative. *)
    List.iter
      (fun site ->
        if site = node.nd_id then begin
          match Name.Table.find_opt node.nd_store obj.ob_name with
          | Some snap -> snap.ss_passive <- true
          | None -> ()
        end
        else
          send_msg cl node ~dst:site
            (Message.Ckpt_mark
               {
                 target = obj.ob_name;
                 passive = true;
                 version = obj.ob_ckpt_version;
               }))
      obj.ob_ckpt_sites;
    unregister cl obj;
    kill_object_procs cl obj
  end

(* -------------------------------------------------------------------- *)
(* Mobility: move, freeze, replicate *)

let do_move cl obj ~to_node ~self_inflight =
  let source = home cl obj in
  if obj.ob_is_replica then Error (Error.Move_refused "replicas cannot move")
  else if to_node = obj.ob_home then Ok ()
  else if obj.ob_status <> Running then
    Error (Error.Move_refused "object is not quiescent")
  else begin
    let target = node_of cl to_node in
    obj.ob_status <- Draining;
    let floor = if self_inflight then 1 else 0 in
    let rec wait_drain () =
      if obj.ob_status <> Dead && obj.ob_running_total > floor then begin
        ignore (Condition.await obj.ob_drained);
        wait_drain ()
      end
    in
    wait_drain ();
    (* The target reserves memory for the object when it accepts.  If
       its memory has been replaced by the time the ack is read, the
       target crashed since the transfer left, and the reservation (if
       made before the crash) died with it.  The one reservation this
       misses is one made after a restart that fell wholly inside the
       transfer's flight, which leaks on that node. *)
    let target_mem = target.nd_mem in
    (* Ship the representation (unless the source crashed while the
       object drained); the Move_transfer message carries the object's
       long-term state across the wire. *)
    let accepted =
      if obj.ob_status = Dead then None
      else
        await_reply ~timeout:ack_timeout source
          (request cl source ~dst:to_node (fun transfer_id ->
               Message.Move_transfer
                 {
                   target = obj.ob_name;
                   type_name = Typemgr.name obj.ob_type;
                   repr = obj.ob_repr;
                   frozen = obj.ob_frozen;
                   reliability = obj.ob_reliability;
                   from_node = source.nd_id;
                   transfer_id;
                 }))
    in
    (* Whatever the outcome, requests stashed while draining must be
       re-admitted once the object is running again. *)
    let resume_and_flush () =
      obj.ob_status <- Running;
      let rec flush () =
        match Fifo.pop obj.ob_stash with
        | Some w ->
          let ok = Mailbox.try_send obj.ob_queue w in
          assert ok;
          flush ()
        | None -> ()
      in
      flush ()
    in
    match accepted with
    | _ when obj.ob_status = Dead ->
      (* The source crashed: the object is gone, and a reservation the
         target made for it goes back. *)
      (match accepted with
      | Some (Message.Move_ack { accepted = true; _ })
        when target.nd_mem == target_mem ->
        Memory.release target_mem (object_footprint obj.ob_type obj.ob_repr)
      | _ -> ());
      Error Error.Object_crashed
    | Some (Message.Move_ack { accepted = true; _ })
      when target.nd_mem != target_mem ->
      resume_and_flush ();
      Error Error.Node_down
    | Some (Message.Move_ack { accepted = true; _ }) ->
      (* Behaviours stop at the source and restart at the target. *)
      let behaviours = obj.ob_behaviour_pids in
      obj.ob_behaviour_pids <- [];
      List.iter (fun p -> Engine.kill cl.eng p) behaviours;
      Name.Table.remove source.nd_active obj.ob_name;
      Memory.release source.nd_mem obj.ob_mem;
      if cl.opts.use_forwarding then
        Name.Table.replace source.nd_forward obj.ob_name to_node;
      obj.ob_home <- to_node;
      obj.ob_mem <- object_footprint obj.ob_type obj.ob_repr;
      Name.Table.replace target.nd_active obj.ob_name obj;
      spawn_behaviours cl obj;
      resume_and_flush ();
      (* Every mover — the external [move], the migration policy's
         [balance_once], checkpoint-driven migration — publishes the
         new home here, so the registry never needs per-caller
         discipline.  Without this a balanced-away object costs every
         directory user a nack round before the fallback repairs it. *)
      dir_publish cl source obj.ob_name ~home:to_node ~replicas:[];
      Ok ()
    | Some (Message.Move_ack _) ->
      resume_and_flush ();
      Error Error.Out_of_memory
    | Some _ -> wrong_reply ()
    | None ->
      resume_and_flush ();
      Error Error.Node_down
  end

let do_replicate cl obj ~to_node =
  let node = home cl obj in
  if not obj.ob_frozen then
    Error (Error.Move_refused "only frozen objects can be replicated")
  else if to_node = obj.ob_home then Ok ()
  else begin
    let slot =
      request cl node ~dst:to_node (fun transfer_id ->
          Message.Replica_install
            {
              target = obj.ob_name;
              type_name = Typemgr.name obj.ob_type;
              repr = obj.ob_repr;
              transfer_id;
              from_node = node.nd_id;
            })
    in
    match await_reply ~timeout:ack_timeout node slot with
    | Some (Message.Replica_ack { accepted = true; _ }) ->
      (* Same-home publish: the shard unions [to_node] into the
         entry's replica set, seeding requesters' clone sets. *)
      dir_publish cl node obj.ob_name ~home:obj.ob_home
        ~replicas:[ to_node ];
      Ok ()
    | Some (Message.Replica_ack _) -> Error Error.Out_of_memory
    | Some _ -> wrong_reply ()
    | None -> Error Error.Node_down
  end

(* -------------------------------------------------------------------- *)
(* The frozen-replica cache.

   A remote reply can carry a [frozen_hint]: the serving node saw the
   target immutable.  The requester then fetches the representation
   once, in the background, and installs it in [nd_cache]; every later
   invocation from this node dispatches locally.  The entry is a hint
   in Lampson's sense: rights still validate on every dispatch, and
   staleness is handled by invalidation — [unfreeze] (the version
   bump) broadcasts on the existing nack path, which drops cached
   copies everywhere, and [Destroy_notice] / node crashes clear them
   too.  The cache never answers locates or remote requests: it is
   private to its node, so it can be discarded at any time. *)

let drop_cached cl node target =
  match Name.Table.find_opt node.nd_cache target with
  | None -> ()
  | Some obj ->
    obj.ob_status <- Dead;
    let works = outstanding_works obj in
    List.iter (fun w -> fail_work cl obj w Error.No_such_object) works;
    Name.Table.remove node.nd_cache target;
    Memory.release node.nd_mem obj.ob_mem;
    obj.ob_mem <- 0;
    Metrics.incr (nm cl node).m_cache_inval;
    kill_object_procs cl obj

let cache_epoch node name =
  match Name.Table.find_opt node.nd_cache_epoch name with
  | Some e -> e
  | None -> 0

(* Full invalidation: purge any installed copy and poison fetches in
   flight (their payload predates the bump, see [cache_fetch]). *)
let invalidate_cached cl node target =
  if Name.Table.mem node.nd_cache target || Name.Table.mem node.nd_fetching target
  then begin
    let epoch = cache_epoch node target + 1 in
    Name.Table.replace node.nd_cache_epoch target epoch;
    ignore
      (jrecord cl node
         (Journal.Cache_invalidate { target = label cl target; epoch }))
  end;
  drop_cached cl node target

let install_cached cl node name ~type_name ~repr =
  if
    node.nd_up
    && (not (Name.Table.mem node.nd_cache name))
    && (not (Name.Table.mem node.nd_active name))
    && not (Name.Table.mem node.nd_replicas name)
  then
    match admit cl node ~type_name ~repr with
    | Error _ -> ()
    | Ok (tm, footprint, _) ->
      let obj =
        build_obj cl ~name ~tm ~repr ~frozen:true
          ~reliability:Reliability.Local ~home:node.nd_id ~is_replica:true
          ~mem:footprint
      in
      spawn_coordinator cl obj;
      Name.Table.replace node.nd_cache name obj;
      ignore
        (jrecord cl node
           (Journal.Cache_install
              { target = label cl name; epoch = cache_epoch node name }))

(* Fetch [name]'s representation from [from_node] in the background.
   Failures are silent: the cache is an optimisation, and the next
   frozen-hinted reply will try again. *)
let cache_fetch ?ctx cl node name ~from_node =
  if
    cl.opts.use_replica_cache && node.nd_up && from_node <> node.nd_id
    && (not (Name.Table.mem node.nd_cache name))
    && (not (Name.Table.mem node.nd_fetching name))
    && (not (Name.Table.mem node.nd_active name))
    && not (Name.Table.mem node.nd_replicas name)
  then begin
    Name.Table.replace node.nd_fetching name ();
    ignore
      (spawn_kproc cl node ~name:"k:cache_fetch" (fun () ->
           Fun.protect
             ~finally:(fun () -> Name.Table.remove node.nd_fetching name)
             (fun () ->
               let epoch = cache_epoch node name in
               let slot =
                 request ?ctx cl node ~dst:from_node (fun req_id ->
                     Message.Cache_fetch
                       { req_id; target = name; reply_to = node.nd_id })
               in
               match await_reply ~timeout:ack_timeout node slot with
               | Some
                   (Message.Cache_data { payload = Some (type_name, repr); _ })
                 ->
                 (* A version bump that raced the reply (e.g. the
                    unfreeze invalidation overtaking a delayed
                    [Cache_data]) makes the payload pre-thaw garbage:
                    discard it rather than install a stale replica. *)
                 if cache_epoch node name = epoch then
                   install_cached cl node name ~type_name ~repr
               | Some (Message.Cache_data _) | None -> ()
               | Some _ -> wrong_reply ())))
  end

(* -------------------------------------------------------------------- *)
(* Location and the invocation path *)

let enqueue_work cl obj w =
  if obj.ob_status = Dead then fail_work cl obj w Error.Object_crashed
  else begin
    cl.n_inv <- cl.n_inv + 1;
    let ok = Mailbox.try_send obj.ob_queue w in
    assert ok
  end

(* This node holds the authoritative passive snapshot of [name]. *)
let passive_at node name =
  match Name.Table.find_opt node.nd_store name with
  | Some snap -> snap.ss_passive
  | None -> false

(* The reply window a locate opens with: [locate_window], or longer
   once this node has measured slower answers. *)
let first_window node = Rtt.window ~floor:locate_window node.nd_rtt

(* Remember when the locate broadcast [seq] left, for {!locate_answered}. *)
let locate_sent cl node seq =
  let i = 2 * (seq land (locate_slots - 1)) in
  node.nd_located_at.(i) <- seq;
  node.nd_located_at.(i + 1) <- Time.to_ns (Engine.now cl.eng)

(* An active answer to this node's locate broadcast [seq] arrived, in
   its window or after it: the first one per broadcast is a sample of
   the answer latency.  A broadcast whose slot was reused is not. *)
let locate_answered cl node seq =
  let i = 2 * (seq land (locate_slots - 1)) in
  if node.nd_located_at.(i) = seq then begin
    node.nd_located_at.(i) <- -1;
    let sent = Time.ns node.nd_located_at.(i + 1) in
    node.nd_rtt <- Rtt.observe node.nd_rtt (Time.diff (Engine.now cl.eng) sent)
  end

(* Broadcast locate; prefer an actively-hosting node, else a replica,
   else a passive checksite. *)
let locate_once ?ctx cl node name ~window =
  let req_id = new_request_id node in
  let st =
    { loc_candidates = []; loc_active = Promise.create cl.eng }
  in
  add_pending node req_id.Message.seq (P_locate st);
  locate_sent cl node req_id.Message.seq;
  Metrics.incr (nm cl node).m_locates;
  (* Locates count toward object heat too: an object that is hard to
     find generates locate traffic even when invocations stall. *)
  (match cl.c_health with
  | Some hp -> Topk.add hp.hp_topk.(node.nd_id) (label cl name)
  | None -> ());
  bcast_msg ?ctx cl node
    (Message.Locate_request { req_id; target = name; reply_to = node.nd_id });
  let early = Promise.await ~timeout:window st.loc_active in
  Itbl.remove node.nd_pending req_id.Message.seq;
  match early with
  | Some hit -> Some hit
  | None ->
    (* The broadcast does not loop back, but this node may itself be a
       checksite: its own snapshot competes on version like any other
       (the home can crash without marking mirrors passive, so
       passivity of the local copy proves nothing either way). *)
    (if node.nd_disk_ok then
       match Name.Table.find_opt node.nd_store name with
       | Some snap ->
         st.loc_candidates <-
           (node.nd_id, Message.Res_passive, snap.ss_version)
           :: st.loc_candidates
       | None -> ());
    (* Among same-residence answers, take the highest snapshot version
       (the earliest responder on a tie).  Replicas all report version
       0, so for them this is plain arrival order; for passive sites
       it is what makes reincarnation prefer the newest state. *)
    let pick res =
      List.fold_left
        (fun best (n, r, v) ->
          if r <> res then best
          else
            match best with
            | Some (_, bv) when bv >= v -> best
            | _ -> Some (n, v))
        None
        (List.rev st.loc_candidates)
      |> Option.map (fun (n, _) -> (n, res))
    in
    (match pick Message.Res_replica with
    | Some hit -> Some hit
    | None -> pick Message.Res_passive)

(* Retries widen the reply window geometrically: under a burst of
   traffic the first window routinely expires while replies sit in
   collision backoff.  Windows are clamped to the caller's deadline so
   a tight invocation timeout is honoured even during location. *)
let rec locate_backoff ?ctx cl node name ~attempts ~window ~deadline =
  if attempts <= 0 then `Nowhere
  else
    let window =
      match remaining cl.eng deadline with
      | None -> window
      | Some left -> if Time.(left < window) then left else window
    in
    if Time.is_zero window then `Deadline
    else
      match locate_once ?ctx cl node name ~window with
      | Some hit -> `Found hit
      | None ->
        locate_backoff ?ctx cl node name ~attempts:(attempts - 1)
          ~window:(Time.scale window 3) ~deadline

(* Concurrent locates of the same name from one node share a single
   broadcast (and its answer). *)
let locate ?ctx cl node name ~deadline =
  if not cl.opts.coalesce_locates then
    locate_backoff ?ctx cl node name ~attempts:locate_retries
      ~window:(first_window node) ~deadline
  else
  match Name.Table.find_opt node.nd_locating name with
  | Some pr -> (
    (* Wait for the initiator's answer, but no longer than our own
       deadline allows. *)
    match Promise.await ?timeout:(remaining cl.eng deadline) pr with
    | Some (Some hit) -> `Found hit
    | Some None -> `Nowhere
    | None -> `Deadline)
  | None ->
    let pr = Promise.create cl.eng in
    Name.Table.replace node.nd_locating name pr;
    Fun.protect
      ~finally:(fun () ->
        Name.Table.remove node.nd_locating name;
        ignore (Promise.fill pr None))
      (fun () ->
        match
          locate_backoff ?ctx cl node name ~attempts:locate_retries
            ~window:(first_window node) ~deadline
        with
        | `Found hit ->
          ignore (Promise.fill pr (Some hit));
          `Found hit
        | (`Nowhere | `Deadline) as r -> r)

(* A frozen-hinted reply teaches us one more site able to serve reads
   of this name: remember it as a clone candidate.  The set is a hint —
   a stale member just nacks its clone, which evicts it.  Hedge-only
   mode learns too: a hedge that can re-send to an alternate replica
   dodges a degraded home, where re-sending to the same site only
   helps against loss. *)
let speculating cl =
  cl.opts.speculate.Api.sp_clone || cl.opts.speculate.Api.sp_hedge

let learn_clone_site cl node name site =
  if speculating cl && site <> node.nd_id then begin
    let prev =
      Option.value ~default:[] (Name.Table.find_opt node.nd_clone_sites name)
    in
    if (not (List.mem site prev)) && List.length prev < 8 then
      Name.Table.replace node.nd_clone_sites name (site :: prev)
  end

let forget_clone_site node name site =
  match Name.Table.find_opt node.nd_clone_sites name with
  | None -> ()
  | Some sites -> (
    match List.filter (fun s -> s <> site) sites with
    | [] -> Name.Table.remove node.nd_clone_sites name
    | rest -> Name.Table.replace node.nd_clone_sites name rest)

(* The home answers a locate before any replica does, and a plain read
   never leaves the hinted route at all, so a requester on the happy
   path would never discover the replica set.  The first time a node
   learns a target is frozen (with cloning on), it broadcasts one
   fire-and-forget locate: no pending entry resolves it, but every
   [Res_replica] answer teaches the clone set in [on_message].  The
   table entry — possibly still empty — doubles as the asked-once
   marker; [Cache_invalidate] and [forget_object] drop it, re-arming
   discovery after the frozen epoch changes.

   With the locate directory on, the discovery broadcast is skipped
   entirely: the registry answer already carries the shard's known
   replica set (every [`Hit] feeds [learn_clone_site]), so fanning out
   a broadcast here would re-introduce exactly the per-name broadcast
   the directory exists to avoid — cloned reads were costing E23-scale
   locate traffic whenever both flags were enabled. *)
let discover_clone_sites ?ctx cl node name =
  if
    speculating cl
    && (not (dir_enabled cl))
    && not (Name.Table.mem node.nd_clone_sites name)
  then begin
    Name.Table.replace node.nd_clone_sites name [];
    let req_id = new_request_id node in
    Metrics.incr (nm cl node).m_locates;
    (match cl.c_health with
    | Some hp -> Topk.add hp.hp_topk.(node.nd_id) (label cl name)
    | None -> ());
    bcast_msg ?ctx cl node
      (Message.Locate_request { req_id; target = name; reply_to = node.nd_id })
  end

(* What a reply means for the requester's local bookkeeping: pay the
   unmarshalling cost, note the frozen hint, teach the clone set. *)
let absorb_reply ?ctx cl node ~from_node cap r frozen_hint =
  (match r with
  | Ok vs ->
    consume node (costs node).Costs.invoke_reply_cpu;
    consume node
      (Costs.copy_cost (costs node) ~bytes:(Value.list_size_bytes vs))
  | Error _ -> ());
  if frozen_hint then begin
    discover_clone_sites ?ctx cl node (Capability.name cap);
    learn_clone_site cl node (Capability.name cap) from_node;
    if
      cl.opts.use_replica_cache
      && not (Name.Table.mem node.nd_cache (Capability.name cap))
    then begin
      (* The target is immutable and we paid the round trip anyway:
         count the miss and fetch a local replica in the background. *)
      Metrics.incr (nm cl node).m_cache_miss;
      cache_fetch ?ctx cl node (Capability.name cap) ~from_node
    end
  end

(* Send the request to [dst] — and speculatively to every site in
   [clones] — and wait for the outcome.  One request id covers the
   whole fan-out, and a plain request is a fan-out of one.  With two or
   more sites the first real result wins and every other site is sent
   an urgent [Cancel].  A plain request that outruns the windowed
   latency quantile is hedged: the same request is re-issued (urgently,
   same id) without abandoning the original, and the serving side's
   idempotence table drops whichever copy arrives second. *)
let send_request_and_wait ?ctx cl node ~dst ~clones ~deadline ~may_activate
    cap ~op args =
  let inv_id = new_request_id node in
  let name = Capability.name cap in
  let request ~to_site =
    Message.Inv_request
      {
        inv_id;
        target = name;
        op;
        args;
        presented = Capability.rights cap;
        reply_to = node.nd_id;
        hops = 0;
        (* Only the primary may reincarnate a passive copy: a clone
           waking its own activation at every site would multiply the
           object. *)
        may_activate = may_activate && to_site = dst;
        span = None;
      }
  in
  let send via site =
    consume node
      (Costs.copy_cost (costs node) ~bytes:(Value.list_size_bytes args));
    via ?ctx cl node ~dst:site (request ~to_site:site)
  in
  Metrics.incr (nm cl node).m_remote;
  let t0 = Engine.now cl.eng in
  let count = 1 + List.length clones in
  let fo =
    { fo_pr = Promise.create cl.eng; fo_unnacked = count; fo_from = dst }
  in
  add_pending node inv_id.Message.seq (P_fanout fo);
  if count > 1 then begin
    Metrics.incr (nm cl node).m_clone_fanouts;
    ignore (jrecord cl node ?ctx (Journal.Clone_fanout { op; sites = count }))
  end;
  send send_msg dst;
  (* Guarded, so a plain request builds no closure for the empty list. *)
  if clones <> [] then List.iter (send send_msg) clones;
  let hedge_after =
    if count > 1 || not cl.opts.speculate.Api.sp_hedge then None
    else
      match (hedge_threshold cl, remaining cl.eng deadline) with
      | None, _ -> None
      | Some h, Some left when Time.(left <= h) -> None
      | (Some _ as h), _ -> h
  in
  let outcome =
    match hedge_after with
    | None -> Promise.await ?timeout:(remaining cl.eng deadline) fo.fo_pr
    | Some h -> (
      match Promise.await ~timeout:h fo.fo_pr with
      | Some _ as o -> o
      | None ->
        (* The attempt has outrun the recent latency quantile.  Prefer
           an alternative site known to serve this name; otherwise
           re-send to the same one (a second chance for a dropped or
           delayed transfer). *)
        let hedge_dst =
          match
            Reliability.fanout ~primary:dst
              ~candidates:
                (List.filter
                   (fun s -> s <> node.nd_id)
                   (Option.value ~default:[]
                      (Name.Table.find_opt node.nd_clone_sites name)))
              ~max_extra:1
          with
          | alt :: _ -> alt
          | [] -> dst
        in
        Metrics.incr (nm cl node).m_hedges;
        ignore (jrecord cl node ?ctx (Journal.Hedge { op; dst = hedge_dst }));
        send send_msg_now hedge_dst;
        Promise.await ?timeout:(remaining cl.eng deadline) fo.fo_pr)
  in
  Itbl.remove node.nd_pending inv_id.Message.seq;
  (* Only a fan-out names its winner; a plain request's reply is taken
     as [dst]'s, wherever it was forwarded or hedged to. *)
  let winner =
    match outcome with
    | Some (Inv_result _) when count > 1 -> Some fo.fo_from
    | Some _ | None -> None
  in
  if count > 1 then begin
    (match winner with
    | Some won ->
      ignore (jrecord cl node ?ctx (Journal.Clone_win { op; winner = won }))
    | None -> ());
    (* Retract the losers — all sites, when nobody won.  Urgent sends,
       so a cancellation is never batched behind the work it cancels. *)
    List.iter
      (fun site ->
        if Some site <> winner then begin
          Metrics.incr (nm cl node).m_clone_cancels;
          ignore (jrecord cl node ?ctx (Journal.Clone_cancel { dst = site }));
          send_msg_now ?ctx cl node ~dst:site
            (Message.Cancel { inv_id; target = name })
        end)
      (dst :: clones)
  end;
  match outcome with
  | None ->
    (* The node we trusted never answered: distrust the cached location
       so the next attempt re-locates instead of sending into the void
       again. *)
    Name.Table.remove node.nd_hints name;
    Name.Table.remove node.nd_forward name;
    `Result (Error Error.Timeout)
  | Some (Inv_result (r, frozen_hint)) ->
    hedge_observe cl (Time.diff (Engine.now cl.eng) t0);
    absorb_reply ?ctx cl node
      ~from_node:(Option.value ~default:dst winner)
      cap r frozen_hint;
    `Result r
  | Some Inv_nacked -> `Nacked

let do_invoke cl ~from ?timeout ?(retry = Api.no_retry) ?(caller = -1) cap
    ~op args =
  let node = node_of cl from in
  if not node.nd_up then Error Error.Node_down
  else begin
    let name = Capability.name cap in
    let tname = label cl name in
    Metrics.incr (nm cl node).m_inv;
    (* Feed the origin node's hot-object sketch; the rendered name is
       shared with the journal event below, so the health plane adds no
       allocation of its own here. *)
    (match cl.c_health with
    | Some hp -> Topk.add hp.hp_topk.(from) tname
    | None -> ());
    let t0 = Engine.now cl.eng in
    (* The invocation's root journal event: every send, retry and
       downstream handler event hangs off this trace id. *)
    let ictx =
      Tracectx.root
        (jrecord cl node (Journal.Inv_begin { op; target = tname; caller }))
    in
    consume node (costs node).Costs.invoke_request_cpu;
    (* Journalled at the moment an attempt abandons the directory for
       this name: invariant 6 requires every Dir_hit/Dir_miss to end in
       Inv_end or one of these. *)
    let dir_fallback () =
      Metrics.incr (nm cl node).m_dir_fallbacks;
      ignore
        (jrecord cl node ~ctx:ictx (Journal.Dir_fallback { target = tname }))
    in
    let rec attempt ~deadline ~nack_budget ~use_dir =
      consume node (costs node).Costs.locate_lookup_cpu;
      (* Local fast paths: active object, replica, cached replica, or
         authoritative passive snapshot on this very node. *)
      let local =
        match Name.Table.find_opt node.nd_active name with
        | Some _ as o -> o
        | None -> (
          match Name.Table.find_opt node.nd_replicas name with
          | Some _ as o -> o
          | None when not cl.opts.use_replica_cache -> None
          | None -> (
            match Name.Table.find_opt node.nd_cache name with
            | Some _ as o ->
              Metrics.incr (nm cl node).m_cache_hit;
              o
            | None -> None))
      in
      match local with
      | Some obj -> dispatch ~deadline obj
      | None when passive_at node name ->
        let* obj = activate cl node name in
        dispatch ~deadline obj
      | None -> (
        (* Remote: follow a hint if we have one, else locate. *)
        let hinted =
          if not cl.opts.use_hint_cache then None
          else
            match Name.Table.find_opt node.nd_hints name with
            | Some h when h <> node.nd_id -> Some h
            | Some _ | None -> (
              match Name.Table.find_opt node.nd_forward name with
              | Some h when h <> node.nd_id -> Some h
              | Some _ | None -> None)
        in
        (match hinted with
        | Some _ -> Metrics.incr (nm cl node).m_hint_hit
        | None -> Metrics.incr (nm cl node).m_hint_miss);
        (* The broadcast locate: the authoritative path, and the
           directory's fallback.  Finding the active home here repairs
           the registry for the next requester. *)
        let broadcast_locate () =
          match locate ~ctx:ictx cl node name ~deadline with
          | `Found (at_node, residence) when at_node <> node.nd_id ->
            if cl.opts.use_hint_cache then
              Name.Table.replace node.nd_hints name at_node;
            if residence = Message.Res_active then
              dir_publish ~ctx:ictx cl node name ~home:at_node ~replicas:[];
            (* Choosing a passive site after a full quiet window
               authorises that site to reincarnate. *)
            `Send (at_node, residence = Message.Res_passive, false)
          | `Found (_, Message.Res_passive) ->
            (* Our own snapshot is the newest surviving state: the
               quiet window authorises reincarnating it right here. *)
            `Activate
          | `Found (_, _) ->
            (* We were told the object is on this very node: it must
               have just (re)activated here; retry the local fast
               paths. *)
            `Retry
          | `Nowhere -> `Nowhere
          | `Deadline -> `Deadline
        in
        let dst =
          match hinted with
          | Some h -> `Send (h, false, false)
          | None -> (
            if not (use_dir && dir_enabled cl) then broadcast_locate ()
            else
              match dir_resolve ~ctx:ictx cl node name ~deadline with
              | `Hit (dhome, replicas) when dhome <> node.nd_id ->
                Metrics.incr (nm cl node).m_dir_hits;
                ignore
                  (jrecord cl node ~ctx:ictx
                     (Journal.Dir_hit { target = tname; home = dhome }));
                List.iter (learn_clone_site cl node name) replicas;
                (* A directory answer is a hint, never activation
                   authority: only a full broadcast quiet window may
                   authorise reincarnation. *)
                `Send (dhome, false, true)
              | `Hit _ ->
                (* The registry names this very node, but every local
                   fast path already missed: stale self-entry, fall
                   back. *)
                dir_fallback ();
                broadcast_locate ()
              | `Miss ->
                ignore
                  (jrecord cl node ~ctx:ictx
                     (Journal.Dir_miss { target = tname }));
                dir_fallback ();
                broadcast_locate ()
              | `Dead ->
                dir_fallback ();
                broadcast_locate ())
        in
        match dst with
        | `Nowhere -> Error Error.No_such_object
        | `Deadline -> Error Error.Timeout
        | `Activate ->
          let* obj = activate cl node name in
          dispatch ~deadline obj
        | `Retry ->
          if nack_budget <= 0 then Error Error.No_such_object
          else attempt ~deadline ~nack_budget:(nack_budget - 1) ~use_dir
        | `Send (dst, may_activate, via_dir) -> (
          (* Clone set: every other site known to serve reads of this
             (frozen, replicated) name.  Empty for ordinary objects, so
             the single-destination path is untouched. *)
          let clones =
            if not cl.opts.speculate.Api.sp_clone then []
            else
              match Name.Table.find_opt node.nd_clone_sites name with
              | None -> []
              | Some sites ->
                Reliability.fanout ~primary:dst
                  ~candidates:(List.filter (fun s -> s <> node.nd_id) sites)
                  ~max_extra:(cl.opts.speculate.Api.sp_max_sites - 1)
          in
          match
            send_request_and_wait ~ctx:ictx cl node ~dst ~clones ~deadline
              ~may_activate cap ~op args
          with
          | `Result r -> r
          | `Nacked ->
            Metrics.incr (nm cl node).m_nacks;
            Name.Table.remove node.nd_hints name;
            Name.Table.remove node.nd_forward name;
            if via_dir then begin
              (* The shard pointed at a node that cannot serve.  Lazily
                 invalidate its entry (it drops it only if it still
                 names this home) and retry on the broadcast path:
                 otherwise the stale entry keeps winning until the nack
                 budget runs out. *)
              Metrics.incr (nm cl node).m_dir_nacks;
              dir_invalidate ~ctx:ictx cl node name ~stale_home:dst;
              dir_fallback ()
            end;
            if nack_budget <= 0 then Error Error.No_such_object
            else
              attempt ~deadline ~nack_budget:(nack_budget - 1)
                ~use_dir:(use_dir && not via_dir)))
    (* Serve the request from an object on this node.  (In [attempt]'s
       recursive group, so the two share one closure.) *)
    and dispatch ~deadline obj =
      let pr = Promise.create cl.eng in
      enqueue_work cl obj
        {
          w_op = op;
          w_args = args;
          w_presented = Capability.rights cap;
          w_route = Reply_local pr;
          w_ctx = Some ictx;
        };
      match Promise.await ?timeout:(remaining cl.eng deadline) pr with
      | Some r -> r
      | None -> Error Error.Timeout
    in
    (* [?timeout] bounds each attempt; a timed-out attempt may be
       re-issued under the caller's retry policy after a capped
       exponential backoff.  Only Timeout retries — any other error is
       a definitive answer. *)
    let rec tries i =
      let deadline = deadline_of ?timeout cl.eng in
      match attempt ~deadline ~nack_budget:2 ~use_dir:(dir_enabled cl) with
      | Error Error.Timeout when i < retry.Api.r_max ->
        Metrics.incr (nm cl node).m_retries;
        ignore
          (jrecord cl node ~ctx:ictx (Journal.Retry { op; attempt = i + 1 }));
        Engine.delay (Api.backoff retry i);
        tries (i + 1)
      | r -> r
    in
    let r = tries 0 in
    let outcome =
      match r with Ok _ -> "ok" | Error e -> Error.to_string e
    in
    ignore (jrecord cl node ~ctx:ictx (Journal.Inv_end { op; outcome }));
    Metrics.observe_time cl.c_lat (Time.diff (Engine.now cl.eng) t0);
    r
  end

(* Create an object on a possibly-remote node. *)
let do_create cl ~from ~node:target ~type_name init =
  let origin = node_of cl from in
  if not origin.nd_up then Error Error.Node_down
  else if target = from then do_create_local cl origin type_name init
  else begin
    ignore (node_of cl target);
    let ((req_id, _) as slot) = expect cl origin in
    consume origin
      (Costs.copy_cost (costs origin) ~bytes:(Value.size_bytes init));
    send_msg cl origin ~dst:target
      (Message.Create_request { req_id; type_name; init; reply_to = from });
    match await_reply ~timeout:ack_timeout origin slot with
    | Some (Message.Create_reply { result; _ }) -> result
    | Some _ -> wrong_reply ()
    | None -> Error Error.Node_down
  end

(* -------------------------------------------------------------------- *)
(* The kernel interface handed to type code.  It calls back into the
   invocation, creation, checkpoint and mobility paths above, which
   reach it through [cl.c_make_ctx] (see [obj_ctx]). *)

let make_ctx cl obj =
  let find_or_add slot ~set key create =
    let tbl = table slot ~set in
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
      let v = create () in
      Hashtbl.replace tbl key v;
      v
  in
  {
    Api.self = Capability.make obj.ob_name Rights.all;
    node_id = (fun () -> obj.ob_home);
    now = (fun () -> Engine.now cl.eng);
    random = obj.ob_rng;
    compute = (fun t -> consume (home cl obj) t);
    log =
      (fun text ->
        ignore
          (jrecord cl (home cl obj)
             (Journal.Log { target = obj.ob_label; text })));
    get_repr = (fun () -> obj.ob_repr);
    set_repr =
      (fun v ->
        if obj.ob_frozen then Error Error.Frozen_immutable
        else begin
          let node = home cl obj in
          let old_size = Value.size_bytes obj.ob_repr in
          let new_size = Value.size_bytes v in
          if new_size > old_size then begin
            match Memory.reserve node.nd_mem (new_size - old_size) with
            | Error `Out_of_memory -> Error Error.Out_of_memory
            | Ok () ->
              obj.ob_mem <- obj.ob_mem + (new_size - old_size);
              obj.ob_repr <- v;
              Ok ()
          end
          else begin
            Memory.release node.nd_mem (old_size - new_size);
            obj.ob_mem <- obj.ob_mem - (old_size - new_size);
            obj.ob_repr <- v;
            Ok ()
          end
        end);
    invoke =
      (fun ?timeout ?retry cap ~op args ->
        let caller = current_caller cl obj in
        do_invoke cl ~from:obj.ob_home ?timeout ?retry ~caller cap ~op args);
    invoke_async =
      (fun ?timeout ?retry cap ~op args ->
        (* Capture the caller here: the spawned process has its own
           pid, so the per-pid lookup would miss it. *)
        let caller = current_caller cl obj in
        let pr = Promise.create cl.eng in
        let pid =
          Engine.spawn cl.eng ~name:"invoke_async" (fun () ->
              let r =
                do_invoke cl ~from:obj.ob_home ?timeout ?retry ~caller
                  cap ~op args
              in
              ignore (Promise.fill pr r))
        in
        Engine.set_daemon cl.eng pid;
        pr);
    create_object =
      (fun ~type_name ?node init ->
        let target = Option.value ~default:obj.ob_home node in
        do_create cl ~from:obj.ob_home ~node:target ~type_name init);
    checkpoint = (fun () -> do_checkpoint cl obj);
    checkpoint_async = (fun () -> do_checkpoint_async cl obj);
    set_reliability =
      (fun r ->
        match Reliability.validate r ~node_count:(Array.length cl.nodes) with
        | Error e -> Error (Error.Bad_arguments e)
        | Ok () ->
          obj.ob_reliability <- r;
          Ok ());
    crash = (fun () -> do_crash cl obj);
    move_to =
      (fun n ->
        let* () = node_in_range cl n in
        do_move cl obj ~to_node:n ~self_inflight:true);
    freeze = (fun () -> obj.ob_frozen <- true);
    replicate_to = (fun n -> do_replicate cl obj ~to_node:n);
    semaphore =
      (fun name ~init ->
        find_or_add obj.ob_sems ~set:(fun t -> obj.ob_sems <- t) name
          (fun () -> Semaphore.create cl.eng ~init));
    port =
      (fun name ->
        find_or_add obj.ob_ports ~set:(fun t -> obj.ob_ports <- t) name
          (fun () -> Mailbox.create cl.eng));
    spawn_subprocess =
      (fun f ->
        ignore
          (spawn_tracked cl obj.ob_proc_pids ~name:(obj.ob_label ^ ".sub") f));
  }

(* -------------------------------------------------------------------- *)
(* Destruction: erase one node's knowledge of an object, killing any
   local replica.  (The primary, if any, is dismantled by the
   destroyer before the notices go out.) *)

let forget_object cl node target =
  (match Name.Table.find_opt node.nd_replicas target with
  | Some replica ->
    replica.ob_status <- Dead;
    let works = outstanding_works replica in
    List.iter (fun w -> fail_work cl replica w Error.No_such_object) works;
    unregister cl replica;
    kill_object_procs cl replica
  | None -> ());
  invalidate_cached cl node target;
  Name.Table.remove node.nd_store target;
  Name.Table.remove node.nd_hints target;
  Name.Table.remove node.nd_forward target;
  Name.Table.remove node.nd_clone_sites target;
  (* The destroy notice reaches the registry shard like everyone else:
     its entry dies with the object. *)
  Name.Table.remove node.nd_dir target

(* -------------------------------------------------------------------- *)
(* Message handling *)

let handle_inv_request ?ctx cl node ~src:_ r =
  match r with
  | Message.Inv_request
      { inv_id; target; op; args; presented; reply_to; hops; may_activate;
        _ }
    -> (
    let route = Reply_remote { requester = reply_to; inv_id } in
    let w =
      { w_op = op; w_args = args; w_presented = presented; w_route = route;
        w_ctx = ctx }
    in
    let nack () =
      send_msg ?ctx cl node ~dst:reply_to
        (Message.Inv_nack { inv_id; target })
    in
    (* Exactly-once gate: cloning, hedging and the fault injector's
       duplicate verdict all deliver one logical request more than
       once.  A request we have already queued, started or had
       cancelled is dropped silently — the first copy answers (or its
       cancellation already told the requester's bookkeeping the
       answer does not matter). *)
    let fresh =
      match Dedup.find node.nd_recent inv_id with
      | Some (Dedup.Queued | Dedup.Started | Dedup.Cancelled) ->
        Metrics.incr (nm cl node).m_dedup;
        false
      | None -> true
    in
    let admit obj =
      Dedup.note_queued node.nd_recent inv_id;
      consume node
        (Costs.copy_cost (costs node) ~bytes:(Value.list_size_bytes args));
      enqueue_work cl obj w
    in
    if fresh then begin
    consume node (costs node).Costs.locate_lookup_cpu;
    match Name.Table.find_opt node.nd_active target with
    | Some obj -> admit obj
    | None -> (
      match Name.Table.find_opt node.nd_replicas target with
      | Some obj -> admit obj
      | None -> (
        let passive_here =
          match Name.Table.find_opt node.nd_store target with
          | Some snap -> snap.ss_passive || may_activate
          | None -> false
        in
        if passive_here then
          match activate cl node target with
          | Ok obj -> admit obj
          | Error Error.Disk_failed ->
            (* We cannot serve from a failed store; nack so the
               requester re-locates and finds a healthier checksite. *)
            nack ()
          | Error e ->
            (* No object record to route through: answer from here. *)
            deliver_reply cl node ~frozen:false route (Error e)
        else begin
          let forward_to =
            match Name.Table.find_opt node.nd_forward target with
            | Some f -> Some f
            | None -> Name.Table.find_opt node.nd_hints target
          in
          match forward_to with
          | Some next when hops < max_hops && next <> node.nd_id ->
            send_msg ?ctx cl node ~dst:next
              (Message.Inv_request
                 {
                   inv_id;
                   target;
                   op;
                   args;
                   presented;
                   reply_to;
                   hops = hops + 1;
                   may_activate;
                   span = None;
                 });
            (* Repair the requester's knowledge of the new location. *)
            if reply_to <> node.nd_id then
              send_msg ?ctx cl node ~dst:reply_to
                (Message.Hint_update { target; at_node = next })
          | Some _ | None -> nack ()
        end))
    end)
  | _ -> raise (Fatal "handle_inv_request: not an invocation request")

let handle_locate_request ?ctx cl node req =
  match req with
  | Message.Locate_request { req_id; target; reply_to } ->
    let answer ?(version = 0) residence =
      send_msg ?ctx cl node ~dst:reply_to
        (Message.Locate_reply
           { req_id; target; at_node = node.nd_id; residence; version })
    in
    if Name.Table.mem node.nd_active target then answer Message.Res_active
    else if Name.Table.mem node.nd_replicas target then
      answer Message.Res_replica
    else if node.nd_disk_ok then (
      (* A failed disk cannot reincarnate: stay silent so the
         requester picks a checksite that can.  The answer carries the
         snapshot's version so the requester reincarnates from the
         newest surviving state, not the first responder. *)
      match Name.Table.find_opt node.nd_store target with
      | Some snap -> answer ~version:snap.ss_version Message.Res_passive
      | None -> ())
  | _ -> raise (Fatal "handle_locate_request: wrong message")

let on_message cl node ~src { Message.tr_ctx; tr_msg = msg } =
  if node.nd_up then begin
    (* Journal the arrival linked to the sender's Send event, then hand
       every follow-on send the same trace with this Recv as parent. *)
    let recv_id =
      Journal.record_recv node.nd_journal ~at:(Engine.now cl.eng) ~ctx:tr_ctx
        ~src ~code:(Message.journal_code msg) ~name:(Message.journal_name msg)
        ~arg:(Message.journal_arg msg) ~str:(Message.journal_str msg)
    in
    let hctx =
      let trace =
        match tr_ctx with Some c -> Tracectx.trace c | None -> recv_id
      in
      Tracectx.make ~trace ~parent:recv_id
    in
    match msg with
    | Message.Inv_request _ ->
      ignore
        (spawn_kproc cl node ~name:"k:inv_req" (fun () ->
             handle_inv_request ~ctx:hctx cl node ~src msg))
    | Message.Inv_reply { inv_id; result; frozen_hint } ->
      (* Same origin discipline as the nack below: sequence numbers
         are node-local, so only a reply echoing one of OUR request
         ids may resolve pending state.  A foreign-origin reply —
         e.g. a cancelled clone's answer finally surfacing somewhere
         it was never addressed — must not resolve an unrelated
         request that happens to share the sequence number. *)
      if inv_id.Message.origin = node.nd_id then
        resolve_inv_pending cl node ~src inv_id.Message.seq
          (Inv_result (result, frozen_hint))
      else Metrics.incr (nm cl node).m_orphans
    | Message.Inv_nack { inv_id; target } ->
      (* Nack-after-crash: whatever routed us there is stale.  Purge
         the hint even when the pending entry already timed out, or a
         crashed-and-forgotten location would be re-trusted forever.
         The same evidence invalidates any cached frozen replica and
         evicts the nacking site from the clone set.
         Only a nack echoing one of OUR request ids may resolve
         pending state: sequence numbers are node-local, so a foreign
         origin's seq can collide with an unrelated in-flight request
         on this node. *)
      Name.Table.remove node.nd_hints target;
      Name.Table.remove node.nd_forward target;
      invalidate_cached cl node target;
      forget_clone_site node target src;
      if inv_id.Message.origin = node.nd_id then
        resolve_inv_pending cl node ~src inv_id.Message.seq Inv_nacked
    | Message.Cancel { inv_id; target = _ } -> (
      (* A requester withdrawing its clone (or its whole fan-out):
         queued work is dropped at dispatch, started work is left to
         finish — its reply lands in the requester's orphan
         accounting.  A cancel that overtook its own request (urgent
         sends bypass the coalescer) is remembered so the request is
         dropped on arrival. *)
      match Dedup.cancel node.nd_recent inv_id with
      | `Retracted | `Noted | `Too_late -> ())
    | Message.Hint_update { target; at_node } ->
      Name.Table.replace node.nd_hints target at_node
    | Message.Locate_request _ -> handle_locate_request ~ctx:hctx cl node msg
    | Message.Locate_reply { req_id; target; at_node; residence; version } -> (
      (* A replica answer teaches the clone set — even when the locate
         already resolved (the home usually answers first, and
         discovery broadcasts keep no pending entry at all): this site
         serves reads of the (frozen) name.  An active answer times the
         broadcast, even one whose window has closed. *)
      if residence = Message.Res_replica then
        learn_clone_site cl node target at_node
      else if residence = Message.Res_active then
        locate_answered cl node req_id.Message.seq;
      match Itbl.find_opt node.nd_pending req_id.Message.seq with
      | Some (P_locate st) -> (
        match residence with
        | Message.Res_active ->
          ignore (Promise.fill st.loc_active (at_node, residence))
        | Message.Res_replica ->
          st.loc_candidates <-
            (at_node, residence, version) :: st.loc_candidates
        | Message.Res_passive ->
          st.loc_candidates <-
            (at_node, residence, version) :: st.loc_candidates)
      | Some _ | None -> ())
    | Message.Create_request { req_id; type_name; init; reply_to } ->
      ignore
        (spawn_kproc cl node ~name:"k:create" (fun () ->
             let result = do_create_local cl node type_name init in
             send_msg ~ctx:hctx cl node ~dst:reply_to
               (Message.Create_reply { req_id; result })))
    | Message.Create_reply { req_id = id; _ }
    | Message.Move_ack { transfer_id = id; _ }
    | Message.Ckpt_ack { req_id = id; _ }
    | Message.Replica_ack { transfer_id = id; _ }
    | Message.Cache_data { req_id = id; _ } ->
      reply node id msg
    | Message.Move_transfer
        { target = _; type_name; repr; frozen = _; reliability = _; from_node;
          transfer_id } ->
      ignore
        (spawn_kproc cl node ~name:"k:move_in" (fun () ->
             let accepted =
               match admit cl node ~type_name ~repr with
               | Error _ -> false
               | Ok _ ->
                 consume node (costs node).Costs.activation_fixed_cpu;
                 true
             in
             send_msg ~ctx:hctx cl node ~dst:from_node
               (Message.Move_ack { transfer_id; accepted })))
    | Message.Ckpt_write
        { req_id; target; type_name; repr; version; reliability; frozen;
          reply_to } ->
      ignore
        (spawn_kproc cl node ~name:"k:ckpt" (fun () ->
             let ok =
               write_snapshot cl node ~target ~type_name ~repr ~version
                 ~reliability ~frozen ~passive:false
             in
             send_msg ~ctx:hctx cl node ~dst:reply_to
               (Message.Ckpt_ack { req_id; ok })))
    | Message.Ckpt_delta
        { req_id; target; type_name = _; delta; base_version; version;
          reliability; frozen; reply_to } ->
      ignore
        (spawn_kproc cl node ~name:"k:ckpt_delta" (fun () ->
             let ok =
               apply_delta_snapshot cl node ~target ~base_version ~version
                 ~delta ~reliability ~frozen
             in
             send_msg ~ctx:hctx cl node ~dst:reply_to
               (Message.Ckpt_ack { req_id; ok })))
    | Message.Ckpt_delete { target } -> Name.Table.remove node.nd_store target
    | Message.Ckpt_mark { target; passive; version } -> (
      (* A mark stamped below the stored snapshot's version is stale
         (reordered behind a later checkpoint): ignore it rather than
         flip the authority bit on newer state. *)
      match Name.Table.find_opt node.nd_store target with
      | Some snap when version >= snap.ss_version ->
        snap.ss_passive <- passive
      | Some _ | None -> ())
    | Message.Replica_install { target; type_name; repr; transfer_id; from_node }
      ->
      ignore
        (spawn_kproc cl node ~name:"k:replica" (fun () ->
             let accepted =
               match admit cl node ~type_name ~repr with
               | Error _ -> false
               | Ok (_, footprint, mem) when Name.Table.mem node.nd_replicas target
                 ->
                 (* Already replicated here; release the double
                    reservation and accept idempotently. *)
                 Memory.release mem footprint;
                 true
               | Ok (tm, footprint, _) ->
                 let obj =
                   build_obj cl ~name:target ~tm ~repr ~frozen:true
                     ~reliability:Reliability.Local ~home:node.nd_id
                     ~is_replica:true ~mem:footprint
                 in
                 spawn_coordinator cl obj;
                 Name.Table.replace node.nd_replicas target obj;
                 true
             in
             send_msg ~ctx:hctx cl node ~dst:from_node
               (Message.Replica_ack { transfer_id; accepted })))
    | Message.Destroy_notice { target } -> forget_object cl node target
    | Message.Cache_fetch { req_id; target; reply_to } ->
      (* Serve the frozen representation if we still hold one; [None]
         tells the requester its hint went stale and nothing is
         cached. *)
      let payload =
        match Name.Table.find_opt node.nd_active target with
        | Some obj when obj.ob_frozen && obj.ob_status = Running ->
          Some (Typemgr.name obj.ob_type, obj.ob_repr)
        | Some _ | None -> (
          match Name.Table.find_opt node.nd_replicas target with
          | Some obj when obj.ob_status = Running ->
            Some (Typemgr.name obj.ob_type, obj.ob_repr)
          | Some _ | None -> None)
      in
      send_msg ~ctx:hctx cl node ~dst:reply_to
        (Message.Cache_data { req_id; target; payload })
    | Message.Cache_invalidate { target } ->
      (* The version bump from unfreeze.  Purge location knowledge,
         the cached replica and the clone set (the object can mutate
         again, so speculative reads are over); carries no request id
         and never touches [nd_pending], so it cannot collide with an
         in-flight request. *)
      Name.Table.remove node.nd_hints target;
      Name.Table.remove node.nd_forward target;
      Name.Table.remove node.nd_clone_sites target;
      invalidate_cached cl node target
    | Message.Dir_put { req_id; target; home; replicas; lease } ->
      (* Our own request id coming back is the shard's positive reply
         to a [Dir_get]; anything else is a publish and this node is
         the shard.  The origin check is load-bearing: sequence
         numbers are node-local, so a foreign publish must never
         resolve an unrelated pending entry here. *)
      if req_id.Message.origin = node.nd_id then reply node req_id msg
      else dir_store node ~target ~home ~replicas ~lease
    | Message.Dir_get { req_id; target; reply_to } -> (
      (* Serve the registry.  The reply echoes the requester's own
         request id, so it routes to the pending lookup and nothing
         else.  An expired entry is dropped, not served: better one
         broadcast than a misdirected send to a long-dead home. *)
      match Name.Table.find_opt node.nd_dir target with
      | Some e when dir_lease_valid cl e.de_lease ->
        send_msg ~ctx:hctx cl node ~dst:reply_to
          (Message.Dir_put
             {
               req_id;
               target;
               home = e.de_home;
               replicas = e.de_replicas;
               lease = e.de_lease;
             })
      | entry ->
        (match entry with
        | Some _ ->
          Name.Table.remove node.nd_dir target;
          Metrics.incr (nm cl node).m_dir_leases
        | None -> ());
        Metrics.incr (nm cl node).m_dir_misses;
        send_msg ~ctx:hctx cl node ~dst:reply_to
          (Message.Dir_nack { req_id; target; home = -1 }))
    | Message.Dir_nack { req_id; target; home } ->
      (* Same origin discipline as [Dir_put]: our own id is the
         shard's miss reply; a foreign id is a requester's lazy
         NACK-on-wrong-home invalidation, honoured only while the
         entry still names the home the requester found stale. *)
      if req_id.Message.origin = node.nd_id then reply node req_id msg
      else (
        match Name.Table.find_opt node.nd_dir target with
        | Some e when e.de_home = home -> Name.Table.remove node.nd_dir target
        | Some _ | None -> ())
    | Message.Epoch_announce { epoch; members = _ } ->
      (* Adopt a newer membership view.  Epochs are totally ordered,
         so the highest one wins regardless of delivery order — a
         delayed or duplicated announce from a past reconfiguration is
         simply ignored.  The ring for the adopted epoch was cached
         cluster-side by the initiator; the member list on the wire is
         what a real kernel would rebuild it from. *)
      if epoch > node.nd_epoch then begin
        node.nd_epoch <- epoch;
        Metrics.incr (nm cl node).m_epoch_bumps;
        ignore (jrecord cl node ~ctx:hctx (Journal.Epoch_bump { epoch }))
      end
  end

(* -------------------------------------------------------------------- *)
(* Cluster construction and public operations *)

(* The paper's node abstraction (sec. 4.3): each node machine is itself
   reachable as an Eden object supplying resource information.  Node
   objects are kernel-resident: their code and structures live outside
   the object memory budget, and they are recreated under the same name
   when a machine restarts. *)
let node_type_for cl =
  let open Api in
  Typemgr.make_exn ~name:"eden_node" ~code_bytes:0 ~short_term_bytes:0
    [
      Typemgr.operation "info" ~mutates:false (fun ctx args ->
          let* () = no_args args in
          let node = cl.nodes.(ctx.node_id ()) in
          reply
            [
              Value.Int (Machine.config node.nd_machine).Machine.gdps;
              Value.Int (Memory.capacity node.nd_mem);
              Value.Int (Memory.available node.nd_mem);
              Value.Int (Name.Table.length node.nd_active);
            ]);
      Typemgr.operation "ping" ~mutates:false (fun _ args ->
          let* () = no_args args in
          reply []);
    ]

let install_node_object cl node name =
  match Hashtbl.find_opt cl.types "eden_node" with
  | None -> raise (Fatal "node type not registered")
  | Some tm ->
    Hashtbl.replace node.nd_types_loaded "eden_node" ();
    let obj =
      build_obj cl ~name ~tm ~repr:Value.Unit ~frozen:false
        ~reliability:Reliability.Local ~home:node.nd_id ~is_replica:false
        ~mem:0
    in
    spawn_coordinator cl obj;
    Name.Table.replace node.nd_active name obj

(* Sampled instruments: read pre-existing component counters (engine,
   MAC layer, hardware) at snapshot time instead of threading the
   registry through those layers. *)
let register_collectors cl =
  let reg = cl.c_metrics in
  Metrics.register_counter_fn reg "sim.events" (fun () ->
      Engine.events_processed cl.eng);
  Metrics.register_counter_fn reg "sim.processes_spawned" (fun () ->
      Engine.processes_spawned cl.eng);
  Metrics.register_gauge_fn reg "sim.processes_live" (fun () ->
      float_of_int (Engine.live_processes cl.eng));
  Metrics.register_gauge_fn reg "sim.runnable" (fun () ->
      float_of_int (Engine.runnable_processes cl.eng));
  Metrics.register_counter_fn reg "net.bridge_forwards" (fun () ->
      Transport.bridge_forwards cl.c_lan);
  Metrics.register_counter_fn reg "net.coalesced_batches" (fun () ->
      Transport.coalesced_batches cl.c_lan);
  Metrics.register_counter_fn reg "net.coalesced_messages" (fun () ->
      Transport.coalesced_messages cl.c_lan);
  for seg = 0 to Transport.segment_count cl.c_lan - 1 do
    let labels = [ ("segment", string_of_int seg) ] in
    let c name field =
      Metrics.register_counter_fn reg ~labels name (fun () ->
          field (Transport.segment_counters cl.c_lan).(seg))
    in
    let open Eden_net in
    c "net.frames_sent" (fun k -> k.Lan.frames_sent);
    c "net.frames_broadcast" (fun k -> k.Lan.frames_broadcast);
    c "net.frames_delivered" (fun k -> k.Lan.frames_delivered);
    c "net.frames_dropped" (fun k -> k.Lan.frames_dropped);
    c "net.bytes_delivered" (fun k -> k.Lan.payload_bytes_delivered);
    c "net.collisions" (fun k -> k.Lan.collision_events);
    c "net.backoffs" (fun k -> k.Lan.backoffs)
  done;
  Array.iter
    (fun node ->
      let labels = [ ("node", string_of_int node.nd_id) ] in
      let g name f = Metrics.register_gauge_fn reg ~labels name f in
      let c name f = Metrics.register_counter_fn reg ~labels name f in
      let machine = node.nd_machine in
      g "hw.cpu_utilisation" (fun () ->
          let over = Engine.now cl.eng in
          if Time.is_zero over then 0.0
          else Cpu.utilisation (Machine.cpu machine) ~over);
      c "hw.cpu_jobs" (fun () -> Cpu.jobs_completed (Machine.cpu machine));
      g "hw.disk_utilisation" (fun () ->
          let over = Engine.now cl.eng in
          if Time.is_zero over then 0.0
          else Disk.utilisation (Machine.disk machine) ~over);
      c "hw.disk_reads" (fun () -> Disk.reads (Machine.disk machine));
      c "hw.disk_writes" (fun () -> Disk.writes (Machine.disk machine));
      c "hw.disk_bytes_read" (fun () ->
          Disk.bytes_read (Machine.disk machine));
      c "hw.disk_bytes_written" (fun () ->
          Disk.bytes_written (Machine.disk machine));
      g "eden.active_objects" (fun () ->
          float_of_int (Name.Table.length node.nd_active));
      g "eden.mem_available_bytes" (fun () ->
          float_of_int (Memory.available node.nd_mem));
      g "eden.ckpt.async_inflight" (fun () ->
          float_of_int node.nd_ckpt_async);
      (* Depth gauges for the health plane: the deepest coordinator
         mailbox on this node, requests awaiting replies, and what the
         transport is holding (coalescing queues, partial
         reassemblies). *)
      g "eden.queue_depth" (fun () ->
          float_of_int
            (Name.Table.fold
               (fun _ obj acc -> max acc (Mailbox.length obj.ob_queue))
               node.nd_active 0));
      g "eden.pending_requests" (fun () ->
          float_of_int (Itbl.length node.nd_pending));
      g "net.queued_messages" (fun () ->
          float_of_int (Transport.queued_messages node.nd_tp));
      g "net.reassembly_pending" (fun () ->
          float_of_int (Transport.reassembly_pending node.nd_tp));
      c "eden.journal.events" (fun () -> Journal.recorded node.nd_journal);
      c "eden.journal.dropped" (fun () -> Journal.dropped node.nd_journal))
    cl.nodes

let create ?(seed = 42L) ?net ?(options = default_options) ?segments ?coalesce
    ?(journal_cap = default_journal_cap) ?health ?(spares = 0) ~configs () =
  if configs = [] then invalid_arg "Cluster.create: no machine configs";
  if spares < 0 then invalid_arg "Cluster.create: spares must be >= 0";
  if journal_cap < 0 then
    invalid_arg "Cluster.create: journal_cap must be >= 0";
  (match Api.validate_speculate options.speculate with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cluster.create: " ^ msg));
  let n_members = List.length configs in
  (* Spares are whole machines racked alongside the members: powered
     and attached to the LAN from boot, but outside the epoch-0 ring
     until [join_node] admits them. *)
  let configs =
    configs
    @ List.init spares (fun i ->
          Machine.default_config ~name:(Printf.sprintf "spare%d" i))
  in
  let n_nodes = List.length configs in
  let segment_sizes =
    match segments with
    | None -> [ n_nodes ]
    | Some sizes ->
      if List.exists (fun s -> s <= 0) sizes then
        invalid_arg "Cluster.create: segment sizes must be positive";
      if List.fold_left ( + ) 0 sizes <> n_members then
        invalid_arg "Cluster.create: segment sizes must sum to node count";
      if spares = 0 then sizes
      else (
        (* Spares share the last segment — an extension of the
           existing wing, not a new bridged one. *)
        let rec extend = function
          | [] -> assert false
          | [ last ] -> [ last + spares ]
          | s :: rest -> s :: extend rest
        in
        extend sizes)
  in
  (* Node id -> segment, in id order. *)
  let segment_of_index =
    let table = Array.make n_nodes 0 in
    let idx = ref 0 in
    List.iteri
      (fun seg size ->
        for _ = 1 to size do
          table.(!idx) <- seg;
          incr idx
        done)
      segment_sizes;
    table
  in
  let eng = Engine.create ~seed () in
  let lan =
    Transport.create_net ?params:net ?coalesce eng
      ~segments:(List.length segment_sizes)
  in
  let jsink = Journal.sink () in
  Journal.set_renderer jsink Message.render;
  let next_index = ref (-1) in
  let nodes =
    Array.of_list
      (List.map
         (fun cfg ->
           incr next_index;
           let machine = Machine.create eng cfg in
           let tp =
             Transport.attach lan
               ~segment:segment_of_index.(!next_index)
               ~name:cfg.Machine.name
           in
           {
             nd_id = Transport.address tp;
             nd_machine = machine;
             nd_tp = tp;
             nd_up = true;
             nd_disk_ok = true;
             nd_mem = Memory.create ~bytes:cfg.Machine.memory_bytes;
             nd_active = Name.Table.create 64;
             nd_replicas = Name.Table.create 16;
             nd_cache = Name.Table.create 16;
             nd_fetching = Name.Table.create 8;
             nd_cache_epoch = Name.Table.create 8;
             nd_store = Name.Table.create 64;
             nd_hints = Name.Table.create 64;
             nd_forward = Name.Table.create 16;
             nd_activating = Name.Table.create 8;
             nd_locating = Name.Table.create 8;
             nd_pending = Itbl.create 64;
             nd_seq = Idgen.create ();
             nd_rtt = Rtt.empty;
             nd_located_at = Array.make (2 * locate_slots) (-1);
             nd_clone_sites = Name.Table.create 8;
             nd_recent =
               Dedup.create ~ttl:dedup_ttl
                 ~now:(fun () -> Engine.now eng)
                 ~cap:dedup_cap ();
             nd_types_loaded = Hashtbl.create 16;
             nd_kprocs = Itbl.create 16;
             nd_ckpt_async = 0;
             nd_journal =
               Journal.create jsink ~node:(Transport.address tp)
                 ~cap:journal_cap;
             nd_dir = Name.Table.create 64;
             nd_epoch = 0;
             nd_draining = false;
           })
         configs)
  in
  let reg = Metrics.create () in
  let cl =
    {
      eng;
      c_lan = lan;
      nodes;
      types = Hashtbl.create 16;
      c_rng = Splitmix.create (Int64.add seed 0x51EDEAL);
      opts = options;
      c_node_objects = [||];
      n_inv = 0;
      c_metrics = reg;
      c_lat =
        Metrics.histogram reg ~buckets:latency_buckets
          "eden.invocation_latency_s";
      c_nm =
        Array.init n_nodes (fun i ->
            let labels = [ ("node", string_of_int i) ] in
            {
              m_inv = Metrics.counter reg ~labels "eden.invocations";
              m_remote =
                Metrics.counter reg ~labels "eden.invocations_remote";
              m_dispatch = Metrics.counter reg ~labels "eden.dispatches";
              m_hint_hit = Metrics.counter reg ~labels "eden.hint_hits";
              m_hint_miss = Metrics.counter reg ~labels "eden.hint_misses";
              m_locates =
                Metrics.counter reg ~labels "eden.locate_broadcasts";
              m_nacks = Metrics.counter reg ~labels "eden.nacks";
              m_ckpts = Metrics.counter reg ~labels "eden.checkpoints";
              m_ckpt_bytes =
                Metrics.counter reg ~labels "eden.checkpoint_bytes";
              m_retries = Metrics.counter reg ~labels "eden.retries";
              m_recoveries = Metrics.counter reg ~labels "eden.recoveries";
              m_orphans =
                Metrics.counter reg ~labels "eden.orphaned_invocations";
              m_cache_hit =
                Metrics.counter reg ~labels "eden.replica_cache.hits";
              m_cache_miss =
                Metrics.counter reg ~labels "eden.replica_cache.misses";
              m_cache_inval =
                Metrics.counter reg ~labels "eden.replica_cache.invalidations";
              m_ckpt_delta_bytes =
                Metrics.counter reg ~labels "eden.ckpt.delta_bytes";
              m_ckpt_full_bytes =
                Metrics.counter reg ~labels "eden.ckpt.full_bytes";
              m_ckpt_fallbacks =
                Metrics.counter reg ~labels "eden.ckpt.fallbacks";
              m_ckpt_coalesced =
                Metrics.counter reg ~labels "eden.ckpt.coalesced";
              m_clone_fanouts =
                Metrics.counter reg ~labels "eden.clone.fanouts";
              m_clone_cancels =
                Metrics.counter reg ~labels "eden.clone.cancels";
              m_hedges = Metrics.counter reg ~labels "eden.hedge.sent";
              m_dedup = Metrics.counter reg ~labels "eden.dedup.dropped";
              m_retracted =
                Metrics.counter reg ~labels "eden.cancel.retracted";
              m_dir_hits = Metrics.counter reg ~labels "eden.dir.hits";
              m_dir_misses = Metrics.counter reg ~labels "eden.dir.misses";
              m_dir_nacks = Metrics.counter reg ~labels "eden.dir.nacks";
              m_dir_fallbacks =
                Metrics.counter reg ~labels "eden.dir.fallbacks";
              m_dir_leases =
                Metrics.counter reg ~labels "eden.dir.leases_expired";
              m_epoch_bumps =
                Metrics.counter reg ~labels "eden.epoch.bumps";
              m_drain_moves =
                Metrics.counter reg ~labels "eden.drain.moves";
            });
      c_labels = Name.Table.create 64;
      c_jsink = jsink;
      c_health = None;
      c_hedge =
        (if options.speculate.Api.sp_hedge then
           Some
             {
               hs_hist =
                 Window.Hist.create ~ticks:hedge_ticks
                   ~bounds:latency_buckets;
               hs_tick = Array.make (Array.length latency_buckets) 0;
               hs_tick_over = 0;
             }
         else None);
      (* The shard map is a pure function of the member set: every
         node computes the same ring, no coordination.  Spares are
         excluded until a join bumps the epoch. *)
      c_dir = lazy (Directory.make ~nodes:(List.init n_members Fun.id));
      c_epoch = 0;
      c_members = List.init n_members Fun.id;
      c_rings = Hashtbl.create 8;
      c_make_ctx = make_ctx;
    }
  in
  (* The hedge estimator's tick, like the health sampler a daemon on
     the virtual clock; absent entirely when hedging is off, so the
     default cost (and event) profile is untouched. *)
  (match cl.c_hedge with
  | None -> ()
  | Some hs ->
    Engine.every eng ~interval:hedge_tick (fun () -> hedge_close_tick hs));
  register_collectors cl;
  Array.iter
    (fun node ->
      Transport.on_message node.nd_tp (fun ~src msg ->
          on_message cl node ~src msg))
    nodes;
  (* Wire-level verdicts (drops, duplicates, delays, departures) are
     journalled at the sending node.  The counts root their own trace:
     the injector fires below the layer that knows contexts.  A hold or
     a departure is also journalled once per payload, against that
     payload's trace, so the attribution walk can split coalescer hold
     and injected hold out of a request's wire time. *)
  let record src ?ctx kind =
    if src >= 0 && src < Array.length nodes then
      ignore (jrecord cl nodes.(src) ?ctx kind)
  in
  let each src items kind =
    List.iter
      (fun (m : Message.traced) -> record src ?ctx:m.Message.tr_ctx kind)
      items
  in
  Transport.set_event_hook lan
    (Some
       (fun ev ->
         match ev with
         | Transport.Ev_drop { src; dst; msgs } ->
           record src (Journal.Drop { dst; msgs })
         | Transport.Ev_duplicate { src; dst; msgs } ->
           record src (Journal.Duplicate { dst; msgs })
         | Transport.Ev_delay { src; dst; msgs; by; items } ->
           record src (Journal.Delay { dst; msgs });
           each src items (Journal.Net_hold { dst; by })
         | Transport.Ev_depart { src; dst; msgs; items } ->
           if msgs > 1 then record src (Journal.Coalesce { dst; msgs });
           each src items (Journal.Net_flush { dst; msgs })));
  Hashtbl.replace cl.types "eden_node" (node_type_for cl);
  cl.c_node_objects <-
    Array.map
      (fun node ->
        let name =
          Name.make ~birth_node:node.nd_id ~serial:(next_seq node)
        in
        install_node_object cl node name;
        Capability.make name Rights.invoke_only)
      nodes;
  (* The health plane is strictly opt-in: without [~health] no sampler
     is installed and the hot paths skip the sketch feed, so existing
     runs keep their exact cost profile. *)
  (match health with
  | None -> ()
  | Some hcfg ->
    let hp_topk =
      Array.init n_nodes (fun _ -> Topk.create ~capacity:topk_capacity)
    in
    let transitions = Metrics.counter reg "eden.health.transitions" in
    (* Alert transitions are journalled at node 0 — the health plane is
       a cluster-level observer, and a fixed node keeps the stream
       totally ordered in the merged timeline. *)
    let on_transition rule ~firing ~value:_ =
      Metrics.incr transitions;
      ignore
        (jrecord cl cl.nodes.(0)
           (Journal.Alert { rule = rule.Health.r_name; firing }))
    in
    let h = Health.create ~on_transition hcfg reg in
    Metrics.register_gauge_fn reg "eden.health.alerts_firing" (fun () ->
        float_of_int (Health.firing h));
    Metrics.register_counter_fn reg "eden.health.ticks" (fun () ->
        Health.ticks h);
    cl.c_health <- Some { hp_health = h; hp_topk };
    Engine.every eng ~interval:hcfg.Health.hc_tick (fun () -> Health.tick h));
  cl

let default ?seed ?options ?coalesce ?journal_cap ?health ?spares ~n_nodes () =
  if n_nodes < 1 then invalid_arg "Cluster.default: need at least one node";
  let configs =
    List.init n_nodes (fun i ->
        Machine.default_config ~name:(Printf.sprintf "node%d" i))
  in
  create ?seed ?options ?coalesce ?journal_cap ?health ?spares ~configs ()

let engine cl = cl.eng
let network cl = cl.c_lan
let node_segment cl i = Transport.segment (node_of cl i).nd_tp
let node_count cl = Array.length cl.nodes
let journal cl i = (node_of cl i).nd_journal

let journals cl =
  Array.to_list (Array.map (fun node -> node.nd_journal) cl.nodes)

let timeline cl = Timeline.assemble (journals cl)

let journal_dropped cl =
  Array.fold_left
    (fun acc node -> acc + Journal.dropped node.nd_journal)
    0 cl.nodes

let health cl = Option.map (fun hp -> hp.hp_health) cl.c_health

(* The canonical owner at the current epoch — no liveness detour, so
   the answer is a pure function of the membership (for tests and
   tooling; the kernel's own routing detours past downed shards). *)
let directory_shard cl name = Directory.shard (ring_of cl cl.c_epoch) name

let hot_objects cl ?(k = 10) i =
  ignore (node_of cl i);
  match cl.c_health with
  | None -> []
  | Some hp -> Topk.top hp.hp_topk.(i) k

let hot_objects_rollup cl ?(k = 10) () =
  match cl.c_health with
  | None -> []
  | Some hp ->
    Topk.top
      (Topk.merge ~capacity:topk_capacity (Array.to_list hp.hp_topk))
      k
let machine cl i = (node_of cl i).nd_machine
let node_up cl i = (node_of cl i).nd_up

let node_object cl i =
  ignore (node_of cl i);
  cl.c_node_objects.(i)

let register_type cl tm =
  let tname = Typemgr.name tm in
  match Hashtbl.find_opt cl.types tname with
  | Some existing when existing == tm -> ()
  | Some _ ->
    invalid_arg
      (Printf.sprintf "Cluster.register_type: %S already registered" tname)
  | None -> Hashtbl.replace cl.types tname tm

let find_type cl tname = Hashtbl.find_opt cl.types tname

let create_object cl ~node ~type_name init =
  do_create_local cl (node_of cl node) type_name init

let invoke cl ~from ?timeout ?retry cap ~op args =
  do_invoke cl ~from ?timeout ?retry cap ~op args

let invoke_async cl ~from ?timeout ?retry cap ~op args =
  let pr = Promise.create cl.eng in
  let pid =
    Engine.spawn cl.eng ~name:"invoke_async" (fun () ->
        let r = do_invoke cl ~from ?timeout ?retry cap ~op args in
        ignore (Promise.fill pr r))
  in
  Engine.set_daemon cl.eng pid;
  pr

(* Find the live primary of an object, scanning all nodes (an
   omniscient control-plane shortcut used by the external management
   operations and tests). *)
let find_primary cl name =
  let found = ref None in
  Array.iter
    (fun node ->
      if !found = None && node.nd_up then
        match Name.Table.find_opt node.nd_active name with
        | Some obj when obj.ob_status <> Dead -> found := Some obj
        | Some _ | None -> ())
    cl.nodes;
  !found

let require_right cap right opname =
  if Rights.mem right (Capability.rights cap) then Ok ()
  else Error (Error.Rights_violation opname)

let primary cl cap =
  Option.to_result ~none:Error.No_such_object
    (find_primary cl (Capability.name cap))

(* Each operation checks rights, then the node argument, then that the
   object exists, and reports the first failure. *)
let move cl cap ~to_node =
  let* () = require_right cap Rights.Kernel_move "move" in
  let* () = node_in_range cl to_node in
  let* obj = primary cl cap in
  do_move cl obj ~to_node ~self_inflight:false

let freeze cl cap =
  let* () = require_right cap Rights.Kernel_checkpoint "freeze" in
  let* obj = primary cl cap in
  obj.ob_frozen <- true;
  Ok ()

let unfreeze cl cap =
  let* () = require_right cap Rights.Kernel_checkpoint "unfreeze" in
  let* obj = primary cl cap in
  let name = obj.ob_name in
  if not obj.ob_frozen then Ok ()
  else if
    Array.exists
      (fun node -> node.nd_up && Name.Table.mem node.nd_replicas name)
      cl.nodes
  then Error (Error.Move_refused "object has pinned replicas")
  else begin
    obj.ob_frozen <- false;
    let node = home cl obj in
    (* The version bump: every cached copy of the pre-thaw
       representation is now stale.  [Cache_invalidate] purges hints
       and cached replicas cluster-wide (broadcasts bypass the unicast
       fault injector, so it is reliable under chaos too); it carries
       no request id, so it can never be mistaken for a reply to some
       unrelated request in flight on a receiving node.  The broadcast
       skips the sender, so the home node — which may itself hold a
       cached copy from before the object migrated here — is
       invalidated directly. *)
    invalidate_cached cl node name;
    bcast_msg cl node (Message.Cache_invalidate { target = name });
    Ok ()
  end

let replicate cl cap ~to_node =
  let* () = require_right cap Rights.Kernel_checkpoint "replicate" in
  let* () = node_in_range cl to_node in
  let* obj = primary cl cap in
  do_replicate cl obj ~to_node

let checkpoint_of cl cap =
  let* () = require_right cap Rights.Kernel_checkpoint "checkpoint" in
  let* obj = primary cl cap in
  do_checkpoint cl obj

let checkpoint_async_of cl cap =
  let* () = require_right cap Rights.Kernel_checkpoint "checkpoint" in
  let* obj = primary cl cap in
  do_checkpoint_async cl obj

let destroy cl cap =
  match require_right cap Rights.Kernel_destroy "destroy" with
  | Error e -> Error e
  | Ok () ->
    let name = Capability.name cap in
    let existed = ref false in
    (* Dismantle the primary without marking anything passive: there
       will be nothing to reincarnate from. *)
    (match find_primary cl name with
    | Some obj ->
      existed := true;
      obj.ob_status <- Dead;
      let works = outstanding_works obj in
      List.iter (fun w -> fail_work cl obj w Error.No_such_object) works;
      unregister cl obj;
      kill_object_procs cl obj
    | None -> ());
    (* Existence check is omniscient (control plane); the purge itself
       travels as a broadcast notice, so a powered-off node keeps its
       snapshot — a real 1981 limitation, noted in DESIGN.md. *)
    Array.iter
      (fun node ->
        if
          node.nd_up
          && (Name.Table.mem node.nd_store name
             || Name.Table.mem node.nd_replicas name)
        then existed := true)
      cl.nodes;
    (match
       Array.find_opt (fun node -> node.nd_up) cl.nodes
     with
    | None -> ()
    | Some origin ->
      forget_object cl origin name;
      bcast_msg cl origin (Message.Destroy_notice { target = name }));
    if !existed then Ok () else Error Error.No_such_object

(* -------------------------------------------------------------------- *)
(* Failure injection *)

let crash_node cl i =
  let node = node_of cl i in
  if node.nd_up then begin
    node.nd_up <- false;
    Transport.set_up node.nd_tp false;
    let objs =
      Name.Table.fold (fun _ o acc -> o :: acc) node.nd_active []
      @ Name.Table.fold (fun _ o acc -> o :: acc) node.nd_replicas []
      @ Name.Table.fold (fun _ o acc -> o :: acc) node.nd_cache []
    in
    List.iter
      (fun obj ->
        obj.ob_status <- Dead;
        (* Volatile state evaporates: no replies, no notifications. *)
        kill_object_procs cl obj)
      objs;
    Name.Table.reset node.nd_active;
    Name.Table.reset node.nd_replicas;
    Name.Table.reset node.nd_cache;
    Name.Table.reset node.nd_fetching;
    Name.Table.reset node.nd_cache_epoch;
    Name.Table.reset node.nd_hints;
    Name.Table.reset node.nd_forward;
    Name.Table.reset node.nd_activating;
    Name.Table.iter (fun _ pr -> ignore (Promise.fill pr None)) node.nd_locating;
    Name.Table.reset node.nd_locating;
    Name.Table.reset node.nd_clone_sites;
    (* The registry shard is volatile kernel memory: requesters meet
       misses after the restart, fall back to broadcast, and their
       republishes rebuild the shard on demand. *)
    Name.Table.reset node.nd_dir;
    (* Volatile like the rest — but [nd_seq] survives, so request ids
       issued after the restart can never collide with pre-crash ones
       still remembered elsewhere. *)
    Dedup.reset node.nd_recent;
    Itbl.reset node.nd_pending;
    node.nd_rtt <- Rtt.empty;
    Array.fill node.nd_located_at 0 (2 * locate_slots) (-1);
    Hashtbl.reset node.nd_types_loaded;
    node.nd_mem <-
      Memory.create
        ~bytes:(Machine.config node.nd_machine).Machine.memory_bytes;
    let kprocs = take_pids node.nd_kprocs in
    List.iter (fun p -> Engine.kill cl.eng p) kprocs
  end

(* Reincarnate every object whose durable checkpoint lives on this
   freshly-restarted node and which is active nowhere.  Among the up
   checksites with a working disk and a stored snapshot, the one
   holding the highest snapshot version rebuilds (the earliest listed
   site on a tie), so a Mirrored object restarting on several sites at
   once reactivates exactly once — and from its newest state, not from
   whichever stale mirror happens to be listed first. *)
let rebuild_from_store cl node =
  let candidates =
    Name.Table.fold
      (fun name snap acc -> if snap.ss_passive then (name, snap) :: acc else acc)
      node.nd_store []
    |> List.sort (fun (a, _) (b, _) -> Name.compare a b)
  in
  List.iter
    (fun (name, snap) ->
      let sites =
        Reliability.checksites snap.ss_reliability ~home:node.nd_id
      in
      let best_able =
        List.fold_left
          (fun best s ->
            if
              s < 0
              || s >= Array.length cl.nodes
              || (not cl.nodes.(s).nd_up)
              || not cl.nodes.(s).nd_disk_ok
            then best
            else
              match Name.Table.find_opt cl.nodes.(s).nd_store name with
              | None -> best
              | Some ss -> (
                match best with
                | Some (_, bv) when bv >= ss.ss_version -> best
                | _ -> Some (s, ss.ss_version)))
          None sites
      in
      match best_able with
      | Some (s, _) when s = node.nd_id && find_primary cl name = None -> (
        match activate cl node name with
        | Ok _ -> ()
        | Error _ -> () (* object stays passive; invocation will retry *))
      | _ -> ())
    candidates

let restart_node ?(rebuild = false) cl i =
  let node = node_of cl i in
  if not node.nd_up then begin
    node.nd_up <- true;
    Transport.set_up node.nd_tp true;
    (* A node that slept through reconfigurations catches up at boot
       (a real kernel would learn the epoch from its first exchange).
       Journalled only when the view actually moves — invariant 7
       demands strict increase per node. *)
    if cl.c_epoch > node.nd_epoch then begin
      node.nd_epoch <- cl.c_epoch;
      Metrics.incr (nm cl node).m_epoch_bumps;
      ignore (jrecord cl node (Journal.Epoch_bump { epoch = cl.c_epoch }))
    end;
    (* Everything checkpointed to this node's disk is authoritatively
       passive if it was active here at the crash: conservatively mark
       all local snapshots passive unless some other node currently
       runs the object (it will answer locates first anyway). *)
    Name.Table.iter (fun _ snap -> snap.ss_passive <- true) node.nd_store;
    (* The kernel reboots its node object under its boot-time name. *)
    if Array.length cl.c_node_objects > i then
      install_node_object cl node
        (Capability.name cl.c_node_objects.(i));
    if rebuild && node.nd_disk_ok then
      ignore
        (spawn_kproc cl node ~name:"k:rebuild" (fun () ->
             rebuild_from_store cl node))
  end

let set_disk_failed cl i failed =
  let node = node_of cl i in
  if node.nd_disk_ok = failed then node.nd_disk_ok <- not failed

(* -------------------------------------------------------------------- *)
(* Online reconfiguration: epoch-stamped membership.

   The membership table is a pair (epoch, member list).  Every change
   — a spare joining, a member decommissioning — bumps the epoch,
   captures the new epoch's member list for its ring (built on first
   lookup), journals the initiator's [Epoch_bump] and broadcasts an
   [Epoch_announce]; other nodes adopt the view when the announce
   lands (or at their next power-on).  Nothing blocks on the
   announce: a node serving through an old view resolves against that
   view's own ring, and the consistent ring's minimal-remap
   property bounds the churn — one membership step moves about 1/n of
   the name space, and invariant 7 pins that a lagging view can cost a
   detour or a broadcast, never a stranded locate. *)

let epoch cl = cl.c_epoch
let members cl = cl.c_members
let is_member cl i = List.mem (node_of cl i).nd_id cl.c_members
let is_draining cl i = (node_of cl i).nd_draining

let bump_epoch cl node ~members =
  cl.c_epoch <- cl.c_epoch + 1;
  cl.c_members <- members;
  Hashtbl.replace cl.c_rings cl.c_epoch
    (lazy (Directory.make ~nodes:members));
  node.nd_epoch <- cl.c_epoch;
  Metrics.incr (nm cl node).m_epoch_bumps;
  let ev = jrecord cl node (Journal.Epoch_bump { epoch = cl.c_epoch }) in
  bcast_msg ~ctx:(Tracectx.root ev) cl node
    (Message.Epoch_announce { epoch = cl.c_epoch; members })

let join_node cl i =
  let node = node_of cl i in
  if List.mem i cl.c_members then
    Error (Printf.sprintf "node %d is already a member" i)
  else if not node.nd_up then
    Error (Printf.sprintf "node %d is powered off" i)
  else begin
    bump_epoch cl node ~members:(List.sort Int.compare (i :: cl.c_members));
    Ok ()
  end

(* The drain destination for one evacuated object: the least-loaded
   live member that is neither leaving nor itself draining, lowest id
   on ties — deterministic, so same-seed runs evacuate identically. *)
let drain_target cl ~leaving =
  List.fold_left
    (fun best m ->
      if m = leaving || (not cl.nodes.(m).nd_up) || cl.nodes.(m).nd_draining
      then best
      else
        let load = Name.Table.length cl.nodes.(m).nd_active in
        match best with
        | Some (_, bl) when bl <= load -> best
        | Some _ | None -> Some (m, load))
    None cl.c_members

(* Blocking.  Drain, then leave: checkpoint and move every object
   homed here to surviving members (each move republishes the new
   home to the name's registry shard), bump the epoch without this
   node, and only then power off.  Traffic keeps flowing throughout —
   requests during a move queue and forward as usual.  An object whose
   move fails stays put and relies on its fresh checkpoint for
   reincarnation after the power-off. *)
let decommission_node cl i =
  let node = node_of cl i in
  if not (List.mem i cl.c_members) then
    Error (Printf.sprintf "node %d is not a member" i)
  else if not node.nd_up then
    Error (Printf.sprintf "node %d is powered off" i)
  else if List.length cl.c_members <= 1 then
    Error "cannot decommission the last member"
  else begin
    node.nd_draining <- true;
    let victims =
      Name.Table.fold (fun _ o acc -> o :: acc) node.nd_active []
      |> List.filter (fun o ->
             o.ob_status <> Dead && Typemgr.name o.ob_type <> "eden_node")
      |> List.sort (fun a b -> Name.compare a.ob_name b.ob_name)
    in
    List.iter
      (fun obj ->
        (* Re-check per object: traffic is live, so an earlier victim
           may have died or been moved away while we drained. *)
        if obj.ob_status <> Dead && obj.ob_home = i then
          match drain_target cl ~leaving:i with
          | None -> () (* no live destination; the checkpoint covers us *)
          | Some (to_node, _) -> (
            (* Checkpoint first so the state is durable whatever the
               move does — and so the move's own post-transfer rounds
               ride the delta pipeline against a fresh base. *)
            ignore (do_checkpoint cl obj);
            match do_move cl obj ~to_node ~self_inflight:false with
            | Ok () ->
              Metrics.incr (nm cl node).m_drain_moves;
              ignore
                (jrecord cl node
                   (Journal.Drain_move
                      { target = obj.ob_label; to_node }))
            | Error _ -> ()))
      victims;
    bump_epoch cl node ~members:(List.filter (fun m -> m <> i) cl.c_members);
    node.nd_draining <- false;
    crash_node cl i;
    Ok ()
  end

(* -------------------------------------------------------------------- *)
(* Introspection *)

let where_is cl cap =
  match find_primary cl (Capability.name cap) with
  | Some obj -> Some obj.ob_home
  | None -> None

let is_active cl cap = where_is cl cap <> None

let tracked_processes cl cap =
  match find_primary cl (Capability.name cap) with
  | Some obj -> Some (Itbl.length obj.ob_proc_pids)
  | None -> None

let replica_sites cl cap =
  let name = Capability.name cap in
  Array.to_list cl.nodes
  |> List.filter_map (fun node ->
         if node.nd_up && Name.Table.mem node.nd_replicas name then
           Some node.nd_id
         else None)

let checkpoint_sites cl cap =
  let name = Capability.name cap in
  Array.to_list cl.nodes
  |> List.filter_map (fun node ->
         if Name.Table.mem node.nd_store name then Some node.nd_id else None)

let active_objects cl i = Name.Table.length (node_of cl i).nd_active
let stats_invocations cl = cl.n_inv

let stats_remote_invocations cl =
  Array.fold_left
    (fun acc m -> acc + Metrics.counter_value m.m_remote)
    0 cl.c_nm
let metrics cl = cl.c_metrics

let metrics_snapshot cl =
  Eden_obs.Snapshot.take ~at:(Engine.now cl.eng) cl.c_metrics

(* -------------------------------------------------------------------- *)
(* Running *)

let in_process cl ?(name = "driver") f = Engine.spawn cl.eng ~name f
let run ?until cl = Engine.run ?until cl.eng
