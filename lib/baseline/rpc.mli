(** Location-{e dependent} remote procedure call — the comparison
    baseline for Eden's location transparency.

    The same machines, LAN and cost model as the Eden kernel, but the
    "traditional programming methodology" of 1981 networks: a caller
    names the {e node} that hosts a procedure.  There is no locate
    protocol, no capability check, no coordinator, no forwarding, no
    mobility.  The difference between an {!call} here and an
    {!Eden_kernel.Cluster.invoke} is, by construction, the price of the
    Eden object model (experiment E9). *)

open Eden_util
open Eden_kernel

type t

type ctx = {
  rpc_node : int;  (** the node this handler runs on *)
  rpc_compute : Time.t -> unit;  (** consume local CPU *)
  rpc_call :
    ?timeout:Time.t ->
    node:int ->
    proc:string ->
    Value.t list ->
    (Value.t list, Error.t) result;
      (** nested call to another node's procedure *)
}

type handler = ctx -> Value.t list -> (Value.t list, Error.t) result

val default : ?seed:int64 -> n_nodes:int -> unit -> t
val engine : t -> Eden_sim.Engine.t
val node_count : t -> int

val register : t -> node:int -> proc:string -> handler -> unit
(** Raises [Invalid_argument] on a duplicate (node, proc) pair. *)

val call :
  t ->
  from:int ->
  ?timeout:Time.t ->
  node:int ->
  proc:string ->
  Value.t list ->
  (Value.t list, Error.t) result
(** Blocking.  Local calls skip the network; calls naming a node with
    no such procedure fail with [No_such_operation]. *)

val in_process : t -> ?name:string -> (unit -> unit) -> Eden_sim.Engine.Pid.t
val run : ?until:Time.t -> t -> unit
