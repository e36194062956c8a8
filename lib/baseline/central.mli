(** The "good centralized system" pole of the paper's introduction.

    A time-sharing configuration on the Eden substrate: one well-
    provisioned central server plus thin terminal nodes that place all
    their objects on the server and reach them over the LAN.  Used by
    experiment E9 to reproduce the integration-vs-distribution
    trade-off that motivates Eden. *)

val server_node : int
(** The node id of the central server (always 0). *)

val cluster :
  ?seed:int64 ->
  terminals:int ->
  unit ->
  Eden_kernel.Cluster.t
(** A cluster with node 0 as the central server (8 GDPs, 8 MB) and [terminals] single-GDP terminal nodes with minimal
    memory.  Requires [terminals >= 1]. *)

val create_on_server :
  Eden_kernel.Cluster.t ->
  type_name:string ->
  Eden_kernel.Value.t ->
  (Eden_kernel.Capability.t, Eden_kernel.Error.t) result
(** Blocking.  Create an object on the central server, as every
    centralized-configuration workload does. *)
