(** A multi-user mail system — the paper's motivating "integration"
    scenario: users on different node machines sharing information
    through objects.

    Three Eden types: a {e mailbox} per user (on the user's own node),
    a shared {e registry} mapping user names to mailbox capabilities,
    and the messages themselves as plain values.  {!run} drives a
    send/receive workload and reports delivery statistics. *)

open Eden_util
open Eden_kernel

val register_types : Cluster.t -> unit

type setup = {
  registry : Capability.t;
  mailboxes : (string * int * Capability.t) list;
      (** user name, home node, mailbox capability *)
}

val build :
  Cluster.t -> registry_node:int -> users_per_node:int ->
  (setup, Error.t) result
(** Blocking.  Create one mailbox per user on the user's home node and
    a registry on [registry_node]; users are named ["u<node>.<k>"]. *)

type results = {
  sent : int;
  send_failures : int;
  fetched : int;  (** messages eventually read by their recipients *)
  send_latency : Stats.t;  (** lookup + deposit time, seconds *)
}

val run :
  Cluster.t ->
  setup ->
  messages_per_user:int ->
  think_mean_s:float ->
  results
(** Blocking-free: spawns one sender process per user (messages to
    uniformly random recipients via registry lookup), runs the cluster
    to completion, then drains every mailbox. *)
