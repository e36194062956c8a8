(** The software-development workload from the paper's motivation:
    programmers on their node machines edit source files (EFS
    transactions) and run them through a {e compiler} — a frozen Eden
    object that can be "replicated and cached at several sites in order
    to save the overhead of remote invocations".

    The compiler object's operation takes a file capability, reads the
    file's current version, burns CPU proportional to the source size,
    and returns the produced object-code size.  Because the compiler is
    frozen, installing a replica on a programmer's node makes the
    compile-invocation itself local; the source read still follows the
    version's placement. *)

open Eden_util
open Eden_kernel

val install :
  Cluster.t ->
  node:int ->
  ?replicate_to:int list ->
  unit ->
  (Capability.t, Error.t) result
(** Blocking.  Create the compiler on [node], freeze it, and install
    replicas at [replicate_to]. *)

type results = {
  edits : int;
  compiles : int;
  failures : int;
  edit_latency : Stats.t;  (** seconds per committed edit transaction *)
  compile_latency : Stats.t;  (** seconds per compile invocation *)
}

val run :
  Cluster.t ->
  compiler:Capability.t ->
  programmers:int list ->
  cycles:int ->
  source_bytes:int ->
  results
(** Blocking-free.  Each programmer node gets its own source file
    (created on that node) and loops [cycles] times: edit (locking
    transaction replacing the source) then compile.  EFS types and the
    compiler must already be registered/installed. *)
