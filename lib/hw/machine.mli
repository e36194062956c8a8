(** An Eden node machine.

    Composes the processor pool and mass storage of one node (Figure 2
    of the paper).  The kernel layer models each node's primary memory
    (sized by [memory_bytes]) and attaches the network interface, which
    joins machines to a LAN. *)

type config = {
  name : string;
  gdps : int;  (** General Data Processors in the central system *)
  memory_bytes : int;
  disk_profile : Disk.profile;
  costs : Costs.t;
}

val default_config : name:string -> config
(** The default Eden node: 2 GDPs, 1 MB of memory, a small local disk. *)

val file_server_config : name:string -> config
(** A node configured as a file server: 2 GDPs, 2.5 MB, 300 MB disk. *)

type t

val create : Eden_sim.Engine.t -> config -> t
val config : t -> config
val cpu : t -> Cpu.t
val disk : t -> Disk.t
