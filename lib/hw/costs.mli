(** Calibrated per-primitive CPU service times.

    These constants stand in for the Intel iAPX 432 General Data
    Processor.  The paper flags invocation and address-space creation
    as the GDP's performance question marks, so those paths carry the
    largest costs.  Absolute values are synthetic-but-plausible for
    ~1981 hardware (a sub-1-MIPS processor); experiments depend on
    their ratios, not their absolute magnitudes. *)

type t = {
  invoke_request_cpu : Eden_util.Time.t;
      (** caller side: capability check, message construction *)
  invoke_dispatch_cpu : Eden_util.Time.t;
      (** coordinator: rights verification, class dispatch *)
  process_create_cpu : Eden_util.Time.t;
      (** creating an invocation process (432 address-space creation) *)
  invoke_reply_cpu : Eden_util.Time.t;
      (** packaging and consuming the reply *)
  per_byte_copy : Eden_util.Time.t;  (** marshalling cost per payload byte *)
  locate_lookup_cpu : Eden_util.Time.t;
      (** one location-table or hint-cache probe *)
  checkpoint_fixed_cpu : Eden_util.Time.t;
      (** preparing a representation snapshot, excluding disk I/O *)
  activation_fixed_cpu : Eden_util.Time.t;
      (** coordinator creation + reincarnation-handler entry *)
  delta_scan_per_byte : Eden_util.Time.t;
      (** comparing the representation against the last checkpointed
          version to find dirty chunks (a read-only sweep, cheaper
          than copying) *)
}

val default : t

val copy_cost : t -> bytes:int -> Eden_util.Time.t
(** Marshalling cost for a payload of the given size. *)

val delta_scan_cost : t -> bytes:int -> Eden_util.Time.t
(** CPU cost of diffing a representation of the given size against its
    last checkpointed version. *)
