(** A minimal self-contained JSON value type, printer and parser.

    The observability layer exports metric snapshots, timelines and
    profiles as JSON so that external tooling can re-check every number
    an experiment reports.  The repository deliberately avoids an
    external JSON dependency; this module implements the subset of RFC
    8259 the exporter needs (and its parser accepts any standard JSON
    document, so round-tripping a snapshot is testable). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?compact:bool -> t -> string
(** Serialise.  [compact] (default true) omits all whitespace;
    otherwise the output is indented two spaces per level.  Floats are
    printed with enough digits to round-trip exactly. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; trailing garbage is an error.  The
    error string carries a character offset. *)

(** {1 Accessors}  All return [None] on a kind mismatch. *)

val member : string -> t -> t option
(** Field of an [Obj]. *)

val to_int : t -> int option
(** [Int] only (no silent float truncation). *)

val to_float : t -> float option
(** [Float] or [Int]. *)

val to_str : t -> string option
val to_list : t -> t list option
