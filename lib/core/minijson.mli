(** A tiny dependency-free JSON reader/writer, shared by the schema
    validators ([obs_check], [fault_check], [chaos_check]), the bench
    comparison mode, the telemetry serializers and the obs bundle.
    Covers the subset of RFC 8259 that this repo's own serializers
    emit. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val escape : string -> string
(** Escape a string for inclusion between JSON double quotes: quote,
    backslash and control characters get their standard escapes. *)

val float : float -> string
(** Render a float as a JSON token: shortest round-trip decimal
    ([%.17g]) for finite values; non-finite values have no JSON number
    form and are rendered as the {e strings} ["nan"], ["inf"],
    ["-inf"]. *)

val parse : string -> t
(** Parse a complete JSON document. Raises {!Parse_error} (with an
    offset) on malformed input or trailing garbage. *)

val emit : t -> string
(** Serialize a value back to JSON text using {!escape}/{!float}, the
    inverse of {!parse}: [parse (emit v) = v] for every value whose
    numbers are finite and whose strings are plain bytes (the only
    values this repo's serializers produce). Non-finite numbers have no
    JSON form and are emitted as the strings ["nan"]/["inf"]/["-inf"],
    so they re-parse as [Str]. *)

val parse_file : string -> t
(** {!parse} the contents of a file. *)

val field : t -> string -> t option
(** Object member lookup; [None] on non-objects and missing keys. *)

val as_arr : t -> t list option
val as_str : t -> string option
val as_num : t -> float option

val num_field : t -> string -> float option
val str_field : t -> string -> string option
val arr_field : t -> string -> t list option
val obj_field : t -> string -> (string * t) list option
(** [field] composed with the corresponding [as_*] accessor. *)
