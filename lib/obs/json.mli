(** Minimal JSON emitter and parser (no external dependencies).

    The emitter renders with deterministic formatting (2-space indent, or
    compact with [~indent:false]); non-finite floats render as [null].
    The parser is strict standard JSON; numbers without a fraction or
    exponent that fit an OCaml [int] parse to {!Int}, everything else to
    {!Float}; [\uXXXX] escapes (including surrogate pairs) decode to
    UTF-8.  The engine's reports, the WAL and the wire protocol all use
    this one module. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Render; [indent] defaults to [true]. *)

val parse : string -> (t, string) result
(** Parse one JSON value; the whole input must be consumed (trailing
    whitespace allowed).  Errors carry a byte offset.  Arrays and objects
    may nest at most 512 deep; a deeper input is an [Error] ("nesting
    deeper than 512"), returned as soon as the limit is crossed.  The
    deepest documents the program writes (a batch report, a [check]
    report) nest 7 deep. *)

(** {2 Accessors} *)

val member : string -> t -> t option
(** [member k (Obj _)] is the first binding of [k]; [None] otherwise. *)

val to_list : t -> t list option
val to_float : t -> float option
(** Accepts both {!Float} and {!Int}. *)

val to_int : t -> int option
val to_str : t -> string option
