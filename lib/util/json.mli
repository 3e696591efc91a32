(** A small JSON codec shared by every machine-readable artefact: trace
    JSONL, the Chrome export, lint findings (JSONL and SARIF) and the
    BENCH files.

    Printing is compact (no whitespace) and deterministic, with object
    fields in the order given, so byte-comparing two documents is a valid
    equality test.  Strings are byte strings: the double quote, the
    backslash, newline, tab and carriage return print as their short
    escapes, other bytes below 0x20 as [\u00XX], and every other byte —
    0x80 and above included — passes through unchanged. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [to_buffer b v] appends the encoding of [v].  A float prints as the
    shortest decimal that reads back to the same value, always with a
    ['.'] or an exponent so it stays a float; [nan] and the infinities
    print as [null]. *)
val to_buffer : Buffer.t -> t -> unit

val to_string : t -> string

(** [to_file path v] writes [v] and a trailing newline to [path]. *)
val to_file : string -> t -> unit

(** Malformed input.  The message ends with "at byte K", the offset
    into the parsed string where decoding stopped. *)
exception Parse_error of string

(** [of_string s] decodes one value spanning all of [s], in the compact
    form the printer writes: no whitespace between tokens.  It reads
    null, booleans, integers, strings, lists and objects — not
    fractional or exponent numbers — and [\u00XX] escapes up to
    [\u00ff].
    @raise Parse_error on anything else, including an integer that does
    not fit in an OCaml [int]. *)
val of_string : string -> t
