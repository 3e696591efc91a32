(** JSONL export: one JSON object per line, in stream order.

    The shape of a line is

    {v {"t":12345,"pid":2,"ev":"lock-acquire","lock":1,"local":false} v}

    — [t] is virtual time in nanoseconds, [pid] the emitting processor
    ([-1] for engine-level events), [ev] the stable event name, and the
    remaining fields the event's arguments in declaration order.  The
    encoding is deterministic, so byte-comparing two files is a valid
    equality test on event streams (the determinism tests rely on
    this). *)

(** [arg_to_json a] — the JSON value an event argument prints as (the
    Chrome export reuses it for its [args] objects). *)
val arg_to_json : Event.arg -> Tmk_util.Json.t

(** [record_to_string r] — one line, without the trailing newline. *)
val record_to_string : Sink.record -> string

(** [to_string sink] — the whole stream, one record per line, each line
    newline-terminated. *)
val to_string : Sink.t -> string

(** [write oc sink] — stream the sink to a channel. *)
val write : out_channel -> Sink.t -> unit

(** {2 Reading recorded streams back}

    The offline invariant oracle re-checks recorded runs this way.  Any
    line the encoder can produce decodes to the record it came from. *)

(** [parse_line line] — decode one line (no trailing newline).
    @raise Tmk_util.Json.Parse_error on malformed JSON, or on an object
    that is not a known event record. *)
val parse_line : string -> Sink.record

(** [read_channel ic] / [read_file path] — decode a whole stream into a
    fresh sink, skipping blank lines.
    @raise Tmk_util.Json.Parse_error with a line number on malformed
    input. *)
val read_channel : in_channel -> Sink.t

val read_file : string -> Sink.t
