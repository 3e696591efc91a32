(** Sharing-pattern linter: per-interval page classification plus
    trace-mined anti-patterns.

    Classifies every page, per barrier interval, from the typed accesses:
    single-writer, producer-consumer, migratory, falsely-shared (several
    processors writing pairwise-disjoint word ranges of one page) or
    true-shared.  The trace listener adds diff fragmentation,
    never-consumed write notices and lock contention.  All findings are
    advisory (warning/info): the program is correct, just paying LRC
    costs it could avoid. *)

type t

val create : segs:Tmk_check.Segments.t -> nprocs:int -> unit -> t

(** [access t ~pid kind ~addr ~width] records one typed access into the
    page's current barrier-interval epoch.  The caller filters
    [Api.unsynchronized] spans. *)
val access : t -> pid:int -> Tmk_check.Hooks.access_kind -> addr:int -> width:int -> unit

(** [listen t r] — the trace listener: consumes one record of the run's
    stream (diff creation, write notices, page faults, lock queueing). *)
val listen : t -> Tmk_trace.Sink.record -> unit

type classification = {
  cl_page : int;
  cl_pattern : string;
      (** "single-writer" | "producer-consumer" | "migratory" |
          "falsely-shared" | "true-shared" | "read-only" *)
  cl_epochs : int;  (** barrier intervals in which the page was accessed *)
  cl_writers : int list;
  cl_readers : int list;
}

(** [classify t] — per-page classification rows, sorted by page.
    Finalizes any open intervals. *)
val classify : t -> classification list

(** [classification_table t] — the rows as a Tablefmt table. *)
val classification_table : t -> string

(** [findings t] — false-sharing warnings, fragmentation / dead-notice
    infos, lock-contention warnings, in canonical order. *)
val findings : t -> Findings.t list
