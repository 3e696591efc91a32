(** The benchmark's workloads, their checked runs and their metrics.

    Everything here drives the simulator from outside, through
    {!Tmk_harness.Harness.config}, the applications' [sequential] and
    [parallel] functions, {!Tmk_dsm.Api.run} and its [run_result], the
    paper's {!Tmk_dsm.Stats} counters and a {!Tmk_trace.Sink} listener. *)

type workload = {
  name : string;
  app : Tmk_harness.Harness.app;
  nprocs : int;
  inputs : int;
      (** independently seeded inputs per run; each metric is averaged over
          them, which damps input-to-input swings in the work *)
}

(** Every workload, in report order. *)
val workloads : workload list

val find : string -> workload option

(** [input_seed w ~seed i] — the seed of input [i] (of [w.inputs]) for the
    run seed [seed]; distinct for distinct [(seed, i)]. *)
val input_seed : workload -> seed:int -> int -> int

(** One input of a workload, made ready to run. *)
type instance

(** [setup w ~seed] — the input for [seed] (used as both [Config.seed] and
    the application's seed), the reference digest from the application's
    [sequential] function, and one throwaway cluster build (so that
    set-up time includes it). *)
val setup : workload -> seed:int -> instance

(** A named measurement: name, unit, value. *)
type metric = string * string * float

(** What a completed run produced.  The run's [Api.run_result] is
    dropped as soon as these are read: it holds the whole cluster. *)
type outcome = {
  sim_s : float;  (** simulated makespan, seconds *)
  frames : int;  (** frames on the wire *)
  wire_mb : float;  (** bytes on the wire, MiB *)
  digest : string;  (** the result digest processor 0 collected *)
  layers : metric list;
      (** per-layer metrics of a traced run, except [trace.overhead_s]
          (which needs an untraced twin); [[]] for an untraced run *)
}

(** One checked run. *)
type run = {
  host_s : float;  (** host wall-clock seconds of [Api.run] *)
  alloc_words : float;  (** OCaml words allocated during [Api.run] *)
  outcome : (outcome, string) result;
      (** [Error why] when the run raised ([Engine.Deadlock],
          [Api.Degraded], ...), stopped early, collected no result, or
          collected one whose digest differs from the reference *)
}

(** [run ?traced inst] — run [inst] once on this domain, after
    compacting the heap so that earlier runs do not shape this one's
    timing.  [traced] (default [false]) attaches a {!Layers} listener to
    a fresh sink. *)
val run : ?traced:bool -> instance -> run

(** [median xs] — the median of a non-empty list. *)
val median : float list -> float
