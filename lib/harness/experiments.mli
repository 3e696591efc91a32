(** Regeneration of every table and figure in the paper's evaluation
    (§4–§5).  Each function runs the necessary simulations and renders a
    plain-text table or chart, quoting the paper's own numbers alongside
    for shape comparison.  The per-experiment index lives in DESIGN.md;
    measured-vs-paper records live in EXPERIMENTS.md. *)

(** Experiment identifiers, in paper order. *)
type id =
  | E1  (** §4.2 basic operation costs *)
  | E2  (** Figure 3: speedups, 1–8 processors, ATM *)
  | E3  (** Figure 4: execution statistics, 8 processors *)
  | E4  (** Figure 5: execution time breakdown *)
  | E5  (** Figure 6: Unix overhead breakdown *)
  | E6  (** Figure 7: TreadMarks overhead breakdown *)
  | E7  (** Figure 8: Water across communication substrates *)
  | E8  (** Figures 9–12: lazy versus eager release consistency *)
  | E9  (** abstract: speedups on the 10 Mbps Ethernet *)
  | E10
      (** robustness sweep (§3.7): the five applications under 0–20% frame
          loss — execution time, retransmissions, message overhead versus
          the loss-free baseline, and a digest check that the DSM answer
          is bit-identical at every loss rate *)
  | E11
      (** scaling study past the paper: the five applications on 2–64
          processors, batched versus unbatched consistency traffic
          ([Config.batching]) — speedup curves, messages and kilobytes per
          synchronization acquire, frames coalesced, and diff-cache
          effectiveness.  Also writes the raw measurements to
          [BENCH_3.json] in the working directory. *)
  | E12
      (** crash survival study: the five applications on 8 processors,
          {no crash, processor 4 dies halfway} × {diff replication
          off, on} — survival or typed degradation, failure-detection
          latency, locks re-homed, in-flight fetches re-issued, and the
          message/byte cost of mirroring each diff to a backup peer.
          Also writes the raw measurements to [BENCH_5.json] in the
          working directory. *)
  | E13
      (** coherence backend comparison: the five applications on 8
          processors under lazy, eager, tardis and sc-abd, on both the
          ATM and Ethernet models — execution time and backend-specific
          traffic (page fetches, diffs, lease expiries, quorum rounds),
          with a digest check that every backend computes the same
          answer.  Also writes the raw measurements to [BENCH_7.json] in
          the working directory. *)
  | E14
      (** metadata-plane scaling study: Jacobi and TSP on 64–1024
          processors under lazy and tardis, flat (static ownership,
          one-level barrier tree) versus sharded ([Config.sharding] + an
          arity-4 [Config.tree_arity]) — execution time, messages per acquire,
          and the hot-spot metric: frames delivered at processor 0 per
          barrier, which grows O(nprocs) flat and stays near the tree
          arity sharded.  Digest-checks every flat/sharded pair.  Also
          writes the raw measurements to [BENCH_10.json] in the working
          directory. *)

val all : id list

val id_name : id -> string

(** [id_of_name "e3"] — parse a CLI argument.
    @raise Invalid_argument on unknown ids. *)
val id_of_name : string -> id

(** [describe id] — one-line description. *)
val describe : id -> string

(** [set_jobs n] — run the independent arms of sweep experiments (E10,
    E11, E13, E14) on up to [n] OCaml domains via {!Harness.parallel_map}.
    The default is 1 (sequential); reports are byte-identical at any
    value. *)
val set_jobs : int -> unit

(** [set_e14_procs l] — override E14's processor-count sweep (default
    [[64; 256; 1024]]); the CI smoke arm runs a single cheap point.
    Empty lists are ignored.  The O(nprocs) scaling assertions need at
    least a 4x range and report "not swept" otherwise. *)
val set_e14_procs : int list -> unit

(** [run id] — execute the experiment and return its rendered report. *)
val run : id -> string

(** [run_all ()] — E1 through E14, concatenated. *)
val run_all : unit -> string
