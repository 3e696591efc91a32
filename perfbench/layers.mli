(** Host-time attribution and simulated latency spans over the typed
    trace stream of one run.

    A listener registered with {!Tmk_trace.Sink.on_record} stamps the
    monotonic host clock on every record and charges the host time since
    the previous record to the layer of the record that ends the gap
    (the table in the implementation).  The attribution is approximate:
    a gap ends at the next emitted record, so work that emits nothing is
    charged to whichever layer emits next, and gaps that end in an
    unmapped record are left unattributed.

    The same listener pairs span begin/end records per processor to
    collect simulated latencies (page-fault service, lock wait, barrier
    wait) and per-epoch barrier arrival skew.  Records are aggregated as
    they arrive and the sink's buffer is cleared after each one, so a run
    of millions of records holds only the latency samples. *)

type layer = App | Vm | Diff | Node | Net | Lock | Barrier

(** Every layer, in report order. *)
val all : layer list

val layer_name : layer -> string

type t

(** [attach ~nprocs sink] — a fresh accumulator listening on [sink].
    Attach before the run; the sink is emptied on every record. *)
val attach : nprocs:int -> Tmk_trace.Sink.t -> t

(** Records seen. *)
val records : t -> int

(** [host_s t layer] — host seconds charged to [layer]. *)
val host_s : t -> layer -> float

(** Host seconds of the diff layer that ended in [diff-apply] records
    (the replay scan and the patching) and in [diff-create] records;
    the remainder of {!host_s}[ Diff] ended in [diff-cache] records. *)
val diff_apply_s : t -> float

val diff_create_s : t -> float

(** Event counts the paper's [Stats] counters do not carry. *)
val invalidations : t -> int

val lock_forwards : t -> int
val lock_queued : t -> int
val intervals_closed : t -> int

(** Simulated latency percentiles in microseconds: [percentile t span q]
    for [q] in [0, 1] (nearest rank; [0.] when the span never occurred). *)
type span = Fault | Lock_wait | Barrier_wait

val percentile : t -> span -> float -> float

(** 99th percentile, over barrier epochs, of the simulated time between
    the first and the last arrival, in microseconds. *)
val barrier_skew_p99_us : t -> float
