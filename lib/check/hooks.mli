(** An observer of a run: the one way a checker reaches the protocol.

    [Config.check] is a list of these; the protocol dispatches every
    typed access, every sync edge and every [Api.unsynchronized] span to
    each, and [Api.run] registers each trace listener on the run's sink.
    The race detector ({!Race.hooks}), the invariant oracle
    ({!Oracle.hooks}) and the sanitizer suite ([Tmk_lint.Lint.hooks])
    each build one; analyzers that sit above [tmk_dsm] in the dependency
    order ride along without the DSM depending on them.

    Event contracts: [h_lock_release] fires before the grant leaves the
    releaser, [h_lock_acquired] after the grant is absorbed,
    [h_barrier_arrive] before the arrival message goes out,
    [h_barrier_depart] after the release is absorbed, and [h_access] on
    every typed access.  [h_access = None] installs no MMU access hook,
    so a run whose observers all leave it out keeps the MMU fast path.
    [h_suppress pid on] brackets an [Api.unsynchronized] span.
    [h_listen] receives every trace record; [Api.run] creates a private
    sink when the caller did not request tracing. *)

type access_kind = Tmk_trace.Event.fault_kind = Read | Write

type t = {
  h_nprocs : int;
      (** the cluster size the observer was built for; [Config.validate]
          rejects a run of any other size *)
  h_access : (pid:int -> access_kind -> addr:int -> width:int -> unit) option;
  h_lock_acquired : pid:int -> lock:int -> unit;
  h_lock_release : pid:int -> lock:int -> unit;
  h_barrier_arrive : pid:int -> id:int -> unit;
  h_barrier_depart : pid:int -> id:int -> unit;
  h_suppress : pid:int -> bool -> unit;
  h_listen : (Tmk_trace.Sink.record -> unit) option;
}

(** [nop ~nprocs] observes nothing; build an observer by overriding the
    fields you need. *)
val nop : nprocs:int -> t
