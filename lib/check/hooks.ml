(* An observer of a run: the typed accesses the software MMU sees, the
   four sync points, the [Api.unsynchronized] suppression spans and the
   trace stream.  Every checker — the race detector, the invariant
   oracle, the lint suite in [lib/lint] — reaches a run as one of these in
   [Config.check], so the protocol has one dispatch path whatever rides
   along. *)

type access_kind = Tmk_trace.Event.fault_kind = Read | Write

type t = {
  h_nprocs : int;
  h_access : (pid:int -> access_kind -> addr:int -> width:int -> unit) option;
  h_lock_acquired : pid:int -> lock:int -> unit;
  h_lock_release : pid:int -> lock:int -> unit;
  h_barrier_arrive : pid:int -> id:int -> unit;
  h_barrier_depart : pid:int -> id:int -> unit;
  h_suppress : pid:int -> bool -> unit;
  h_listen : (Tmk_trace.Sink.record -> unit) option;
}

let nop ~nprocs =
  {
    h_nprocs = nprocs;
    h_access = None;
    h_lock_acquired = (fun ~pid:_ ~lock:_ -> ());
    h_lock_release = (fun ~pid:_ ~lock:_ -> ());
    h_barrier_arrive = (fun ~pid:_ ~id:_ -> ());
    h_barrier_depart = (fun ~pid:_ ~id:_ -> ());
    h_suppress = (fun ~pid:_ _ -> ());
    h_listen = None;
  }
