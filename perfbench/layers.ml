open Tmk_trace

type layer = App | Vm | Diff | Node | Net | Lock | Barrier

let all = [ App; Vm; Diff; Node; Net; Lock; Barrier ]

let layer_name = function
  | App -> "app"
  | Vm -> "vm"
  | Diff -> "diff"
  | Node -> "node"
  | Net -> "net"
  | Lock -> "lock"
  | Barrier -> "barrier"

let index = function
  | App -> 0
  | Vm -> 1
  | Diff -> 2
  | Node -> 3
  | Net -> 4
  | Lock -> 5
  | Barrier -> 6

(* Accumulator slots: one per layer, with the diff layer split three
   ways by the record that ends the gap; [-1] for gaps left uncharged. *)
let slot_diff_create = 7
let slot_diff_cache = 8

(* The record that ends a gap names the layer the gap is charged to.
   Application code and the Vm fast path emit nothing, so their time
   surfaces in the gap before the next fault, acquire, arrival or
   finish. *)
let slot_of (ev : Event.t) =
  match ev with
  | Diff_apply _ -> index Diff
  | Diff_create _ -> slot_diff_create
  | Diff_cache _ -> slot_diff_cache
  | Interval_close _ | Interval_recv _ | Write_notice_recv _ -> index Node
  | Frame_send _ | Frame_recv _ | Frame_drop _ | Frame_dup _ | Frame_batch _ -> index Net
  | Lock_acquired _ | Lock_grant _ | Lock_forward _ | Lock_queued _ -> index Lock
  | Barrier_release _ -> index Barrier
  | Page_fault_done _ | Twin_create _ | Page_fetch _ | Page_invalidate _ -> index Vm
  | Page_fault _ | Lock_acquire _ | Barrier_arrive _ | Proc_finish -> index App
  | _ -> -1

type span = Fault | Lock_wait | Barrier_wait

type t = {
  ns : int array;  (* host nanoseconds per slot *)
  mutable last : int;  (* host clock at the previous record; -1 before the first *)
  mutable records : int;
  mutable invalidations : int;
  mutable lock_forwards : int;
  mutable lock_queued : int;
  mutable intervals_closed : int;
  (* open span start (virtual ns) per pid, -1 when none is open *)
  fault_open : int array;
  lock_open : int array;
  barrier_open : int array;
  fault : int Tmk_util.Vec.t;
  lock_wait : int Tmk_util.Vec.t;
  barrier_wait : int Tmk_util.Vec.t;
  arrivals : (int, int * int) Hashtbl.t;  (* epoch -> first, last arrival *)
}

let close_span opened samples pid now =
  if pid >= 0 && opened.(pid) >= 0 then begin
    Tmk_util.Vec.push samples (now - opened.(pid));
    opened.(pid) <- -1
  end

let open_span opened pid now = if pid >= 0 then opened.(pid) <- now

let observe t (r : Sink.record) =
  let now = Clock.now_ns () in
  let s = slot_of r.r_ev in
  if t.last >= 0 && s >= 0 then t.ns.(s) <- t.ns.(s) + (now - t.last);
  t.last <- now;
  t.records <- t.records + 1;
  let pid = r.r_pid and time = r.r_time in
  match r.r_ev with
  | Page_fault _ -> open_span t.fault_open pid time
  | Page_fault_done _ -> close_span t.fault_open t.fault pid time
  | Lock_acquire _ -> open_span t.lock_open pid time
  | Lock_acquired _ -> close_span t.lock_open t.lock_wait pid time
  | Barrier_arrive { epoch; _ } ->
    open_span t.barrier_open pid time;
    let first, last =
      match Hashtbl.find_opt t.arrivals epoch with
      | Some (f, l) -> (min f time, max l time)
      | None -> (time, time)
    in
    Hashtbl.replace t.arrivals epoch (first, last)
  | Barrier_release _ -> close_span t.barrier_open t.barrier_wait pid time
  | Page_invalidate _ -> t.invalidations <- t.invalidations + 1
  | Lock_forward _ -> t.lock_forwards <- t.lock_forwards + 1
  | Lock_queued _ -> t.lock_queued <- t.lock_queued + 1
  | Interval_close _ -> t.intervals_closed <- t.intervals_closed + 1
  | _ -> ()

let attach ~nprocs sink =
  let t =
    {
      ns = Array.make 9 0;
      last = -1;
      records = 0;
      invalidations = 0;
      lock_forwards = 0;
      lock_queued = 0;
      intervals_closed = 0;
      fault_open = Array.make nprocs (-1);
      lock_open = Array.make nprocs (-1);
      barrier_open = Array.make nprocs (-1);
      fault = Tmk_util.Vec.create ();
      lock_wait = Tmk_util.Vec.create ();
      barrier_wait = Tmk_util.Vec.create ();
      arrivals = Hashtbl.create 64;
    }
  in
  Sink.on_record sink (fun r ->
      observe t r;
      Sink.clear sink);
  t

let records t = t.records
let seconds ns = float_of_int ns /. 1e9

let host_s t layer =
  match layer with
  | Diff -> seconds (t.ns.(index Diff) + t.ns.(slot_diff_create) + t.ns.(slot_diff_cache))
  | l -> seconds t.ns.(index l)

let diff_apply_s t = seconds t.ns.(index Diff)
let diff_create_s t = seconds t.ns.(slot_diff_create)
let invalidations t = t.invalidations
let lock_forwards t = t.lock_forwards
let lock_queued t = t.lock_queued
let intervals_closed t = t.intervals_closed

(* Nearest-rank percentile of virtual-nanosecond values, in microseconds. *)
let rank_us values q =
  let n = Array.length values in
  if n = 0 then 0.0
  else begin
    Array.sort compare values;
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    float_of_int values.(max 0 (min (n - 1) i)) /. 1e3
  end

let percentile t span q =
  let v = match span with Fault -> t.fault | Lock_wait -> t.lock_wait | Barrier_wait -> t.barrier_wait in
  rank_us (Array.init (Tmk_util.Vec.length v) (Tmk_util.Vec.get v)) q

let barrier_skew_p99_us t =
  rank_us (Array.of_seq (Seq.map (fun (f, l) -> l - f) (Hashtbl.to_seq_values t.arrivals))) 0.99
