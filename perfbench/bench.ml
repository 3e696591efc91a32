open Tmk_dsm
module Harness = Tmk_harness.Harness
module Apps = Tmk_apps
module Category = Tmk_sim.Category

type workload = { name : string; app : Harness.app; nprocs : int; inputs : int }

(* All three run lazy release consistency on ATM with the default
   metadata plane: [Harness.config] over [Config.default], with only the
   seed overridden.  The benchmark reads nothing beyond that and the
   paper's [Stats] counters — in particular not [sharding],
   [barrier_tree], [tree_arity], [lease_expiries] or [quorum_*] — because
   those are slated to be folded into one metadata variant or moved out
   of [Stats], and that must not require editing the benchmark.
   README.md says why each workload was chosen. *)
let workloads =
  [
    {
      name = "water-16";
      app = Harness.Water;
      nprocs = 16;
      (* the replay scan's cost swings with the molecule layout: average
         over several inputs per run *)
      inputs = 4;
    };
    {
      name = "quicksort-16";
      app = Harness.Quicksort;
      nprocs = 16;
      (* left out of BENCHMARK.json: the task stack's schedule, and with it
         the traffic, swings too far with the data for any bound *)
      inputs = 1;
    };
    {
      name = "jacobi-256";
      app = Harness.Jacobi;
      nprocs = 256;
      (* the work does not depend on the grid's values *)
      inputs = 1;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads
let input_seed w ~seed i = (seed * w.inputs) + i

(* Sharing-free serialization, so a result built by the simulated
   processors and one built by [sequential] digest alike. *)
let digest v = Stdlib.Digest.to_hex (Stdlib.Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

type instance = {
  cfg : Config.t;
  reference : string;
  body : Api.ctx -> unit;
  collected : string option ref;  (* the digest processor 0 put last run *)
}

(* The checked body collects the result on processor 0 (the collection
   traffic is part of the measured run) and digests it. *)
let setup w ~seed =
  let seed = Int64.of_int seed in
  let collected = ref None in
  let put = function Some v -> collected := Some (digest v) | None -> () in
  let reference, body =
    match w.app with
    | Harness.Water ->
      let p = { Harness.water_params with Apps.Water.seed } in
      (digest (Apps.Water.sequential p), fun ctx -> put (Apps.Water.parallel ~collect:true ctx p))
    | Harness.Quicksort ->
      let p = { Harness.quicksort_params with Apps.Quicksort.seed } in
      ( digest (Apps.Quicksort.sequential p),
        fun ctx -> put (Apps.Quicksort.parallel ~collect:true ctx p) )
    | Harness.Jacobi ->
      let p = { Harness.jacobi_params with Apps.Jacobi.seed } in
      (digest (Apps.Jacobi.sequential p), fun ctx -> put (Apps.Jacobi.parallel ~collect:true ctx p))
    | app -> invalid_arg ("Bench.setup: no workload for " ^ Harness.app_name app)
  in
  let cfg =
    {
      (Harness.config ~app:w.app ~nprocs:w.nprocs ~protocol:Config.default.Config.protocol
         ~net:Config.default.Config.net)
      with
      Config.seed;
    }
  in
  ignore (Protocol.create cfg);
  { cfg; reference; body; collected }

type metric = string * string * float

type outcome = {
  sim_s : float;
  frames : int;
  wire_mb : float;
  digest : string;
  layers : metric list;
}

type run = { host_s : float; alloc_words : float; outcome : (outcome, string) result }

(* Read after a full major collection: read mid-cycle, the count for
   identical runs drifts by a few thousand words. *)
let words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Bench.median: empty"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Simulated quantities carry a "sim-" unit so that the two clocks are
   never confused: a simulated time is an exact, deterministic output of
   the model, a host time a noisy measurement. *)
let layer_metrics ~host_s r l =
  let s = r.Api.total_stats in
  let nprocs = Array.length r.Api.busy in
  let busy cat =
    let total = ref 0 in
    Array.iter (fun per -> total := !total + per.(Category.index cat)) r.Api.busy;
    Tmk_sim.Vtime.to_s !total
  in
  let idle = Tmk_sim.Vtime.to_s (Array.fold_left ( + ) 0 r.Api.idle) in
  let host layer = Layers.host_s l layer in
  let attributed = List.fold_left (fun acc layer -> acc +. host layer) 0.0 Layers.all in
  let pct span q = Layers.percentile l span q in
  let count n = float_of_int n in
  let applied = s.Stats.diffs_applied in
  [
    ("engine.comp_s", "sim-s", busy Category.Computation);
    ("engine.unix_comm_s", "sim-s", busy Category.Unix_comm);
    ("engine.unix_mem_s", "sim-s", busy Category.Unix_mem);
    ("engine.tmk_mem_s", "sim-s", busy Category.Tmk_mem);
    ("engine.tmk_cons_s", "sim-s", busy Category.Tmk_consistency);
    ("engine.tmk_other_s", "sim-s", busy Category.Tmk_other);
    ("engine.idle_s", "sim-s", idle);
    ("engine.records", "count", count (Layers.records l));
    ("vm.read_faults", "count", count s.Stats.read_faults);
    ("vm.write_faults", "count", count s.Stats.write_faults);
    ("vm.twins", "count", count s.Stats.twins_created);
    ("vm.page_fetches", "count", count s.Stats.page_fetches);
    ("vm.invalidations", "count", count (Layers.invalidations l));
    ("vm.fault_us.p50", "sim-us", pct Layers.Fault 0.5);
    ("vm.fault_us.p99", "sim-us", pct Layers.Fault 0.99);
    ("vm.fault_us.max", "sim-us", pct Layers.Fault 1.0);
    ("vm.host_s", "s", host Layers.Vm);
    ("diff.created", "count", count s.Stats.diffs_created);
    ("diff.applied", "count", count applied);
    ("diff.kb_created", "KiB", float_of_int s.Stats.diff_bytes_created /. 1024.0);
    ("diff.applied_per_created", "ratio", ratio applied s.Stats.diffs_created);
    ( "diff.cache_hit_ratio",
      "ratio",
      ratio s.Stats.diff_cache_hits (s.Stats.diff_cache_hits + s.Stats.diff_cache_misses) );
    ("diff.prefetch_entries", "count", count s.Stats.diff_prefetch_entries);
    ("diff.host_s", "s", host Layers.Diff);
    ("diff.host_apply_s", "s", Layers.diff_apply_s l);
    ("diff.host_create_s", "s", Layers.diff_create_s l);
    ( "diff.host_ns_per_apply",
      "ns",
      if applied = 0 then 0.0 else Layers.diff_apply_s l *. 1e9 /. float_of_int applied );
    ("node.intervals_in", "count", count s.Stats.intervals_in);
    ("node.notices_in", "count", count s.Stats.write_notices_in);
    ("node.intervals_closed", "count", count (Layers.intervals_closed l));
    ("node.host_s", "s", host Layers.Node);
    ("lock.acquires", "count", count s.Stats.lock_acquires);
    ("lock.remote", "count", count s.Stats.lock_remote);
    ("lock.forwards", "count", count (Layers.lock_forwards l));
    ("lock.queued", "count", count (Layers.lock_queued l));
    ("lock.wait_us.p50", "sim-us", pct Layers.Lock_wait 0.5);
    ("lock.wait_us.p99", "sim-us", pct Layers.Lock_wait 0.99);
    ("lock.wait_us.max", "sim-us", pct Layers.Lock_wait 1.0);
    ("lock.host_s", "s", host Layers.Lock);
    ("barrier.count", "count", ratio s.Stats.barriers nprocs);
    ("barrier.skew_us_p99", "sim-us", Layers.barrier_skew_p99_us l);
    ("barrier.wait_us.p50", "sim-us", pct Layers.Barrier_wait 0.5);
    ("barrier.wait_us.p99", "sim-us", pct Layers.Barrier_wait 0.99);
    ("barrier.wait_us.max", "sim-us", pct Layers.Barrier_wait 1.0);
    ("plane.max_proc_msgs", "count", count (Array.fold_left max 0 r.Api.proc_msgs));
    ("barrier.host_s", "s", host Layers.Barrier);
    ("net.frames_coalesced", "count", count r.Api.frames_coalesced);
    ("net.retransmissions", "count", count r.Api.retransmissions);
    ("net.bytes_per_frame", "B", ratio r.Api.bytes r.Api.messages);
    ("net.host_s", "s", host Layers.Net);
    ("app.host_s", "s", host Layers.App);
    ("trace.coverage", "ratio", if host_s > 0.0 then attributed /. host_s else 0.0);
  ]

let run ?(traced = false) inst =
  inst.collected := None;
  let sink = if traced then Some (Tmk_trace.Sink.create ()) else None in
  let layers = Option.map (Layers.attach ~nprocs:inst.cfg.Config.nprocs) sink in
  Gc.compact ();
  let w0 = words () in
  let t0 = Clock.now_ns () in
  let result =
    match Api.run ?trace:sink inst.cfg inst.body with
    | r -> Ok r
    | exception Tmk_sim.Engine.Deadlock pids ->
      Error (Printf.sprintf "deadlock (%d processors blocked)" (List.length pids))
    | exception Api.Degraded { pid; reason } ->
      Error (Printf.sprintf "degraded by processor %d: %s" pid reason)
    | exception e -> Error (Printexc.to_string e)
  in
  let host_s = Clock.seconds_since t0 in
  Gc.full_major ();
  let alloc_words = words () -. w0 in
  let outcome =
    match (result, !(inst.collected)) with
    | Error why, _ -> Error why
    | Ok { Api.stopped = Some why; _ }, _ -> Error ("stopped: " ^ why)
    | Ok _, None -> Error "no result collected"
    | Ok _, Some d when d <> inst.reference -> Error "result digest differs from the reference"
    | Ok r, Some digest ->
      Ok
        {
          sim_s = Tmk_sim.Vtime.to_s r.Api.total_time;
          frames = r.Api.messages;
          wire_mb = float_of_int r.Api.bytes /. 1048576.0;
          digest;
          layers =
            (match layers with Some l -> layer_metrics ~host_s r l | None -> []);
        }
  in
  { host_s; alloc_words; outcome }
