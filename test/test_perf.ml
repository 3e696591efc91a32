(* Digest equivalence for the simulator's hot-path machinery.

   The fast paths this PR adds (software-MMU unchecked-access bitmap,
   word-granular RLE, domain-parallel sweeps) are pure simulator-speed
   changes: every simulated quantity — application answer, Stats counters,
   message/byte counts, simulated time — must be bit-identical with them
   on or off.  These tests enforce that end-to-end:

   - all five applications at 8 and 32 processors: same digest and same
     run accounting with [Config.vm_fast_path] true vs false;
   - the same with the race detector attached (its [on_access] hook must
     still observe every shared access — the checker's findings and the
     digest both have to match, and a Vm-level test counts hook calls);
   - a sweep mapped with [Harness.parallel_map ~jobs:4] equals the
     sequential map, element for element.

   The equivalence runs themselves fan out across domains (they are
   independent simulations), which keeps the suite's wall time near the
   slowest single run instead of the sum. *)

open Tmk_dsm
module Harness = Tmk_harness.Harness
module Vm = Tmk_mem.Vm

let check = Alcotest.check

let cfg_of ~app ~nprocs ~fast =
  let cfg =
    Harness.config ~app ~nprocs ~protocol:Config.Lrc ~net:Tmk_net.Params.atm_aal34
  in
  { cfg with Config.vm_fast_path = fast }

(* One comparable record per run: the digest plus every piece of
   simulated accounting a fast path could plausibly disturb. *)
type fingerprint = {
  fp_digest : string;
  fp_stats : Stats.t;
  fp_time : int;
  fp_messages : int;
  fp_bytes : int;
}

let fingerprint ~app cfg =
  let m, digest = Harness.run_checked ~app cfg in
  let raw = m.Harness.m_raw in
  {
    fp_digest = digest;
    fp_stats = raw.Api.total_stats;
    fp_time = raw.Api.total_time;
    fp_messages = raw.Api.messages;
    fp_bytes = raw.Api.bytes;
  }

let proc_counts = [ 8; 32 ]

(* All (app, nprocs, fast?) arms, run once across domains, keyed for the
   per-app test cases below. *)
let equivalence_runs =
  lazy
    (let arms =
       List.concat_map
         (fun app ->
           List.concat_map
             (fun nprocs -> [ (app, nprocs, true); (app, nprocs, false) ])
             proc_counts)
         Harness.all_apps
     in
     let results =
       Harness.parallel_map ~jobs:4
         (fun (app, nprocs, fast) -> fingerprint ~app (cfg_of ~app ~nprocs ~fast))
         arms
     in
     let tbl = Hashtbl.create 32 in
     List.iter2 (fun arm fp -> Hashtbl.replace tbl arm fp) arms results;
     tbl)

let check_equal ~what fast slow =
  check Alcotest.string (what ^ ": digest") slow.fp_digest fast.fp_digest;
  check Alcotest.bool (what ^ ": digest nonempty") true (fast.fp_digest <> "");
  check Alcotest.bool (what ^ ": stats") true (fast.fp_stats = slow.fp_stats);
  check Alcotest.int (what ^ ": simulated time") slow.fp_time fast.fp_time;
  check Alcotest.int (what ^ ": messages") slow.fp_messages fast.fp_messages;
  check Alcotest.int (what ^ ": bytes") slow.fp_bytes fast.fp_bytes

let fast_path_equivalence app () =
  let runs = Lazy.force equivalence_runs in
  List.iter
    (fun nprocs ->
      let what = Printf.sprintf "%s %dp" (Harness.app_name app) nprocs in
      check_equal ~what
        (Hashtbl.find runs (app, nprocs, true))
        (Hashtbl.find runs (app, nprocs, false)))
    proc_counts

(* ------------------------------------------------------------------ *)
(* With the race detector attached the Vm access hook is installed, so
   the fast bitmap must stay all-clear and the checker must see exactly
   the accesses it always saw — same findings, same digest.  Racey is
   the positive fixture (its findings are non-empty), so a hook that
   silently missed accesses would show up as a findings mismatch.        *)

let checked_fingerprint ~fast =
  let app = Harness.Racey in
  let cfg = cfg_of ~app ~nprocs:8 ~fast in
  let race = Tmk_check.Race.create ~nprocs:8 () in
  let cfg = { cfg with Config.check = [ Tmk_check.Race.hooks race ] } in
  let fp = fingerprint ~app cfg in
  (fp, Tmk_check.Race.report race)

let race_detector_equivalence () =
  let fast_fp, fast_report = checked_fingerprint ~fast:true in
  let slow_fp, slow_report = checked_fingerprint ~fast:false in
  check Alcotest.bool "racy fixture still flagged" true
    (fast_report <> "" && fast_report = slow_report);
  check_equal ~what:"racey 8p, race detector on" fast_fp slow_fp

(* Vm-level hook coverage: with the fast path enabled, installing an
   access hook must force every typed access back onto the observed path
   — one hook call per load or store, with the right kind and width. *)
let hook_sees_every_access () =
  let vm = Vm.create ~fast_path:true ~pages:2 () in
  let seen = ref [] in
  Vm.set_access_hook vm (fun kind addr width -> seen := (kind, addr, width) :: !seen);
  Vm.write_int vm 0 42;
  ignore (Vm.read_int vm 0);
  Vm.write_u8 vm 4096 7;
  ignore (Vm.read_u8 vm 4096);
  check Alcotest.bool "every access observed" true
    (List.rev !seen
    = [ (Vm.Write, 0, 8); (Vm.Read, 0, 8); (Vm.Write, 4096, 1); (Vm.Read, 4096, 1) ])

(* Only an observer that watches accesses installs the Vm access hook: a
   run carrying just the invariant oracle (a trace listener) keeps every
   node on the fast path; the race detector turns the hook on. *)
let access_hook_only_for_access_observers () =
  let hooked check =
    let cl = Protocol.create { Config.default with Config.nprocs = 4; pages = 4; check } in
    List.init 4 (fun pid -> Vm.has_access_hook (Protocol.node cl pid).Node.vm)
  in
  let all b = List.init 4 (fun _ -> b) in
  let bools = Alcotest.(list bool) in
  check bools "no observer" (all false) (hooked []);
  check bools "oracle only" (all false)
    (hooked [ Tmk_check.Oracle.hooks (Tmk_check.Oracle.create ~nprocs:4 ()) ]);
  check bools "race detector" (all true)
    (hooked [ Tmk_check.Race.hooks (Tmk_check.Race.create ~nprocs:4 ()) ])

(* Fast-path semantics: out-of-range and straddling accesses must keep
   raising exactly as the checked path does. *)
let fast_path_still_raises () =
  let vm = Vm.create ~fast_path:true ~pages:1 () in
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check Alcotest.bool "negative addr" true (raises (fun () -> Vm.read_u8 vm (-1)));
  check Alcotest.bool "past the end" true (raises (fun () -> Vm.read_u8 vm 4096));
  check Alcotest.bool "straddle" true (raises (fun () -> Vm.read_i64 vm 4092));
  Vm.write_u8 vm 4095 9;
  check Alcotest.int "last byte still accessible" 9 (Vm.read_u8 vm 4095)

(* ------------------------------------------------------------------ *)
(* Domain-parallel sweeps: mapping the arms on 4 domains must be
   indistinguishable from the sequential map.                           *)

let parallel_map_equivalence () =
  let arms =
    List.concat_map
      (fun app -> List.map (fun n -> (app, n)) [ 2; 4 ])
      [ Harness.Tsp; Harness.Jacobi ]
  in
  let run (app, nprocs) = fingerprint ~app (cfg_of ~app ~nprocs ~fast:true) in
  let sequential = Harness.parallel_map ~jobs:1 run arms in
  let parallel = Harness.parallel_map ~jobs:4 run arms in
  check Alcotest.int "same length" (List.length sequential) (List.length parallel)
  ;
  List.iteri
    (fun i (s, p) -> check_equal ~what:(Printf.sprintf "arm %d" i) p s)
    (List.combine sequential parallel)

(* ------------------------------------------------------------------ *)
(* Determinism of the findings pipeline: a lint-attached run's full
   report (findings table + JSONL) is a pure function of the config, so
   sweeping the arms across 4 domains must reproduce the sequential
   output byte for byte.                                                *)

let lint_report_of (app, nprocs) =
  let cfg = cfg_of ~app ~nprocs ~fast:true in
  let race = Tmk_check.Race.create ~nprocs () in
  let lint = Tmk_lint.Lint.create ~nprocs () in
  let cfg =
    { cfg with Config.check = [ Tmk_check.Race.hooks race; Tmk_lint.Lint.hooks lint ] }
  in
  let _ = Harness.run_checked ~app cfg in
  let fs = Tmk_lint.Lint.findings ~race lint in
  Tmk_lint.Lint.report ~race lint ^ "\n" ^ Tmk_lint.Findings.to_jsonl fs

let lint_findings_deterministic_across_jobs () =
  let arms =
    [ (Harness.Water, 4); (Harness.Tsp, 4); (Harness.Racey, 8); (Harness.Racey2, 8) ]
  in
  let sequential = Harness.parallel_map ~jobs:1 lint_report_of arms in
  let parallel = Harness.parallel_map ~jobs:4 lint_report_of arms in
  List.iteri
    (fun i (s, p) ->
      check Alcotest.string (Printf.sprintf "arm %d report byte-identical" i) s p)
    (List.combine sequential parallel);
  (* the racy arms really carry findings — the comparison is not vacuous *)
  check Alcotest.bool "racey arm has findings" true
    (match List.nth sequential 2 with s -> not (String.length s < 40))

(* ------------------------------------------------------------------ *)
(* Replay-set pin.  After a diff fetch the node re-applies every held
   diff stamped above the oldest fetched one; how it finds them is a
   host-speed matter, what it finds is not.  Water and Quicksort at 16
   processors (lazy, ATM, default seed) replay heavily, so they must
   reproduce these recorded counts, simulated time, traffic and result
   digest exactly.                                                       *)

type golden = {
  g_created : int;
  g_applied : int;
  g_time : int;
  g_messages : int;
  g_bytes : int;
  g_digest : string;
}

let replay_golden app expected () =
  let fp = fingerprint ~app (cfg_of ~app ~nprocs:16 ~fast:true) in
  let what = Harness.app_name app ^ " 16p" in
  check Alcotest.int (what ^ ": diffs created") expected.g_created
    fp.fp_stats.Stats.diffs_created;
  check Alcotest.int (what ^ ": diffs applied") expected.g_applied
    fp.fp_stats.Stats.diffs_applied;
  check Alcotest.int (what ^ ": simulated time") expected.g_time fp.fp_time;
  check Alcotest.int (what ^ ": messages") expected.g_messages fp.fp_messages;
  check Alcotest.int (what ^ ": bytes") expected.g_bytes fp.fp_bytes;
  check Alcotest.string (what ^ ": digest") expected.g_digest fp.fp_digest

let replay_goldens =
  [
    ( Harness.Water,
      {
        g_created = 1879;
        g_applied = 67259;
        g_time = 1867410464;
        g_messages = 12926;
        g_bytes = 4418753;
        g_digest = "c7f75ef5b495806f2415bc74c79a0354";
      } );
    ( Harness.Quicksort,
      {
        g_created = 2926;
        g_applied = 17006;
        g_time = 9869892852;
        g_messages = 24311;
        g_bytes = 24264753;
        g_digest = "a2d0b03ff32450c2bf75a292c27441eb";
      } );
  ]

(* ------------------------------------------------------------------ *)
(* Single-writer directory pin.  SC and Tardis share one page directory
   (per-page manager queue, grant, ownership transfer); these arms fix
   their simulated accounting so any change to that machinery shows up
   as a number, not just a wrong answer.  Jacobi runs sharded, so its
   page managers are placed by the ownership ring.                      *)

type directory_golden = {
  d_time : int;
  d_messages : int;
  d_bytes : int;
  d_fetches : int;
  d_expiries : int;
  d_digest : string;
}

let directory_golden (app, nprocs, protocol, sharding) expected () =
  let cfg = Harness.config ~app ~nprocs ~protocol ~net:Tmk_net.Params.atm_aal34 in
  let fp = fingerprint ~app { cfg with Config.sharding } in
  let what =
    Printf.sprintf "%s %s %dp" (Config.protocol_name protocol) (Harness.app_name app) nprocs
  in
  check Alcotest.int (what ^ ": simulated time") expected.d_time fp.fp_time;
  check Alcotest.int (what ^ ": messages") expected.d_messages fp.fp_messages;
  check Alcotest.int (what ^ ": bytes") expected.d_bytes fp.fp_bytes;
  check Alcotest.int (what ^ ": page fetches") expected.d_fetches
    fp.fp_stats.Stats.page_fetches;
  check Alcotest.int (what ^ ": lease expiries") expected.d_expiries
    fp.fp_stats.Stats.lease_expiries;
  check Alcotest.string (what ^ ": digest") expected.d_digest fp.fp_digest

let directory_goldens =
  [
    ( (Harness.Water, 8, Config.Sc, false),
      {
        d_time = 18842516840;
        d_messages = 45920;
        d_bytes = 32596186;
        d_fetches = 7442;
        d_expiries = 0;
        d_digest = "c7f75ef5b495806f2415bc74c79a0354";
      } );
    ( (Harness.Water, 8, Config.Tardis, false),
      {
        d_time = 10943753520;
        d_messages = 24825;
        d_bytes = 20496991;
        d_fetches = 4714;
        d_expiries = 225;
        d_digest = "c7f75ef5b495806f2415bc74c79a0354";
      } );
    ( (Harness.Jacobi, 16, Config.Tardis, true),
      {
        d_time = 5374625400;
        d_messages = 6409;
        d_bytes = 3737292;
        d_fetches = 835;
        d_expiries = 716;
        d_digest = "bbaeb195790d70dceca49ee7011091ab";
      } );
  ]

let suite =
  let app_case app =
    Alcotest.test_case
      (Printf.sprintf "fast path preserves %s at 8 and 32 procs" (Harness.app_name app))
      `Slow (fast_path_equivalence app)
  in
  List.map app_case Harness.all_apps
  @ [
      Alcotest.test_case "race detector findings unchanged by fast path" `Slow
        race_detector_equivalence;
      Alcotest.test_case "access hook observes every access" `Quick hook_sees_every_access;
      Alcotest.test_case "fast path keeps checked-path errors" `Quick fast_path_still_raises;
      Alcotest.test_case "parallel_map jobs:4 equals sequential" `Slow
        parallel_map_equivalence;
      Alcotest.test_case "lint findings byte-identical across jobs" `Slow
        lint_findings_deterministic_across_jobs;
    ]
  @ List.map
      (fun (app, expected) ->
        Alcotest.test_case
          (Printf.sprintf "replay set pinned: %s at 16 procs" (Harness.app_name app))
          `Slow (replay_golden app expected))
      replay_goldens
  @ [
      Alcotest.test_case "oracle-only run keeps the fast path" `Quick
        access_hook_only_for_access_observers;
    ]
  @ List.map
      (fun (((app, nprocs, protocol, sharding) as arm), expected) ->
        Alcotest.test_case
          (Printf.sprintf "directory pinned: %s %s at %d procs%s"
             (Config.protocol_name protocol) (Harness.app_name app) nprocs
             (if sharding then ", sharded" else ""))
          `Slow (directory_golden arm expected))
      directory_goldens
