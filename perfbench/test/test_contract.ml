(* Observer contract of the benchmark: at a fixed seed, the simulated
   results and the allocation count repeat exactly, and tracing changes
   none of the simulated results. *)

let seed = 7

let completed (w : Bench.workload) (r : Bench.run) =
  match r.outcome with Ok o -> o | Error why -> Alcotest.failf "%s: %s" w.name why

let contract (w : Bench.workload) () =
  let inst = Bench.setup w ~seed in
  let first = Bench.run inst in
  let second = Bench.run inst in
  let traced = Bench.run ~traced:true inst in
  let a = completed w first and b = completed w second and t = completed w traced in
  let same what check x y = Alcotest.check check (w.name ^ ": " ^ what) x y in
  same "sim_s, untraced twice" (Alcotest.float 0.0) a.sim_s b.sim_s;
  same "frames, untraced twice" Alcotest.int a.frames b.frames;
  same "wire_mb, untraced twice" (Alcotest.float 0.0) a.wire_mb b.wire_mb;
  same "alloc words, untraced twice" (Alcotest.float 0.0) first.alloc_words second.alloc_words;
  same "digest, untraced twice" Alcotest.string a.digest b.digest;
  same "sim_s, traced" (Alcotest.float 0.0) a.sim_s t.sim_s;
  same "frames, traced" Alcotest.int a.frames t.frames;
  same "wire_mb, traced" (Alcotest.float 0.0) a.wire_mb t.wire_mb;
  same "digest, traced" Alcotest.string a.digest t.digest;
  Alcotest.(check bool) (w.name ^ ": traced run has per-layer metrics") true (t.layers <> [])

let () =
  Alcotest.run "perfbench"
    [
      ( "observer contract",
        List.map (fun (w : Bench.workload) -> Alcotest.test_case w.name `Slow (contract w)) Bench.workloads );
    ]
