(* Benchmark entry point: one workload, one seed, one process, one domain.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   A run seed names [inputs] independently seeded inputs of the workload
   (see [Bench.workload]).  --trace 0 cycles over them, setting each up
   and making a checked, untraced run of it, until S seconds have passed.
   --trace 1 cycles pairs of an untraced and a traced run instead.  A
   metric of a run is, in general, the median over one input's runs,
   averaged over the inputs.  The last line of standard output is
   one JSON object; the exit code is 1 if any run failed its check. *)

(* Before each run its input is set up afresh, repeatedly for
   [setup_share] of the previous run's host time (at least once): set-up
   is reported as the median of all these, so it samples the same stretch
   of machine time as the runs, and a single set-up of the small
   workloads takes only milliseconds. *)
let setup_share = 0.05

type mode = { w : Bench.workload; seed : int; seconds : float }

(* [repeat_for seconds f] calls [f 0], [f 1], ... while another call of
   the mean length so far still fits in [seconds], and at least once. *)
let repeat_for seconds f =
  let t0 = Clock.now_ns () in
  let rec loop n acc =
    let acc = f n :: acc and n = n + 1 in
    let elapsed = Clock.seconds_since t0 in
    if elapsed *. float_of_int (n + 1) /. float_of_int n <= seconds then loop n acc
    else List.rev acc
  in
  loop 0 []

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* [per_input m tagged f] — over runs tagged with their input index, the
   median of [f] over each input's runs, averaged over the inputs ([f]
   returns [None] for runs that do not count, e.g. failed ones). *)
let per_input m tagged f =
  let medians =
    List.filter_map
      (fun i ->
        match List.filter_map (fun (j, x) -> if j = i then f x else None) tagged with
        | [] -> None
        | xs -> Some (Bench.median xs))
      (List.init m.w.Bench.inputs Fun.id)
  in
  if medians = [] then 0.0 else mean medians

let completed (r : Bench.run) = match r.outcome with Ok o -> Some o | Error _ -> None

let report_failures runs =
  List.iter
    (fun (r : Bench.run) ->
      match r.outcome with Error why -> Printf.printf "FAILED run: %s\n" why | Ok _ -> ())
    runs;
  List.length (List.filter (fun r -> completed r = None) runs)

(* Full precision, and never a non-JSON token. *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~attempted ~failed (metrics : Bench.metric list) =
  let fields =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed (String.concat ", " fields)

let value_cell v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let print_host_times label cells =
  Printf.printf "%s (input:host s): %s\n" label (String.concat " " cells)

let end_to_end m =
  let k = m.w.inputs in
  let setup_times = ref [] in
  let set_up i ~budget =
    let t0 = Clock.now_ns () in
    let rec again () =
      let t = Clock.now_ns () in
      let inst = Bench.setup m.w ~seed:(Bench.input_seed m.w ~seed:m.seed i) in
      setup_times := Clock.seconds_since t :: !setup_times;
      if Clock.seconds_since t0 < budget then again () else inst
    in
    let inst = again () in
    (* the throwaway clusters must not set the heap peak *)
    Gc.full_major ();
    inst
  in
  let last = ref 0.0 and top_heap = ref 0 in
  let runs =
    repeat_for m.seconds (fun n ->
        let i = n mod k in
        let r = Bench.run (set_up i ~budget:(setup_share *. !last)) in
        last := r.Bench.host_s;
        (* the heap never shrinks and later runs can still grow it: taken
           through the first run, the peak does not depend on how many
           runs fit in the time *)
        if n = 0 then top_heap := (Gc.quick_stat ()).Gc.top_heap_words;
        (i, r))
  in
  let of_outcome f (r : Bench.run) = Option.map f (completed r) in
  let metrics =
    [
      ("host_s", "s", per_input m runs (fun r -> Some r.Bench.host_s));
      ("alloc_mw", "Mwords", per_input m runs (fun r -> Some (r.Bench.alloc_words /. 1e6)));
      ("peak_heap_mb", "MiB", float_of_int (!top_heap * (Sys.word_size / 8)) /. 1048576.0);
      ("setup_s", "s", Bench.median !setup_times);
      ("sim_s", "sim-s", per_input m runs (of_outcome (fun o -> o.sim_s)));
      ("frames", "count", per_input m runs (of_outcome (fun o -> float_of_int o.frames)));
      ("wire_mb", "MiB", per_input m runs (of_outcome (fun o -> o.wire_mb)));
    ]
  in
  let failed = report_failures (List.map snd runs) in
  print_host_times "host_s per run"
    (List.map (fun (i, (r : Bench.run)) -> Printf.sprintf "%d:%.4f" i r.host_s) runs);
  let attempted = List.length runs in
  print_string
    (Tmk_util.Tablefmt.render
       ~title:
         (Printf.sprintf "%s, seed %d: %d checked untraced runs over %d inputs, %d failed"
            m.w.name m.seed attempted k failed)
       ~header:[ "metric"; "value"; "unit" ]
       (List.map (fun (name, unit_, v) -> [ name; value_cell v; unit_ ]) metrics));
  print_result ~attempted ~failed metrics;
  failed

(* A traced run must leave the observable results untouched. *)
let check_contract (untraced : Bench.run) (traced : Bench.run) =
  match (untraced.outcome, traced.outcome) with
  | Ok u, Ok t
    when u.sim_s <> t.sim_s || u.frames <> t.frames || u.wire_mb <> t.wire_mb
         || u.digest <> t.digest ->
    { traced with outcome = Error "traced run differs from the untraced run" }
  | _ -> traced

let per_layer m =
  let k = m.w.inputs in
  let insts =
    Array.init k (fun i -> Bench.setup m.w ~seed:(Bench.input_seed m.w ~seed:m.seed i))
  in
  let pairs =
    repeat_for m.seconds (fun n ->
        let i = n mod k in
        let u = Bench.run insts.(i) in
        (i, (u, check_contract u (Bench.run ~traced:true insts.(i)))))
  in
  (* per pair: the traced run's layer metrics plus the tracing overhead *)
  let layer_metrics ((u : Bench.run), (t : Bench.run)) =
    match (u.outcome, t.outcome) with
    | Ok _, Ok o -> Some (o.layers @ [ ("trace.overhead_s", "s", t.host_s -. u.host_s) ])
    | _ -> None
  in
  let metrics =
    match List.find_map (fun (_, p) -> layer_metrics p) pairs with
    | None -> []
    | Some first ->
      List.map
        (fun (name, unit_, _) ->
          let value p =
            Option.map
              (fun ms -> match List.find (fun (n, _, _) -> n = name) ms with _, _, v -> v)
              (layer_metrics p)
          in
          (name, unit_, per_input m pairs value))
        first
  in
  let failed = report_failures (List.concat_map (fun (_, (u, t)) -> [ u; t ]) pairs) in
  print_host_times "host_s per pair, untraced/traced"
    (List.map
       (fun (i, ((u : Bench.run), (t : Bench.run))) ->
         Printf.sprintf "%d:%.4f/%.4f" i u.host_s t.host_s)
       pairs);
  let attempted = 2 * List.length pairs in
  let traced_s = per_input m pairs (fun (_, (t : Bench.run)) -> Some t.host_s) in
  let value name =
    match List.find_opt (fun (n, _, _) -> n = name) metrics with Some (_, _, v) -> v | None -> 0.0
  in
  (* the counts and simulated percentiles of one layer, host seconds aside *)
  let detail prefix =
    metrics
    |> List.filter (fun (name, unit_, _) -> String.starts_with ~prefix name && unit_ <> "s")
    |> List.map (fun (name, _, v) ->
           let short =
             String.sub name (String.length prefix) (String.length name - String.length prefix)
           in
           short ^ "=" ^ value_cell v)
    |> String.concat " "
  in
  let layer_row name ~host ~details =
    let share = if traced_s > 0.0 then 100.0 *. host /. traced_s else 0.0 in
    [ name; Printf.sprintf "%.4f" host; Printf.sprintf "%.1f%%" share; details ]
  in
  let layer_rows =
    List.map
      (fun layer ->
        let name = Layers.layer_name layer in
        let details = detail (name ^ ".") in
        let details = if name = "barrier" then details ^ " " ^ detail "plane." else details in
        layer_row name ~host:(value (name ^ ".host_s")) ~details)
      Layers.all
  in
  let attributed = value "trace.coverage" *. traced_s in
  print_string
    (Tmk_util.Tablefmt.render
       ~title:
         (Printf.sprintf
            "%s, seed %d: host time by layer over %d traced runs of %d inputs (approximate: each \
             gap between trace records is charged to the layer of the record that ends it)"
            m.w.name m.seed (List.length pairs) k)
       ~header:[ "layer"; "host s"; "share"; "counts (simulated percentiles in us)" ]
       (layer_rows
       @ [
           [ "engine"; "-"; "-"; detail "engine." ];
           layer_row "unattributed" ~host:(traced_s -. attributed) ~details:"";
           layer_row "traced host_s" ~host:traced_s
             ~details:
               (Printf.sprintf "trace.overhead_s=%s trace.coverage=%s"
                  (value_cell (value "trace.overhead_s"))
                  (value_cell (value "trace.coverage")));
         ]));
  print_result ~attempted ~failed metrics;
  failed

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let names = String.concat ", " (List.map (fun (w : Bench.workload) -> w.name) Bench.workloads) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload: " ^ names);
      ("--seed", Arg.Set_int seed, "N run seed (derives Config.seed and the application's seed)");
      ("--seconds", Arg.Set_int seconds, "S measure for S host seconds (at least one run)");
      ("--trace", Arg.Set_int trace, "0|1 0: end-to-end metrics, 1: per-layer metrics");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  let w =
    match Bench.find !workload with
    | Some w -> w
    | None -> fail ("unknown workload; one of " ^ names)
  in
  if !seconds < 1 then fail "--seconds must be at least 1";
  if !seed < 0 then fail "--seed must be non-negative";
  let m = { w; seed = !seed; seconds = float_of_int !seconds } in
  let failed =
    match !trace with 0 -> end_to_end m | 1 -> per_layer m | _ -> fail "--trace must be 0 or 1"
  in
  exit (if failed = 0 then 0 else 1)
