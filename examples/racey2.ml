(* Racey2: a race the happens-before detector misses and the lockset
   analyzer catches.  An unprotected flag word whose conflicting accesses
   all happen to be ordered through an unrelated lock's release→acquire
   chain: this execution is race-free, so the HB detector is silent — but
   the program is not, and a different lock-grant order exposes the race.
   The schedule-insensitive lockset analyzer flags it regardless.  Run:

     dune exec examples/racey2.exe        (exits 1: lockset race found)
     tmk_run --lint examples/racey2.ml    (same fixture via the harness)

   See lib/apps/racey2.ml for the choreography. *)

open Tmk_dsm

let nprocs = 8

let () =
  let p = Tmk_apps.Racey2.default in
  let config =
    {
      Config.default with
      Config.nprocs;
      pages = Tmk_apps.Racey2.pages_needed p;
      seed = 1994L;
    }
  in
  let race = Tmk_check.Race.create ~nprocs () in
  let lint = Tmk_lint.Lint.create ~nprocs () in
  let config =
    { config with Config.check = [ Tmk_check.Race.hooks race; Tmk_lint.Lint.hooks lint ] }
  in
  let result =
    Api.run config (fun ctx ->
        match Tmk_apps.Racey2.parallel ctx p with
        | None -> ()
        | Some count ->
          Fmt.pr "final counter: %d (expected %d)@." count (p.Tmk_apps.Racey2.rounds * nprocs))
  in
  Fmt.pr "simulated time: %a@." Tmk_sim.Vtime.pp result.Api.total_time;
  Fmt.pr "@.happens-before detector: %s@."
    (if Tmk_check.Race.has_findings race then "found races (unexpected!)"
     else "silent — this schedule ordered every conflicting pair");
  Fmt.pr "@.%s@." (Tmk_lint.Lint.report ~race lint);
  if Tmk_lint.Findings.has_errors (Tmk_lint.Lint.findings ~race lint) then exit 1
