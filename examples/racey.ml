(* Racey: the histogram example with the per-bucket locks removed — a
   deliberately data-racy program, kept as the race detector's positive
   fixture.  Every processor folds its private counts into the shared
   buckets with a plain read-modify-write, so nothing orders the folds
   and the detector must flag every bucket word.  Run with:

     dune exec examples/racey.exe          (exits 1: races found)
     tmk_run --racecheck examples/racey.ml (same fixture via the harness)

   TreadMarks promises sequential consistency only for data-race-free
   programs (§2 of the paper); under an unlucky schedule this program
   really does lose increments. *)

open Tmk_dsm

let nprocs = 8

let () =
  let p = Tmk_apps.Racey.default in
  let config =
    {
      Config.default with
      Config.nprocs;
      pages = Tmk_apps.Racey.pages_needed p;
      seed = 1994L;
    }
  in
  let race = Tmk_check.Race.create ~nprocs () in
  let config = { config with Config.check = [ Tmk_check.Race.hooks race ] } in
  let expected = Tmk_apps.Racey.sequential p in
  let result =
    Api.run config (fun ctx ->
        match Tmk_apps.Racey.parallel ctx p with
        | None -> ()
        | Some hist ->
          Fmt.pr "bucket counts (racy fold):@.";
          Array.iteri
            (fun b c ->
              Fmt.pr "  bucket %d: %d (sequential says %d)%s@." b c expected.(b)
                (if c <> expected.(b) then "  <- lost updates" else ""))
            hist)
  in
  Fmt.pr "simulated time: %a@." Tmk_sim.Vtime.pp result.Api.total_time;
  Fmt.pr "@.%s@." (Tmk_check.Race.report race);
  if Tmk_check.Race.has_findings race then exit 1
