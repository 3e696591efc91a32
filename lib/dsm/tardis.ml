(* Tardis-style timestamp coherence: logical leases instead of vector
   timestamps.

   Every page has a write timestamp [wts] (the logical time of its last
   write) and a read timestamp [rts] (the logical time its current value
   is leased through); every processor has a scalar logical clock [pts].
   A read leases the page forward ([rts] grows by [lease_span] past the
   reader's clock); a write must pick [wts > rts], so it never rewrites
   logical times at which somebody may still be reading the old value —
   stale copies stay {e logically} valid until their lease runs out, and
   no invalidation fan-out is ever sent.  Synchronization carries one
   scalar timestamp: the acquirer merges the granter's clock and then
   expires every cached page whose lease is older than the merged clock
   (a local sweep, no messages).  For data-race-free programs this gives
   the same guarantees as the vector-timestamp protocols: granting a
   lease forces the owner to read-only, so any later write picks
   [wts > lease] and propagates a larger clock through the sync chain
   that expires the lease at the next acquire.

   Page requests go through the shared single-writer {!Directory}: one
   manager per page ([Cluster.page_owner]: page mod nprocs, or the
   consistent-hash ring under [Config.sharding]) serializes them,
   Li–Hudak style.  This module adds only the (wts, rts) pair per page —
   no copyset, because there is nothing to invalidate.  An ownership
   transfer leaves the old owner a leased read-only copy valid through
   [wts - 1]. *)

open Tmk_sim
module Vm = Tmk_mem.Vm
module Costs = Tmk_mem.Costs

let caps = Backend.plain_caps

(* How far past the reader's clock a read leases the page.  Larger spans
   mean fewer re-reads of stable pages across synchronization; smaller
   spans expire sooner.  Leases are logical, so the span costs nothing
   when nobody writes. *)
let lease_span = 8

(* What a request carries from the faulting processor: its clock, and
   the wts of the bytes it still caches (-1 = none). *)
type stamp = { st_pts : int; st_version : int }

type t = {
  cl : Cluster.t;
  wts : int array;  (* per page: logical time of the last write *)
  rts : int array;  (* per page: the current value is leased through here *)
  pts : int array;  (* per-processor scalar logical clock *)
  lease : int array array;  (* lease.(pid).(page): valid-through rts *)
  version : int array array;  (* version.(pid).(page): wts of cached bytes; -1 = none *)
}

(* ------------------------------------------------------------------ *)
(* Page requests: the lease arithmetic on the directory's steps.       *)

(* Manager: a read leases the current value forward past the reader's
   clock; a write happens after every outstanding lease and after the
   writer's own clock, so it needs no invalidations, ever.  Either way
   the page travels only when the requester's cached bytes are stale. *)
let serve t d rq h =
  let page = rq.Directory.rq_page and { st_pts; st_version } = rq.Directory.rq_info in
  match rq.Directory.rq_kind with
  | Directory.Read_miss ->
    t.rts.(page) <- max t.rts.(page) (st_pts + lease_span);
    Directory.read d rq ~with_page:(st_version <> t.wts.(page)) h
  | Directory.Write_miss ->
    let old_wts = t.wts.(page) in
    let wts = 1 + max old_wts (max t.rts.(page) st_pts) in
    t.wts.(page) <- wts;
    t.rts.(page) <- wts;
    Directory.write d rq ~need_page:(st_version <> old_wts) h

(* The old owner relinquishes eagerly — in its own handler, so a
   concurrent lease sweep at this processor either still sees it as
   owner (copy current, skip) or sees the lease set here — keeping a
   read-only copy leased through the new write time minus one.  Its
   [version] already names those bytes: an owner never re-fetches its
   page. *)
let relinquish t rq ~owner h =
  let page = rq.Directory.rq_page in
  Directory.restrict t.cl h ~pid:owner page Vm.Read_only;
  t.lease.(owner).(page) <- t.wts.(page) - 1

(* Requester: record version and lease (the page's rts, which a write
   set to its wts), and advance the clock past the write it just read.
   One request per page is in flight, so [wts] and [rts] still hold what
   [serve] set for this one. *)
let granted t rq =
  let page = rq.Directory.rq_page and pid = rq.Directory.rq_pid in
  t.version.(pid).(page) <- t.wts.(page);
  t.lease.(pid).(page) <- t.rts.(page);
  t.pts.(pid) <- max t.pts.(pid) t.wts.(page)

(* ------------------------------------------------------------------ *)
(* Synchronization: merge the granter's clock, sweep expired leases.   *)

(* Expire every cached page whose lease is older than this processor's
   (just-merged) clock.  The owner of a page never expires its own copy:
   ownership means holding the newest bytes.  [version] is kept — it
   records which bytes are still in memory, so a later re-read whose
   version matches the current wts costs no page transfer. *)
let sweep t d pid ~charge =
  let node = t.cl.Cluster.nodes.(pid) in
  let npages = t.cl.Cluster.cfg.Config.pages in
  charge Category.Tmk_consistency (Vtime.scale Cpu.lease_sweep_per_page npages);
  let now = t.pts.(pid) in
  for page = 0 to npages - 1 do
    if
      t.version.(pid).(page) >= 0
      && Directory.owner d page <> pid
      && Vm.prot node.Node.vm page <> Vm.No_access
      && t.lease.(pid).(page) < now
    then begin
      charge Category.Unix_mem Costs.mprotect;
      Vm.set_prot node.Node.vm page Vm.No_access;
      node.Node.pages.(page).Node.pg_has_copy <- false;
      node.Node.stats.Stats.lease_expiries <- node.Node.stats.Stats.lease_expiries + 1;
      if Engine.tracing t.cl.Cluster.engine then
        Cluster.emit t.cl ~pid (Tmk_trace.Event.Lease_expire { page })
    end
  done

(* Absorb one synchronization timestamp: merge, sweep, trace. *)
let absorb t d pid ~from_pts ~charge =
  charge Category.Tmk_consistency Cpu.incorporate_base;
  t.pts.(pid) <- max t.pts.(pid) from_pts;
  sweep t d pid ~charge;
  if Engine.tracing t.cl.Cluster.engine then
    Cluster.emit t.cl ~pid (Tmk_trace.Event.Ts_sync { ts = t.pts.(pid) })

let make_acquire t d ~pid =
  {
    Backend.a_grant =
      (fun ~granter ~charge ->
        charge Category.Unix_comm Cpu.lock_grant_kernel;
        charge Category.Tmk_other Cpu.lock_grant_dsm;
        let granter_pts = t.pts.(granter) in
        {
          Backend.p_bytes = Wire.tardis_lock_grant_bytes;
          p_parts = 1;
          p_absorb = (fun ~charge -> absorb t d pid ~from_pts:granter_pts ~charge);
        });
  }

(* The scalar clock makes tree combining trivial: absorbing an arrival
   is a [max] merge, so an interior node's own arrival (built after its
   children's merges) already carries its whole subtree — [relay] needs
   no special handling. *)
let make_arrival t d ~pid ~mgr =
  let arrival_pts = t.pts.(pid) in
  {
    Backend.v_bytes = Wire.tardis_barrier_arrival_bytes;
    v_parts = 1;
    v_absorb_mgr =
      (fun ~charge ->
        charge Category.Tmk_consistency Cpu.incorporate_base;
        t.pts.(mgr) <- max t.pts.(mgr) arrival_pts);
    v_release =
      (fun ~charge:_ ->
        let merged = t.pts.(mgr) in
        {
          Backend.p_bytes = Wire.tardis_barrier_release_bytes;
          p_parts = 1;
          p_absorb = (fun ~charge -> absorb t d pid ~from_pts:merged ~charge);
        });
  }

let make cl =
  let npages = cl.Cluster.cfg.Config.pages in
  let n = cl.Cluster.cfg.Config.nprocs in
  let t =
    {
      cl;
      wts = Array.make npages 0;
      rts = Array.make npages 0;
      pts = Array.make n 0;
      lease = Array.make_matrix n npages 0;
      version = Array.init n (fun pid -> Array.make npages (if pid = 0 then 0 else -1));
    }
  in
  let d =
    Directory.create cl
      {
        Directory.name = "tardis";
        request_bytes = Wire.tardis_page_request_bytes;
        reply_bytes = Wire.tardis_page_reply_bytes;
        serve = serve t;
        relinquish = relinquish t;
        granted = granted t;
        completed = ignore;
      }
  in
  let fault ~pid kind page =
    Directory.fault d ~pid kind page
      { st_pts = t.pts.(pid); st_version = t.version.(pid).(page) }
  in
  {
    (Backend.plain ~nprocs:n ~fault) with
    Backend.b_lock_request_bytes = Wire.tardis_lock_request_bytes;
    b_make_acquire = make_acquire t d;
    b_make_arrival = (fun ~pid ~mgr ~relay:_ -> make_arrival t d ~pid ~mgr);
    b_barrier_depart =
      (* the manager merged every arrival into its own clock; sweep it
         (clients sweep inside their release payload's absorb) *)
      (fun ~pid ->
        Cluster.atomically (fun charge ->
            sweep t d pid ~charge;
            if Engine.tracing cl.Cluster.engine then
              Cluster.emit cl ~pid (Tmk_trace.Event.Ts_sync { ts = t.pts.(pid) })));
  }
