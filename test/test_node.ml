(* White-box tests of the consistency bookkeeping in Node: interval
   closing, incorporation and its duplicate suppression, interval deltas,
   lazy diff creation, miss planning inputs, replay ordering, and the GC
   sweep. *)

open Tmk_dsm
module Vm = Tmk_mem.Vm

let check = Alcotest.check
let no_charge _ _ = ()

let make_node ?(pid = 0) ?(nprocs = 4) ?(pages = 4) () = Node.create ~pid ~nprocs ~pages ()

(* simulate a local write: twin the page, then poke the vm *)
let write node page ~offset v =
  (match Vm.prot node.Node.vm page with
  | Vm.Read_write -> ()
  | Vm.Read_only | Vm.No_access ->
    (* tests drive the bookkeeping directly; force writability first *)
    if node.Node.pages.(page).Node.pg_twin = None then
      Node.write_fault_twin node page ~charge:no_charge);
  Vm.write_int node.Node.vm (Vm.addr_of_page page + offset) v

let close_creates_interval () =
  let n = make_node () in
  write n 0 ~offset:0 1;
  write n 1 ~offset:8 2;
  check Alcotest.int "two dirty pages" 2 (List.length n.Node.dirty);
  Node.close_interval n ~charge:no_charge;
  check Alcotest.int "dirty drained" 0 (List.length n.Node.dirty);
  check Alcotest.int "vt advanced" 1 (Vector_time.get n.Node.vt 0);
  (match n.Node.intervals.(0) with
  | [ iv ] ->
    check Alcotest.int "interval id" 1 iv.Node.iv_id;
    check Alcotest.int "two notices" 2 (List.length iv.Node.iv_notices)
  | other -> Alcotest.failf "expected one interval, got %d" (List.length other));
  (* closing again with nothing dirty is a no-op *)
  Node.close_interval n ~charge:no_charge;
  check Alcotest.int "vt unchanged" 1 (Vector_time.get n.Node.vt 0)

let close_eager_diffs () =
  let n = make_node () in
  write n 0 ~offset:0 5;
  Node.close_interval ~eager_diffs:true n ~charge:no_charge;
  check Alcotest.int "diff created eagerly" 1 n.Node.stats.Stats.diffs_created;
  check Alcotest.bool "twin discarded" true (n.Node.pages.(0).Node.pg_twin = None);
  (* lazy default: no diff until demanded *)
  let n2 = make_node () in
  write n2 0 ~offset:0 5;
  Node.close_interval n2 ~charge:no_charge;
  check Alcotest.int "no eager diff" 0 n2.Node.stats.Stats.diffs_created;
  check Alcotest.bool "twin kept" true (n2.Node.pages.(0).Node.pg_twin <> None)

let msg_interval ?(diffs = []) ~proc ~id ~vt ~pages () =
  let v = Vector_time.create 4 in
  List.iteri (fun q x -> Vector_time.set v q x) vt;
  let diff_for p = List.assoc_opt p diffs in
  { Node.mi_proc = proc; mi_id = id; mi_vt = v; mi_pages = List.map (fun p -> (p, diff_for p)) pages }

let incorporate_invalidates () =
  let n = make_node ~pid:0 () in
  (* node 0 initially holds every page read-only *)
  Node.incorporate n [ msg_interval ~proc:1 ~id:1 ~vt:[ 0; 1; 0; 0 ] ~pages:[ 2 ] () ]
    ~charge:no_charge;
  check Alcotest.bool "page invalidated" true (Vm.prot n.Node.vm 2 = Vm.No_access);
  check Alcotest.int "vt tracks" 1 (Vector_time.get n.Node.vt 1);
  check Alcotest.int "notice recorded" 1 (List.length (Node.notices n.Node.pages.(2) 1))

let incorporate_skips_duplicates () =
  let n = make_node ~pid:0 () in
  let mi = msg_interval ~proc:1 ~id:1 ~vt:[ 0; 1; 0; 0 ] ~pages:[ 2 ] () in
  Node.incorporate n [ mi ] ~charge:no_charge;
  Node.incorporate n [ mi ] ~charge:no_charge;
  check Alcotest.int "one record only" 1 (List.length (Node.notices n.Node.pages.(2) 1));
  check Alcotest.int "one interval only" 1 (List.length n.Node.intervals.(1))

let incorporate_saves_local_twin () =
  let n = make_node ~pid:0 () in
  write n 2 ~offset:16 42;
  Node.close_interval n ~charge:no_charge;
  (* a foreign notice for the twinned page forces our diff first *)
  Node.incorporate n [ msg_interval ~proc:1 ~id:1 ~vt:[ 0; 1; 0; 0 ] ~pages:[ 2 ] () ]
    ~charge:no_charge;
  check Alcotest.int "local diff created" 1 n.Node.stats.Stats.diffs_created;
  check Alcotest.bool "twin gone" true (n.Node.pages.(2).Node.pg_twin = None);
  check Alcotest.bool "invalid" true (Vm.prot n.Node.vm 2 = Vm.No_access);
  (* and the local diff is addressable *)
  let diff = Node.find_diff n ~proc:0 ~interval_id:1 ~page:2 ~charge:no_charge in
  check Alcotest.bool "diff nonempty" false (Tmk_util.Rle.is_empty diff)

let intervals_since_delta () =
  let n = make_node ~pid:0 () in
  (* two own intervals *)
  write n 0 ~offset:0 1;
  Node.close_interval n ~charge:no_charge;
  (* page 0 is still writable (twin alive): re-twin requires a diff first *)
  Node.ensure_own_diff n 0 ~charge:no_charge;
  write n 0 ~offset:8 2;
  Node.close_interval n ~charge:no_charge;
  let zero = Vector_time.create 4 in
  check Alcotest.int "all intervals" 2 (List.length (Node.intervals_since n zero));
  let seen_one = Vector_time.create 4 in
  Vector_time.set seen_one 0 1;
  let delta = Node.intervals_since n seen_one in
  check Alcotest.int "only the newer" 1 (List.length delta);
  check Alcotest.int "its id" 2 (List.hd delta).Node.mi_id;
  (* foreign intervals flow through too *)
  Node.incorporate n [ msg_interval ~proc:2 ~id:1 ~vt:[ 0; 0; 1; 0 ] ~pages:[ 3 ] () ]
    ~charge:no_charge;
  check Alcotest.int "foreign included" 2 (List.length (Node.intervals_since n seen_one))

let own_intervals_only () =
  let n = make_node ~pid:0 () in
  write n 0 ~offset:0 1;
  Node.close_interval n ~charge:no_charge;
  Node.incorporate n [ msg_interval ~proc:2 ~id:1 ~vt:[ 0; 0; 1; 0 ] ~pages:[ 3 ] () ]
    ~charge:no_charge;
  let zero = Vector_time.create 4 in
  check Alcotest.int "own only" 1 (List.length (Node.own_intervals_since n zero));
  check Alcotest.int "own id" 0 (List.hd (Node.own_intervals_since n zero)).Node.mi_proc

let lazy_diff_on_request () =
  let n = make_node ~pid:0 () in
  write n 1 ~offset:24 9;
  Node.close_interval n ~charge:no_charge;
  check Alcotest.int "still lazy" 0 n.Node.stats.Stats.diffs_created;
  (* a diff request for our own newest notice creates it *)
  let diff = Node.find_diff n ~proc:0 ~interval_id:1 ~page:1 ~charge:no_charge in
  check Alcotest.int "created on demand" 1 n.Node.stats.Stats.diffs_created;
  check Alcotest.bool "page reprotected" true (Vm.prot n.Node.vm 1 = Vm.Read_only);
  check Alcotest.bool "has the bytes" false (Tmk_util.Rle.is_empty diff);
  (* unknown notices raise *)
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Node.find_diff n ~proc:3 ~interval_id:9 ~page:1 ~charge:no_charge))

let missing_diffs_prefix () =
  let n = make_node ~pid:0 () in
  Node.incorporate n
    [ msg_interval ~proc:1 ~id:1 ~vt:[ 0; 1; 0; 0 ] ~pages:[ 2 ] ();
      msg_interval ~proc:1 ~id:2 ~vt:[ 0; 2; 0; 0 ] ~pages:[ 2 ] () ]
    ~charge:no_charge;
  (match Node.missing_diffs n 2 with
  | [ (1, wns) ] ->
    check Alcotest.int "both lacking" 2 (List.length wns);
    check Alcotest.int "newest first" 2 (List.hd wns).Node.wn_interval.Node.iv_id
  | _ -> Alcotest.fail "unexpected grouping");
  (* Diffs arrive in complete fetch rounds, oldest first within a round,
     so the lacking notices always form a newest-first prefix.  Store the
     older diff: only the newer remains missing. *)
  Node.store_diff n ~proc:1 ~interval_id:1 ~page:2 (Tmk_util.Rle.of_runs []);
  (match Node.missing_diffs n 2 with
  | [ (1, [ wn ]) ] -> check Alcotest.int "newer still lacking" 2 wn.Node.wn_interval.Node.iv_id
  | _ -> Alcotest.fail "unexpected");
  Node.store_diff n ~proc:1 ~interval_id:2 ~page:2 (Tmk_util.Rle.of_runs []);
  check Alcotest.bool "none lacking" true (Node.missing_diffs n 2 = [])

(* Replay: applying an older foreign diff must re-apply newer held diffs
   over it (the byte-regression bug found by quicksort). *)
let apply_replays_newer_diffs () =
  let n = make_node ~pid:0 ~pages:1 () in
  (* incorporate two ordered foreign intervals touching the same word *)
  Node.incorporate n [ msg_interval ~proc:1 ~id:1 ~vt:[ 0; 1; 0; 0 ] ~pages:[ 0 ] () ]
    ~charge:no_charge;
  Node.incorporate n [ msg_interval ~proc:2 ~id:1 ~vt:[ 0; 1; 1; 0 ] ~pages:[ 0 ] () ]
    ~charge:no_charge;
  let diff_of value =
    let base = Bytes.make Vm.page_size '\000' in
    let cur = Bytes.copy base in
    Bytes.set_int64_le cur 0 (Int64.of_int value);
    Tmk_util.Rle.encode ~old_:base cur
  in
  (* the newer diff (proc 2, causally after proc 1's) is already held and
     applied; then the older one arrives *)
  Node.store_diff n ~proc:2 ~interval_id:1 ~page:0 (diff_of 222);
  let newer =
    match Node.notices n.Node.pages.(0) 2 with [ wn ] -> wn | _ -> assert false
  in
  Node.apply_missing_diffs n 0 [ newer ] ~charge:no_charge;
  check Alcotest.int "newer applied" 222 (Vm.read_int n.Node.vm 0);
  Node.store_diff n ~proc:1 ~interval_id:1 ~page:0 (diff_of 111);
  let older =
    match Node.notices n.Node.pages.(0) 1 with [ wn ] -> wn | _ -> assert false
  in
  Node.apply_missing_diffs n 0 [ older ] ~charge:no_charge;
  (* without replay this would regress to 111 *)
  check Alcotest.int "newer value survives" 222 (Vm.read_int n.Node.vm 0)

let discard_sweeps_everything () =
  let n = make_node ~pid:0 () in
  write n 0 ~offset:0 1;
  Node.close_interval n ~charge:no_charge;
  Node.incorporate n [ msg_interval ~proc:1 ~id:1 ~vt:[ 0; 1; 0; 0 ] ~pages:[ 2 ] () ]
    ~charge:no_charge;
  check Alcotest.bool "records live" true (n.Node.live_records > 0);
  let freed = Node.discard_all_records n ~charge:no_charge in
  check Alcotest.bool "freed" true (freed > 0);
  check Alcotest.int "live zero" 0 n.Node.live_records;
  check Alcotest.bool "twins gone" true
    (Array.for_all (fun e -> e.Node.pg_twin = None) n.Node.pages);
  check Alcotest.bool "intervals gone" true
    (Array.for_all (fun l -> l = []) n.Node.intervals)

let modified_pages_tracks () =
  let n = make_node ~pid:0 () in
  write n 0 ~offset:0 1;
  check Alcotest.(list int) "twinned page" [ 0 ] (Node.modified_pages n);
  Node.close_interval n ~charge:no_charge;
  Node.ensure_own_diff n 0 ~charge:no_charge;
  (* notice remains after the diff *)
  check Alcotest.(list int) "still modified" [ 0 ] (Node.modified_pages n)

let notice_counts_sizes () =
  let mis =
    [ msg_interval ~proc:0 ~id:1 ~vt:[ 1; 0; 0; 0 ] ~pages:[ 1; 2; 3 ] ();
      msg_interval ~proc:1 ~id:1 ~vt:[ 0; 1; 0; 0 ] ~pages:[] () ]
  in
  check Alcotest.(list int) "counts" [ 3; 0 ] (Node.notice_counts mis)

(* ------------------------------------------------------------------ *)
(* Replay-set equivalence.  [apply_missing_diffs] walks only the prefix
   of each notice list stamped above the oldest missing diff.  Over
   random histories of local intervals, incorporated remote intervals,
   stored diffs and applications, it must replay exactly what the
   whole-history filter below (the definition it replaced) selects, and
   every notice list must stay strictly newest-first. *)

(* The four-pass total order the one-pass compare_total replaced. *)
let reference_compare a b =
  if Vector_time.equal a b then 0
  else if Vector_time.leq a b then -1
  else if Vector_time.leq b a then 1
  else compare a b

let stamp wn = wn.Node.wn_interval.Node.iv_vt

let reference_replay node page notices =
  let needs_replay wn =
    wn.Node.wn_diff <> None
    && (not (List.memq wn notices))
    && List.exists (fun m -> reference_compare (stamp m) (stamp wn) < 0) notices
  in
  List.concat_map
    (fun q -> List.filter needs_replay (Node.notices node.Node.pages.(page) q))
    (List.init node.Node.nprocs Fun.id)

type op =
  | Local of int list  (** node 0 writes these pages and closes an interval *)
  | Remote of int * int option * (int * bool) list
      (** processor [q], after optionally acquiring from [r], writes
          pages (each maybe with a piggybacked diff); node 0 incorporates
          the interval at once *)
  | Store of int  (** store the diff of the k-th diff-less remote notice *)
  | Apply of int * int  (** apply the held diffs of a page picked by a bit mask *)

let replay_nprocs = 4
let replay_pages = 3

let show_op = function
  | Local pages ->
    Printf.sprintf "Local [%s]" (String.concat ";" (List.map string_of_int pages))
  | Remote (q, r, pages) ->
    Printf.sprintf "Remote (%d, %s, [%s])" q
      (match r with None -> "-" | Some r -> string_of_int r)
      (String.concat ";"
         (List.map (fun (p, d) -> Printf.sprintf "%d%s" p (if d then "+diff" else "")) pages))
  | Store k -> Printf.sprintf "Store %d" k
  | Apply (page, mask) -> Printf.sprintf "Apply (%d, %d)" page mask

let ops_gen =
  let open QCheck.Gen in
  let page = int_range 0 (replay_pages - 1) in
  let pages = list_size (int_range 1 2) page in
  let piggybacked = frequency [ (4, return false); (1, return true) ] in
  let op =
    frequency
      [
        (2, map (fun ps -> Local ps) pages);
        ( 4,
          map3
            (fun q r ps -> Remote (q, r, ps))
            (int_range 1 (replay_nprocs - 1))
            (opt (int_range 0 (replay_nprocs - 1)))
            (list_size (int_range 1 2) (pair page piggybacked)) );
        (3, map (fun k -> Store k) (int_range 0 50));
        (2, map2 (fun p m -> Apply (p, m)) page (int_range 1 255));
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    (list_size (int_range 1 40) op)

let empty_diff = Tmk_util.Rle.of_runs []

let notice_lists_descend node =
  Array.for_all
    (fun entry ->
      List.for_all
        (fun q ->
          let rec desc = function
            | a :: (b :: _ as rest) ->
              a.Node.wn_interval.Node.iv_id > b.Node.wn_interval.Node.iv_id
              && Vector_time.compare_total (stamp a) (stamp b) > 0
              && desc rest
            | _ -> true
          in
          desc (Node.notices entry q))
        (List.init node.Node.nprocs Fun.id))
    node.Node.pages

let run_replay_history ops =
  let applied = ref [] in
  let emit = function
    | Tmk_trace.Event.Diff_apply { proc; interval; _ } ->
      applied := (proc, interval) :: !applied
    | _ -> ()
  in
  let n = Node.create ~emit ~pid:0 ~nprocs:replay_nprocs ~pages:replay_pages () in
  (* each remote processor's knowledge of the cluster's intervals *)
  let known = Array.init replay_nprocs (fun _ -> Array.make replay_nprocs 0) in
  let notices_of page =
    List.concat_map (Node.notices n.Node.pages.(page)) (List.init replay_nprocs Fun.id)
  in
  let step = function
    | Local pages ->
      List.iter (fun p -> write n p ~offset:(8 * p) 1) pages;
      Node.close_interval n ~charge:no_charge;
      true
    | Remote (q, r, pages) ->
      (match r with
      | Some 0 ->
        Array.iteri (fun i v -> known.(q).(i) <- max v (Vector_time.get n.Node.vt i)) known.(q)
      | Some r -> Array.iteri (fun i v -> known.(q).(i) <- max v known.(r).(i)) known.(q)
      | None -> ());
      known.(q).(q) <- known.(q).(q) + 1;
      let vt = Vector_time.create replay_nprocs in
      Array.iteri (Vector_time.set vt) known.(q);
      let mi_pages =
        List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b) pages
        |> List.map (fun (p, d) -> (p, if d then Some empty_diff else None))
      in
      Node.incorporate n [ { Node.mi_proc = q; mi_id = known.(q).(q); mi_vt = vt; mi_pages } ]
        ~charge:no_charge;
      true
    | Store k -> (
      let lacking =
        List.concat_map
          (fun page ->
            List.filter
              (fun wn -> wn.Node.wn_diff = None && wn.Node.wn_interval.Node.iv_proc <> 0)
              (notices_of page))
          (List.init replay_pages Fun.id)
      in
      match lacking with
      | [] -> true
      | _ ->
        let wn = List.nth lacking (k mod List.length lacking) in
        Node.store_diff n ~proc:wn.Node.wn_interval.Node.iv_proc
          ~interval_id:wn.Node.wn_interval.Node.iv_id ~page:wn.Node.wn_page empty_diff;
        true)
    | Apply (page, mask) -> (
      Node.ensure_own_diff n page ~charge:no_charge;
      let held = List.filter (fun wn -> wn.Node.wn_diff <> None) (notices_of page) in
      let notices = List.filteri (fun i _ -> mask land (1 lsl (i mod 8)) <> 0) held in
      match notices with
      | [] -> true
      | _ ->
        let expected =
          List.sort
            (fun a b -> reference_compare (stamp a) (stamp b))
            (notices @ reference_replay n page notices)
          |> List.map (fun wn ->
                 (wn.Node.wn_interval.Node.iv_proc, wn.Node.wn_interval.Node.iv_id))
        in
        applied := [];
        Node.apply_missing_diffs n page notices ~charge:no_charge;
        List.rev !applied = expected)
  in
  List.for_all (fun op -> step op && notice_lists_descend n) ops

let replay_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"replay set matches the whole-history filter" ops_gen
       run_replay_history)

let find_notice_stops_early () =
  let n = make_node ~pid:0 () in
  Node.incorporate n
    [ msg_interval ~proc:1 ~id:2 ~vt:[ 0; 2; 0; 0 ] ~pages:[ 2 ] ();
      msg_interval ~proc:1 ~id:4 ~vt:[ 0; 4; 0; 0 ] ~pages:[ 2 ] () ]
    ~charge:no_charge;
  Node.store_diff n ~proc:1 ~interval_id:2 ~page:2 empty_diff;
  check Alcotest.bool "older notice found behind the newer" true
    (Node.find_diff n ~proc:1 ~interval_id:2 ~page:2 ~charge:no_charge == empty_diff);
  List.iter
    (fun id ->
      Alcotest.check_raises (Printf.sprintf "interval %d unknown" id) Not_found (fun () ->
          Node.store_diff n ~proc:1 ~interval_id:id ~page:2 empty_diff))
    [ 1; 3; 5 ]

(* ------------------------------------------------------------------ *)
(* Sparse notice index.  Over random histories of local intervals,
   incorporated remote intervals (duplicates included) and GC sweeps, the
   index must answer exactly like a dense per-page, per-processor array
   of lists.  The reference is rebuilt from the interval records (the
   ProcArray), not from the index: every notice of a new interval is
   prepended to its (page, processor) cell, oldest interval first. *)

type index_op =
  | Close of int list  (** the node writes these pages and closes an interval *)
  | Recv of int * int list  (** processor [q] sends an interval naming these pages *)
  | Resend of int  (** re-deliver the k-th interval sent so far (a duplicate) *)
  | Sweep  (** GC: discard every record *)

let index_nprocs = 7
let index_pid = 3
let index_pages = 3

let show_pages pages = String.concat ";" (List.map string_of_int pages)

let show_index_op = function
  | Close pages -> Printf.sprintf "Close [%s]" (show_pages pages)
  | Recv (q, pages) -> Printf.sprintf "Recv (%d, [%s])" q (show_pages pages)
  | Resend k -> Printf.sprintf "Resend %d" k
  | Sweep -> "Sweep"

let index_ops_gen =
  let open QCheck.Gen in
  let page = int_range 0 (index_pages - 1) in
  let pages = map (List.sort_uniq Int.compare) (list_size (int_range 1 3) page) in
  (* any processor but the node itself *)
  let remote =
    map (fun q -> if q >= index_pid then q + 1 else q) (int_range 0 (index_nprocs - 2))
  in
  let op =
    frequency
      [
        (3, map (fun ps -> Close ps) pages);
        (6, map2 (fun q ps -> Recv (q, ps)) remote pages);
        (1, map (fun k -> Resend k) (int_range 0 50));
        (1, return Sweep);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_index_op ops))
    (list_size (int_range 1 60) op)

let index_procs = List.init index_nprocs Fun.id
let same_list a b = List.length a = List.length b && List.for_all2 ( == ) a b

(* [Node.notices] answers like the dense cell for every processor, and
   the writer walk yields the non-empty cells in decreasing processor
   order. *)
let index_agrees entry cells =
  let walked = ref [] in
  Node.iter_writers entry (fun q l -> walked := (q, l) :: !walked);
  let expected =
    List.filter_map (fun q -> if cells.(q) = [] then None else Some (q, cells.(q))) index_procs
  in
  List.for_all (fun q -> same_list (Node.notices entry q) cells.(q)) index_procs
  && List.length !walked = List.length expected
  (* [walked] was built by prepending, so it is in increasing order now *)
  && List.for_all2 (fun (q, l) (q', l') -> q = q' && same_list l l') !walked expected

let run_index_history ops =
  let n = Node.create ~pid:index_pid ~nprocs:index_nprocs ~pages:index_pages () in
  let dense = Array.init index_pages (fun _ -> Array.make index_nprocs []) in
  let sent = ref [] and next_id = Array.make index_nprocs 0 in
  (* mirror every interval record that appeared since [before] *)
  let mirror before =
    Array.iteri
      (fun q ivs ->
        let rec fresh acc = function
          | l when l == before.(q) -> acc
          | iv :: rest -> fresh (iv :: acc) rest
          | [] -> acc
        in
        List.iter
          (fun iv ->
            List.iter
              (fun wn -> dense.(wn.Node.wn_page).(q) <- wn :: dense.(wn.Node.wn_page).(q))
              iv.Node.iv_notices)
          (fresh [] ivs))
      n.Node.intervals
  in
  let step op =
    let before = Array.copy n.Node.intervals in
    (match op with
    | Close pages ->
      List.iter (fun p -> write n p ~offset:(8 * p) 1) pages;
      Node.close_interval n ~charge:no_charge
    | Recv (q, pages) ->
      next_id.(q) <- next_id.(q) + 1;
      let vt = Vector_time.create index_nprocs in
      Vector_time.set vt q next_id.(q);
      let mi =
        {
          Node.mi_proc = q;
          mi_id = next_id.(q);
          mi_vt = vt;
          mi_pages = List.map (fun p -> (p, None)) pages;
        }
      in
      sent := mi :: !sent;
      Node.incorporate n [ mi ] ~charge:no_charge
    | Resend k -> (
      match !sent with
      | [] -> ()
      | l -> Node.incorporate n [ List.nth l (k mod List.length l) ] ~charge:no_charge)
    | Sweep ->
      ignore (Node.discard_all_records n ~charge:no_charge);
      Array.iter (fun cells -> Array.fill cells 0 index_nprocs []) dense);
    mirror before;
    List.for_all
      (fun page -> index_agrees n.Node.pages.(page) dense.(page))
      (List.init index_pages Fun.id)
  in
  List.for_all step ops

let index_matches_dense =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"notice index matches a dense array" index_ops_gen
       run_index_history)

(* The PageArray must not cost pages x nprocs: a fresh 1024-processor node
   over Jacobi's 258 pages held 406,517 words with a dense notice array per
   page and a flat address space. *)
let create_is_small () =
  List.iter
    (fun pid ->
      let n = Node.create ~pid ~nprocs:1024 ~pages:258 () in
      let words = Obj.reachable_words (Obj.repr n) in
      if words * 10 >= 406_517 then
        Alcotest.failf "node %d of 1024 holds %d words at creation" pid words)
    [ 0; 1 ]

let suite =
  [
    Alcotest.test_case "close creates interval" `Quick close_creates_interval;
    Alcotest.test_case "close eager diffs" `Quick close_eager_diffs;
    Alcotest.test_case "incorporate invalidates" `Quick incorporate_invalidates;
    Alcotest.test_case "incorporate skips duplicates" `Quick incorporate_skips_duplicates;
    Alcotest.test_case "incorporate saves local twin" `Quick incorporate_saves_local_twin;
    Alcotest.test_case "intervals_since delta" `Quick intervals_since_delta;
    Alcotest.test_case "own intervals only" `Quick own_intervals_only;
    Alcotest.test_case "lazy diff on request" `Quick lazy_diff_on_request;
    Alcotest.test_case "missing diffs prefix" `Quick missing_diffs_prefix;
    Alcotest.test_case "apply replays newer diffs" `Quick apply_replays_newer_diffs;
    Alcotest.test_case "discard sweeps everything" `Quick discard_sweeps_everything;
    Alcotest.test_case "modified pages tracks" `Quick modified_pages_tracks;
    Alcotest.test_case "notice counts" `Quick notice_counts_sizes;
    replay_matches_reference;
    Alcotest.test_case "find_notice stops at older intervals" `Quick find_notice_stops_early;
    index_matches_dense;
    Alcotest.test_case "node creation is small" `Quick create_is_small;
  ]
