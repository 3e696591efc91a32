(* Software-MMU tests: typed accessors, protection faults, page
   snapshot/patch machinery. *)

open Tmk_mem

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let accessors_roundtrip () =
  let vm = Vm.create ~pages:4 () in
  Vm.write_u8 vm 0 0xAB;
  check Alcotest.int "u8" 0xAB (Vm.read_u8 vm 0);
  Vm.write_i64 vm 8 0x1122334455667788L;
  check Alcotest.int64 "i64" 0x1122334455667788L (Vm.read_i64 vm 8);
  Vm.write_int vm 16 (-123456789);
  check Alcotest.int "int" (-123456789) (Vm.read_int vm 16);
  Vm.write_f64 vm 24 3.14159;
  check (Alcotest.float 0.0) "f64" 3.14159 (Vm.read_f64 vm 24);
  (* Last valid slot of the last page. *)
  let last = Vm.size_bytes vm - 8 in
  Vm.write_f64 vm last 2.5;
  check (Alcotest.float 0.0) "end of space" 2.5 (Vm.read_f64 vm last)

let bounds_checks () =
  let vm = Vm.create ~pages:1 () in
  Alcotest.check_raises "negative" (Invalid_argument "Vm: address -1 out of range")
    (fun () -> ignore (Vm.read_u8 vm (-1)));
  Alcotest.check_raises "past end" (Invalid_argument "Vm: address 4089 out of range")
    (fun () -> ignore (Vm.read_i64 vm 4089));
  let vm2 = Vm.create ~pages:2 () in
  Alcotest.check_raises "straddle"
    (Invalid_argument "Vm: access at 4092 straddles a page boundary") (fun () ->
      ignore (Vm.read_i64 vm2 4092))

let read_fault_dispatch () =
  let vm = Vm.create ~pages:2 () in
  Vm.write_int vm 4096 77;
  Vm.set_prot vm 1 Vm.No_access;
  let faults = ref [] in
  Vm.set_fault_handler vm (fun kind page ->
      faults := (kind, page) :: !faults;
      Vm.set_prot vm page Vm.Read_only);
  check Alcotest.int "read retried" 77 (Vm.read_int vm 4096);
  check Alcotest.bool "one read fault" true (!faults = [ (Vm.Read, 1) ]);
  (* Second read: no further fault. *)
  ignore (Vm.read_int vm 4096);
  check Alcotest.int "still one fault" 1 (List.length !faults)

let write_fault_on_read_only () =
  let vm = Vm.create ~pages:1 () in
  Vm.set_prot vm 0 Vm.Read_only;
  let faulted = ref false in
  Vm.set_fault_handler vm (fun kind page ->
      check Alcotest.bool "write kind" true (kind = Vm.Write);
      faulted := true;
      Vm.set_prot vm page Vm.Read_write);
  Vm.write_int vm 0 5;
  check Alcotest.bool "fault ran" true !faulted;
  check Alcotest.int "write landed" 5 (Vm.read_int vm 0)

let fault_loop_detected () =
  let vm = Vm.create ~pages:1 () in
  Vm.set_prot vm 0 Vm.No_access;
  Vm.set_fault_handler vm (fun _ _ -> (* forgets to fix the protection *) ());
  (match Vm.read_u8 vm 0 with
  | _ -> Alcotest.fail "expected Fault_loop"
  | exception Vm.Fault_loop { page = 0; kind = Vm.Read } -> ()
  | exception _ -> Alcotest.fail "wrong exception")

let snapshot_install_roundtrip () =
  let vm = Vm.create ~pages:2 () in
  for i = 0 to 511 do
    Vm.write_int vm (4096 + (i * 8)) (i * i)
  done;
  let snap = Vm.page_snapshot vm 1 in
  let vm2 = Vm.create ~pages:2 () in
  Vm.install_page vm2 1 snap;
  for i = 0 to 511 do
    check Alcotest.int "copied" (i * i) (Vm.read_int vm2 (4096 + (i * 8)))
  done

let install_wrong_size () =
  let vm = Vm.create ~pages:1 () in
  Alcotest.check_raises "wrong size" (Invalid_argument "Vm.install_page: wrong page size")
    (fun () -> Vm.install_page vm 0 (Bytes.create 100))

let diff_patch_roundtrip () =
  let vm = Vm.create ~pages:1 () in
  Vm.write_int vm 0 1;
  Vm.write_int vm 1000 2;
  let twin = Vm.page_snapshot vm 0 in
  (* Modify after twinning. *)
  Vm.write_int vm 8 42;
  Vm.write_int vm 2000 43;
  let diff = Vm.diff_against vm 0 ~twin in
  check Alcotest.bool "nonempty" false (Tmk_util.Rle.is_empty diff);
  (* A second VM holding the twin contents catches up via the diff. *)
  let vm2 = Vm.create ~pages:1 () in
  Vm.install_page vm2 0 twin;
  Vm.patch vm2 0 diff;
  check Alcotest.bool "pages equal" true
    (Bytes.equal (Vm.page_snapshot vm 0) (Vm.page_snapshot vm2 0))

let diff_patch_random =
  qtest "random writes diff/patch to equality"
    QCheck.(pair int64 (list_of_size (QCheck.Gen.int_range 0 40) (pair (int_range 0 511) small_int)))
    (fun (seed, writes) ->
      ignore seed;
      let vm = Vm.create ~pages:1 () in
      (* Seed page with a pattern. *)
      for i = 0 to 511 do
        Vm.write_int vm (i * 8) i
      done;
      let twin = Vm.page_snapshot vm 0 in
      List.iter (fun (slot, v) -> Vm.write_int vm (slot * 8) v) writes;
      let diff = Vm.diff_against vm 0 ~twin in
      let vm2 = Vm.create ~pages:1 () in
      Vm.install_page vm2 0 twin;
      Vm.patch vm2 0 diff;
      Bytes.equal (Vm.page_snapshot vm 0) (Vm.page_snapshot vm2 0))

let identical_page_empty_diff () =
  let vm = Vm.create ~pages:1 () in
  Vm.write_int vm 0 9;
  let twin = Vm.page_snapshot vm 0 in
  check Alcotest.bool "empty" true (Tmk_util.Rle.is_empty (Vm.diff_against vm 0 ~twin))

(* Frames on demand: untouched pages share one zero frame, which nothing
   may write; a page gets its own frame (and, when [Read_write], its fast
   bit) at its first write, install or patch. *)

let untouched_reads_zero () =
  let vm = Vm.create ~pages:3 () in
  List.iter
    (fun addr ->
      check Alcotest.int (Printf.sprintf "int at %d" addr) 0 (Vm.read_int vm addr);
      check Alcotest.int (Printf.sprintf "u8 at %d" addr) 0 (Vm.read_u8 vm addr))
    [ 0; 8; 4096; 8184; Vm.size_bytes vm - 8 ];
  check Alcotest.bool "snapshot is zeros" true
    (Bytes.equal (Vm.page_snapshot vm 2) (Bytes.make Vm.page_size '\000'))

let untouched_snapshot_is_fresh () =
  let vm = Vm.create ~pages:3 () in
  let snap = Vm.page_snapshot vm 0 in
  Bytes.fill snap 0 Vm.page_size '\255';
  check Alcotest.bool "second snapshot is a different buffer" true
    (Vm.page_snapshot vm 0 != snap);
  let zeros = Bytes.make Vm.page_size '\000' in
  for page = 0 to 2 do
    check Alcotest.bool (Printf.sprintf "page %d still zero" page) true
      (Bytes.equal (Vm.page_snapshot vm page) zeros);
    check Alcotest.int (Printf.sprintf "page %d reads zero" page) 0
      (Vm.read_int vm (Vm.addr_of_page page))
  done;
  (* the zero frame is shared by every address space *)
  let other = Vm.create ~pages:1 () in
  check Alcotest.int "another space reads zero" 0 (Vm.read_u8 other 17)

(* a one-run diff writing [len] bytes of [c] at [offset] *)
let run_of ~offset ~len c =
  Tmk_util.Rle.of_runs [ { Tmk_util.Rle.offset; bytes = Bytes.make len c } ]

let first_touch_owns_frame () =
  let vm = Vm.create ~pages:4 () in
  for page = 0 to 3 do
    check Alcotest.bool (Printf.sprintf "page %d slow until touched" page) false
      (Vm.fast_page vm page)
  done;
  (* a read does not give the page a frame *)
  ignore (Vm.read_int vm 0);
  check Alcotest.bool "read leaves it slow" false (Vm.fast_page vm 0);
  Vm.write_int vm 8 5;
  check Alcotest.bool "first write" true (Vm.fast_page vm 0);
  check Alcotest.int "write landed" 5 (Vm.read_int vm 8);
  Vm.install_page vm 1 (Bytes.make Vm.page_size '\001');
  check Alcotest.bool "install" true (Vm.fast_page vm 1);
  check Alcotest.int "installed bytes" 1 (Vm.read_u8 vm (Vm.addr_of_page 1 + 9));
  Vm.patch vm 2 (run_of ~offset:16 ~len:8 '\002');
  check Alcotest.bool "patch" true (Vm.fast_page vm 2);
  check Alcotest.int "patched bytes" 2 (Vm.read_u8 vm (Vm.addr_of_page 2 + 16));
  check Alcotest.bool "untouched page still slow" false (Vm.fast_page vm 3);
  (* re-arming an untouched page does not admit it either: a fast write
     there would land in the shared zero frame *)
  Vm.set_prot vm 3 Vm.Read_write;
  check Alcotest.bool "writable untouched page is slow" false (Vm.fast_page vm 3);
  (* an owned frame keeps its bit tied to the protection *)
  Vm.set_prot vm 1 Vm.Read_only;
  check Alcotest.bool "read-only is slow" false (Vm.fast_page vm 1);
  Vm.set_prot vm 1 Vm.Read_write;
  check Alcotest.bool "writable again" true (Vm.fast_page vm 1);
  (* installing into a protected page owns the frame but sets no bit *)
  Vm.set_prot vm 3 Vm.No_access;
  Vm.install_page vm 3 (Bytes.make Vm.page_size '\003');
  check Alcotest.bool "no bit while protected" false (Vm.fast_page vm 3);
  Vm.set_prot vm 3 Vm.Read_write;
  check Alcotest.bool "bit once writable" true (Vm.fast_page vm 3);
  (* with the fast path off no page ever gets a bit *)
  let slow = Vm.create ~fast_path:false ~pages:1 () in
  Vm.write_int slow 0 1;
  check Alcotest.bool "fast path off" false (Vm.fast_page slow 0)

type vm_op =
  | Write of int * int  (** word slot, value *)
  | Write_u8 of int * int
  | Install of int * char
  | Patch of int * int * char  (** page, offset, fill byte of an 8-byte run *)
  | Scribble of int  (** fill a snapshot of the page with garbage *)
  | Read of int  (** word slot *)
  | Rearm of int  (** set the page [Read_write] again *)

let vm_pages = 3

let vm_op_gen =
  let open QCheck.Gen in
  let page = int_range 0 (vm_pages - 1) in
  let byte_addr = int_range 0 ((vm_pages * Vm.page_size) - 1) in
  frequency
    [
      (4, map2 (fun s v -> Write (s, v)) (int_range 0 ((vm_pages * 512) - 1)) small_int);
      (2, map2 (fun a v -> Write_u8 (a, v)) byte_addr (int_range 0 255));
      (1, map2 (fun p c -> Install (p, c)) page printable);
      (1, map3 (fun p o c -> Patch (p, o, c)) page (int_range 0 4088) printable);
      (1, map (fun p -> Scribble p) page);
      (3, map (fun s -> Read s) (int_range 0 ((vm_pages * 512) - 1)));
      (1, map (fun p -> Rearm p) page);
    ]

let show_vm_op = function
  | Write (s, v) -> Printf.sprintf "Write (%d, %d)" s v
  | Write_u8 (a, v) -> Printf.sprintf "Write_u8 (%d, %d)" a v
  | Install (p, c) -> Printf.sprintf "Install (%d, %C)" p c
  | Patch (p, o, c) -> Printf.sprintf "Patch (%d, %d, %C)" p o c
  | Scribble p -> Printf.sprintf "Scribble %d" p
  | Read s -> Printf.sprintf "Read %d" s
  | Rearm p -> Printf.sprintf "Rearm %d" p

let fast_path_same_contents =
  qtest "fast path on and off give identical contents"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_vm_op ops))
       QCheck.Gen.(list_size (int_range 0 40) vm_op_gen))
    (fun ops ->
      (* every value read along the way, then the final contents *)
      let run fast_path =
        let vm = Vm.create ~fast_path ~pages:vm_pages () in
        let reads = ref [] in
        List.iter
          (function
            | Write (s, v) -> Vm.write_int vm (s * 8) v
            | Write_u8 (a, v) -> Vm.write_u8 vm a v
            | Install (p, c) -> Vm.install_page vm p (Bytes.make Vm.page_size c)
            | Patch (p, o, c) -> Vm.patch vm p (run_of ~offset:o ~len:8 c)
            | Scribble p -> Bytes.fill (Vm.page_snapshot vm p) 0 Vm.page_size '#'
            | Read s -> reads := Vm.read_int vm (s * 8) :: !reads
            | Rearm p -> Vm.set_prot vm p Vm.Read_write)
          ops;
        (!reads, List.init vm_pages (Vm.page_snapshot vm))
      in
      let reads_on, pages_on = run true and reads_off, pages_off = run false in
      reads_on = reads_off && List.for_all2 Bytes.equal pages_on pages_off)

let costs_sane () =
  check Alcotest.bool "mprotect>0" true (Costs.mprotect > 0);
  check Alcotest.bool "sigsegv>0" true (Costs.sigsegv > 0);
  check Alcotest.bool "twin>0" true (Costs.twin_copy > 0);
  check Alcotest.bool "diff grows" true (Costs.diff_create 4096 > Costs.diff_create 0);
  check Alcotest.bool "apply grows" true (Costs.diff_apply 4096 > Costs.diff_apply 0)

let page_addr_conversions () =
  check Alcotest.int "page_of_addr" 2 (Vm.page_of_addr 8192);
  check Alcotest.int "page_of_addr mid" 2 (Vm.page_of_addr 8200);
  check Alcotest.int "addr_of_page" 8192 (Vm.addr_of_page 2);
  check Alcotest.int "page_size" 4096 Vm.page_size

let suite =
  [
    Alcotest.test_case "accessors roundtrip" `Quick accessors_roundtrip;
    Alcotest.test_case "bounds checks" `Quick bounds_checks;
    Alcotest.test_case "read fault dispatch" `Quick read_fault_dispatch;
    Alcotest.test_case "write fault on read-only" `Quick write_fault_on_read_only;
    Alcotest.test_case "fault loop detected" `Quick fault_loop_detected;
    Alcotest.test_case "snapshot/install roundtrip" `Quick snapshot_install_roundtrip;
    Alcotest.test_case "install wrong size" `Quick install_wrong_size;
    Alcotest.test_case "diff/patch roundtrip" `Quick diff_patch_roundtrip;
    diff_patch_random;
    Alcotest.test_case "identical page empty diff" `Quick identical_page_empty_diff;
    Alcotest.test_case "costs sane" `Quick costs_sane;
    Alcotest.test_case "page addr conversions" `Quick page_addr_conversions;
    Alcotest.test_case "untouched page reads zero" `Quick untouched_reads_zero;
    Alcotest.test_case "untouched snapshot is fresh" `Quick untouched_snapshot_is_fresh;
    Alcotest.test_case "first touch owns a frame" `Quick first_touch_owns_frame;
    fast_path_same_contents;
  ]
