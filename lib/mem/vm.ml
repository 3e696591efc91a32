type prot = No_access | Read_only | Read_write
type access = Tmk_trace.Event.fault_kind = Read | Write

exception Fault_loop of { page : int; kind : access }

type t = {
  data : Bytes.t;
  prot : prot array;
  fast : Bytes.t;
      (* per-page "unchecked OK" bitmap: ['\001'] exactly when the page is
         [Read_write], no access hook is installed, and the fast path is
         enabled — the accessors may then touch [data] directly, skipping
         the full [ensure] (range/prot check + hook dispatch).  Kept
         consistent by [refresh_fast] on every [set_prot] /
         [set_access_hook] / [set_fast_path]. *)
  npages : int;
  mutable fast_enabled : bool;
  mutable on_fault : access -> int -> unit;
  mutable on_access : (access -> int -> int -> unit) option;
}

let page_size = 4096
let page_shift = 12
let offset_mask = page_size - 1

let create ?(fast_path = true) ~pages () =
  if pages <= 0 then invalid_arg "Vm.create: pages must be positive";
  {
    data = Bytes.make (pages * page_size) '\000';
    prot = Array.make pages Read_write;
    fast = Bytes.make pages (if fast_path then '\001' else '\000');
    npages = pages;
    fast_enabled = fast_path;
    on_fault = (fun _ page -> failwith (Printf.sprintf "Vm: unhandled fault on page %d" page));
    on_access = None;
  }

let npages t = t.npages
let size_bytes t = t.npages * page_size

let refresh_fast t page =
  Bytes.unsafe_set t.fast page
    (if t.fast_enabled && t.on_access = None && t.prot.(page) = Read_write then '\001'
     else '\000')

let refresh_fast_all t =
  for page = 0 to t.npages - 1 do
    refresh_fast t page
  done

let set_fault_handler t f = t.on_fault <- f

let set_access_hook t f =
  t.on_access <- Some f;
  refresh_fast_all t

let has_access_hook t = t.on_access <> None

let fast_path t = t.fast_enabled

let set_fast_path t enabled =
  t.fast_enabled <- enabled;
  refresh_fast_all t

let prot t page = t.prot.(page)

let set_prot t page p =
  t.prot.(page) <- p;
  refresh_fast t page

let page_of_addr addr = addr / page_size
let addr_of_page page = page * page_size

let check_range t addr width =
  if addr < 0 || addr + width > Bytes.length t.data then
    invalid_arg (Printf.sprintf "Vm: address %d out of range" addr);
  if width > 1 && addr / page_size <> (addr + width - 1) / page_size then
    invalid_arg (Printf.sprintf "Vm: access at %d straddles a page boundary" addr)

(* Fault-check an access; after the handler runs the protection must allow
   the retried access, otherwise the handler is broken. *)
let ensure t addr width kind =
  check_range t addr width;
  let page = addr / page_size in
  let allowed () =
    match (t.prot.(page), kind) with
    | Read_write, _ -> true
    | Read_only, Read -> true
    | Read_only, Write | No_access, _ -> false
  in
  if not (allowed ()) then begin
    (* The handler may have to run more than once: on the real system a
       concurrently arriving write notice can re-invalidate the page
       between the handler's fix and the retried access. *)
    let rec retry attempts =
      t.on_fault kind page;
      if not (allowed ()) then
        if attempts >= 64 then raise (Fault_loop { page; kind }) else retry (attempts + 1)
    in
    retry 0
  end;
  match t.on_access with None -> () | Some f -> f kind addr width

(* Fast-path admission: the access is entirely inside one page whose fast
   bit is set.  [addr lsr page_shift] maps any negative address to a huge
   positive page (lsr is a logical shift), so the single [page < npages]
   compare also rejects addr < 0; the offset mask check rejects accesses
   that would straddle the page boundary (so an in-bounds fast access can
   never leave the page, and [page < npages] alone proves the whole access
   is in range).  Everything else falls through to [ensure], which raises
   the exact errors the checked path always raised. *)
let[@inline] fast_ok t addr width =
  let page = addr lsr page_shift in
  page < t.npages
  && Bytes.unsafe_get t.fast page <> '\000'
  && addr land offset_mask <= page_size - width

let read_u8 t addr =
  if not (fast_ok t addr 1) then ensure t addr 1 Read;
  Char.code (Bytes.unsafe_get t.data addr)

let write_u8 t addr v =
  if not (fast_ok t addr 1) then ensure t addr 1 Write;
  Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xFF))

let read_i64 t addr =
  if not (fast_ok t addr 8) then ensure t addr 8 Read;
  Bytes.get_int64_le t.data addr

let write_i64 t addr v =
  if not (fast_ok t addr 8) then ensure t addr 8 Write;
  Bytes.set_int64_le t.data addr v

let read_int t addr = Int64.to_int (read_i64 t addr)
let write_int t addr v = write_i64 t addr (Int64.of_int v)

let read_f64 t addr = Int64.float_of_bits (read_i64 t addr)
let write_f64 t addr v = write_i64 t addr (Int64.bits_of_float v)

let page_snapshot t page =
  Bytes.sub t.data (addr_of_page page) page_size

let install_page t page bytes =
  if Bytes.length bytes <> page_size then
    invalid_arg "Vm.install_page: wrong page size";
  Bytes.blit bytes 0 t.data (addr_of_page page) page_size

let patch t page rle =
  let base = addr_of_page page in
  let apply_run { Tmk_util.Rle.offset; bytes } =
    let len = Bytes.length bytes in
    if offset < 0 || offset + len > page_size then
      invalid_arg "Vm.patch: run out of page bounds";
    Bytes.blit bytes 0 t.data (base + offset) len
  in
  List.iter apply_run (Tmk_util.Rle.runs rle)

let diff_against t page ~twin =
  Tmk_util.Rle.encode ~old_:twin (page_snapshot t page)
