type prot = No_access | Read_only | Read_write
type access = Tmk_trace.Event.fault_kind = Read | Write

exception Fault_loop of { page : int; kind : access }

type t = {
  frames : Bytes.t array;
      (* one [page_size] frame per page.  A page that has not been given
         its own frame shares [zero_frame]; [own_frame] allocates one at
         the page's first write, [install_page] or [patch]. *)
  prot : prot array;
  fast : Bytes.t;
      (* per-page "unchecked OK" bitmap: ['\001'] exactly when the page is
         [Read_write], owns its frame, no access hook is installed, and
         the fast path is enabled — the accessors may then touch the
         page's frame directly, skipping the full [ensure] (range/prot
         check + hook dispatch).  Kept consistent by [refresh_fast] on
         every [set_prot] / [set_access_hook] / [set_fast_path] and frame
         allocation. *)
  npages : int;
  mutable fast_enabled : bool;
  mutable on_fault : access -> int -> unit;
  mutable on_access : (access -> int -> int -> unit) option;
}

let page_size = 4096
let page_shift = 12
let offset_mask = page_size - 1

(* The frame of every page that has no frame of its own, shared by all
   address spaces.  Nothing writes it: writes go through [own_frame],
   and [page_snapshot] copies. *)
let zero_frame = Bytes.make page_size '\000'

let create ?(fast_path = true) ~pages () =
  if pages <= 0 then invalid_arg "Vm.create: pages must be positive";
  {
    frames = Array.make pages zero_frame;
    prot = Array.make pages Read_write;
    (* no page owns a frame yet, so no fast bit is set *)
    fast = Bytes.make pages '\000';
    npages = pages;
    fast_enabled = fast_path;
    on_fault = (fun _ page -> failwith (Printf.sprintf "Vm: unhandled fault on page %d" page));
    on_access = None;
  }

let npages t = t.npages
let size_bytes t = t.npages * page_size

let refresh_fast t page =
  Bytes.unsafe_set t.fast page
    (if
       t.fast_enabled && t.on_access = None
       && t.prot.(page) = Read_write
       && t.frames.(page) != zero_frame
     then '\001'
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
let fast_page t page = Bytes.get t.fast page <> '\000'

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
  if addr < 0 || addr + width > size_bytes t then
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

(* The page's own frame, allocated (zero-filled) on first need. *)
let own_frame t page =
  let frame = t.frames.(page) in
  if frame != zero_frame then frame
  else begin
    let frame = Bytes.make page_size '\000' in
    t.frames.(page) <- frame;
    refresh_fast t page;
    frame
  end

(* Fast-path admission for an access at [addr] on [page] = [addr lsr
   page_shift]: the access is entirely inside one page whose fast bit is
   set.  [lsr] is a logical shift, so any negative address maps to a huge
   positive page and the single [page < npages] compare also rejects
   addr < 0; the offset mask check rejects accesses that would straddle
   the page boundary (so an in-bounds fast access can never leave the
   page, and [page < npages] alone proves the whole access is in range).
   Everything else falls through to [ensure], which raises the exact
   errors the checked path always raised.  Once either path admits the
   access, [page] is in range and the bytes live in [frames.(page)] at
   [addr land offset_mask]. *)
let[@inline] fast_ok t page addr width =
  page < t.npages
  && Bytes.unsafe_get t.fast page <> '\000'
  && addr land offset_mask <= page_size - width

(* A write that missed the fast path: fault-check it, then make sure the
   page owns the frame the write lands in. *)
let checked_write_frame t page addr width =
  ensure t addr width Write;
  own_frame t page

let read_u8 t addr =
  let page = addr lsr page_shift in
  if not (fast_ok t page addr 1) then ensure t addr 1 Read;
  Char.code (Bytes.unsafe_get (Array.unsafe_get t.frames page) (addr land offset_mask))

let write_u8 t addr v =
  let page = addr lsr page_shift in
  let frame =
    if fast_ok t page addr 1 then Array.unsafe_get t.frames page
    else checked_write_frame t page addr 1
  in
  Bytes.unsafe_set frame (addr land offset_mask) (Char.unsafe_chr (v land 0xFF))

let[@inline] read_i64 t addr =
  let page = addr lsr page_shift in
  if not (fast_ok t page addr 8) then ensure t addr 8 Read;
  Bytes.get_int64_le (Array.unsafe_get t.frames page) (addr land offset_mask)

let[@inline] write_i64 t addr v =
  let page = addr lsr page_shift in
  let frame =
    if fast_ok t page addr 8 then Array.unsafe_get t.frames page
    else checked_write_frame t page addr 8
  in
  Bytes.set_int64_le frame (addr land offset_mask) v

let read_int t addr = Int64.to_int (read_i64 t addr)
let write_int t addr v = write_i64 t addr (Int64.of_int v)

let read_f64 t addr = Int64.float_of_bits (read_i64 t addr)
let write_f64 t addr v = write_i64 t addr (Int64.bits_of_float v)

let page_snapshot t page = Bytes.copy t.frames.(page)

let install_page t page bytes =
  if Bytes.length bytes <> page_size then
    invalid_arg "Vm.install_page: wrong page size";
  Bytes.blit bytes 0 (own_frame t page) 0 page_size

let patch t page rle =
  let frame = own_frame t page in
  let apply_run { Tmk_util.Rle.offset; bytes } =
    let len = Bytes.length bytes in
    if offset < 0 || offset + len > page_size then
      invalid_arg "Vm.patch: run out of page bounds";
    Bytes.blit bytes 0 frame offset len
  in
  List.iter apply_run (Tmk_util.Rle.runs rle)

(* [Rle.encode] only reads [current] and copies the runs it keeps, so the
   frame itself can be compared without a snapshot. *)
let diff_against t page ~twin = Tmk_util.Rle.encode ~old_:twin t.frames.(page)
