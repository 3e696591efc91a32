module Json = Tmk_util.Json

(* trace_event JSON writer.  Timestamps ("ts") are microseconds; ours
   are nanoseconds, so every slice boundary is time / 1000 with three
   decimals — exact, no float rounding surprises below the picosecond.
   That fixed-point form is the one thing the shared codec cannot print,
   so an entry's fields are JSON values or such times. *)

type value = J of Json.t | Us of int

let b_ts b ns =
  Buffer.add_string b (string_of_int (ns / 1000));
  Buffer.add_char b '.';
  Buffer.add_string b (Printf.sprintf "%03d" (ns mod 1000))

type emitter = { b : Buffer.t; mutable first : bool }

let entry e fields =
  let b = e.b in
  if e.first then e.first <- false else Buffer.add_string b ",\n";
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Json.to_buffer b (Json.String k);
      Buffer.add_char b ':';
      match v with J j -> Json.to_buffer b j | Us ns -> b_ts b ns)
    fields;
  Buffer.add_char b '}'

let str s = J (Json.String s)
let int n = J (Json.Int n)

let args ev =
  ("args", J (Json.Obj (List.map (fun (k, v) -> (k, Jsonl.arg_to_json v)) (Event.args ev))))

let meta_thread e ~tid ~name =
  entry e
    [
      ("ph", str "M"); ("pid", int 1); ("tid", int tid); ("name", str "thread_name");
      ("args", J (Json.Obj [ ("name", Json.String name) ]));
    ]

let complete e ~tid ~name ~cat ~start ~stop ev =
  entry e
    [
      ("ph", str "X"); ("pid", int 1); ("tid", int tid); ("name", str name); ("cat", str cat);
      ("ts", Us start); ("dur", Us (stop - start)); args ev;
    ]

let instant e ~tid ~cat ~ts ev =
  entry e
    [
      ("ph", str "i"); ("s", str "t"); ("pid", int 1); ("tid", int tid);
      ("name", str (Event.name ev)); ("cat", str cat); ("ts", Us ts); args ev;
    ]

let counter e ~name ~ts ~value =
  entry e
    [
      ("ph", str "C"); ("pid", int 1); ("tid", int 0); ("name", str name); ("ts", Us ts);
      ("args", J (Json.Obj [ ("value", Json.Int value) ]));
    ]

(* Event classification. *)

let cat_of (ev : Event.t) =
  match ev with
  | Lock_acquire _ | Lock_acquired _ | Lock_release _ | Lock_queued _
  | Lock_request_recv _ | Lock_forward _ | Lock_grant _ -> "lock"
  | Barrier_arrive _ | Barrier_release _ -> "barrier"
  | Page_fault _ | Page_fault_done _ | Twin_create _ | Page_fetch _
  | Page_invalidate _ -> "page"
  | Diff_create _ | Diff_apply _ | Diff_fetch _ | Diff_cache _ -> "diff"
  | Interval_close _ | Interval_recv _ | Write_notice_recv _ -> "consistency"
  | Frame_send _ | Frame_recv _ | Frame_drop _ | Frame_dup _ | Frame_batch _ -> "net"
  | Gc_begin _ | Gc_end _ -> "gc"
  | Proc_crash | Peer_suspect _ | Failover _ | Recovery_done _ | Diff_backup _ ->
    "failure"
  | Ts_sync _ -> "consistency"
  | Lease_expire _ | Quorum_read _ | Quorum_write _ -> "page"
  | Proc_finish | Mark _ -> "engine"

(* Begin/end pairing: a begin event opens a span under a key; the
   matching end event closes the most recent open span with that key on
   the same track (they cannot interleave per processor, but a stack
   keeps us safe regardless). *)

let span_begin (ev : Event.t) =
  match ev with
  | Lock_acquire { lock; _ } -> Some (Printf.sprintf "lock-wait L%d" lock)
  | Barrier_arrive { id; _ } -> Some (Printf.sprintf "barrier %d" id)
  | Page_fault { page; kind } ->
    Some (Printf.sprintf "%s-fault p%d" (Event.fault_kind_name kind) page)
  | Gc_begin _ -> Some "gc"
  | _ -> None

let span_end (ev : Event.t) =
  match ev with
  | Lock_acquired { lock; _ } -> Some (Printf.sprintf "lock-wait L%d" lock)
  | Barrier_release { id; _ } -> Some (Printf.sprintf "barrier %d" id)
  | Page_fault_done { page; kind } ->
    Some (Printf.sprintf "%s-fault p%d" (Event.fault_kind_name kind) page)
  | Gc_end _ -> Some "gc"
  | _ -> None

let to_string sink =
  let e = { b = Buffer.create 8192; first = true } in
  Buffer.add_string e.b "{\"traceEvents\":[\n";
  (* Track names.  Records with pid = -1 (engine marks) go on a
     dedicated track numbered past the last processor. *)
  let max_pid = ref (-1) in
  Sink.iter (fun r -> if r.Sink.r_pid > !max_pid then max_pid := r.Sink.r_pid) sink;
  let engine_tid = !max_pid + 1 in
  for p = 0 to !max_pid do
    meta_thread e ~tid:p ~name:(Printf.sprintf "cpu %d" p)
  done;
  meta_thread e ~tid:engine_tid ~name:"engine";
  let tid_of pid = if pid < 0 then engine_tid else pid in
  (* Open spans: (tid, key) -> start time * begin event, newest first. *)
  let open_spans : (int * string, (int * Event.t) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let last_time = ref 0 in
  (* Counters, sampled whenever they change. *)
  let frames = ref 0 and wire = ref 0 and diff_bytes = ref 0 and faults = ref 0 in
  Sink.iter
    (fun { Sink.r_time; r_pid; r_ev } ->
      last_time := r_time;
      let tid = tid_of r_pid in
      let cat = cat_of r_ev in
      (match span_begin r_ev with
      | Some key ->
        let stack = Option.value ~default:[] (Hashtbl.find_opt open_spans (tid, key)) in
        Hashtbl.replace open_spans (tid, key) ((r_time, r_ev) :: stack)
      | None -> (
        match span_end r_ev with
        | Some key -> (
          match Hashtbl.find_opt open_spans (tid, key) with
          | Some ((start, bev) :: rest) ->
            Hashtbl.replace open_spans (tid, key) rest;
            complete e ~tid ~name:key ~cat ~start ~stop:r_time bev
          | _ ->
            (* end without begin: render as an instant so nothing is lost *)
            instant e ~tid ~cat ~ts:r_time r_ev)
        | None -> instant e ~tid ~cat ~ts:r_time r_ev));
      match r_ev with
      | Frame_send { bytes; _ } ->
        incr frames;
        wire := !wire + bytes;
        counter e ~name:"frames sent" ~ts:r_time ~value:!frames;
        counter e ~name:"wire bytes" ~ts:r_time ~value:!wire
      | Diff_create { bytes; _ } ->
        diff_bytes := !diff_bytes + bytes;
        counter e ~name:"diff bytes" ~ts:r_time ~value:!diff_bytes
      | Page_fault _ ->
        incr faults;
        counter e ~name:"page faults" ~ts:r_time ~value:!faults
      | _ -> ())
    sink;
  (* Close anything still open at the end of the trace. *)
  let leftovers = ref [] in
  Hashtbl.iter
    (fun (tid, key) stack ->
      List.iter (fun (start, bev) -> leftovers := (tid, key, start, bev) :: !leftovers) stack)
    open_spans;
  List.iter
    (fun (tid, key, start, bev) ->
      complete e ~tid ~name:key ~cat:(cat_of bev) ~start ~stop:!last_time bev)
    (List.sort compare !leftovers);
  Buffer.add_string e.b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents e.b

let write oc sink = output_string oc (to_string sink)
