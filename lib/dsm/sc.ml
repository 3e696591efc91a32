module Transport = Tmk_net.Transport
module Vm = Tmk_mem.Vm
module Bitset = Tmk_util.Bitset

let caps = Backend.plain_caps

(* Manager: a write first invalidates every copy but the writer's and the
   owner's; the transfer waits for the last acknowledgement. *)
let serve cl copysets d rq h =
  let page = rq.Directory.rq_page and pid = rq.Directory.rq_pid in
  match rq.Directory.rq_kind with
  | Directory.Read_miss -> Directory.read d rq ~with_page:true h
  | Directory.Write_miss ->
    let copyset = copysets.(page) in
    let transfer h = Directory.write d rq ~need_page:(not (Bitset.mem copyset pid)) h in
    let owner = Directory.owner d page in
    let victims = List.filter (fun q -> q <> pid && q <> owner) (Bitset.to_list copyset) in
    let awaiting = ref (List.length victims) in
    if victims = [] then transfer h
    else
      List.iter
        (fun victim ->
          Transport.hsend ~label:"sc-invalidate" cl.Cluster.transport h ~dst:victim
            ~bytes:(2 * Wire.ack_bytes)
            ~deliver:(fun hv ->
              Directory.restrict cl hv ~pid:victim page Vm.No_access;
              Transport.hsend ~label:"sc-inval-ack" cl.Cluster.transport hv
                ~dst:(Cluster.page_owner cl page) ~bytes:Wire.ack_bytes
                ~deliver:(fun hm ->
                  decr awaiting;
                  if !awaiting = 0 then transfer hm)))
        victims

let make cl =
  let nprocs = cl.Cluster.cfg.Config.nprocs in
  (* processor 0 starts with every page *)
  let copysets =
    Array.init cl.Cluster.cfg.Config.pages (fun _ ->
        let c = Bitset.create nprocs in
        Bitset.add c 0;
        c)
  in
  let d =
    Directory.create cl
      {
        Directory.name = "sc";
        request_bytes = Wire.page_request_bytes;
        reply_bytes =
          (fun ~with_page -> if with_page then Wire.page_reply_bytes else Wire.ack_bytes);
        serve = serve cl copysets;
        relinquish =
          (fun rq ~owner h ->
            Directory.restrict cl h ~pid:owner rq.Directory.rq_page Vm.No_access);
        granted = ignore;
        completed =
          (fun rq ->
            let copyset = copysets.(rq.Directory.rq_page) in
            if rq.Directory.rq_kind = Directory.Write_miss then Bitset.clear copyset;
            Bitset.add copyset rq.Directory.rq_pid);
      }
  in
  Backend.plain ~nprocs ~fault:(fun ~pid kind page -> Directory.fault d ~pid kind page ())
