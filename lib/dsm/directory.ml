open Tmk_sim
module Transport = Tmk_net.Transport
module Vm = Tmk_mem.Vm
module Costs = Tmk_mem.Costs

type kind = Read_miss | Write_miss

type 'r request = {
  rq_pid : int;
  rq_page : int;
  rq_kind : kind;
  rq_info : 'r;
  rq_done : unit Engine.Ivar.t;
}

(* The manager's record of one page: its owner, and the requests waiting
   behind the one in service. *)
type 'r entry = { mutable owner : int; mutable busy : bool; queue : 'r request Queue.t }

type labels = {
  l_request : string;
  l_read : string;
  l_page : string;
  l_ownership : string;
  l_transfer : string;
  l_upgrade : string;
  l_complete : string;
}

type 'r t = { cl : Cluster.t; policy : 'r policy; labels : labels; entries : 'r entry array }

and 'r policy = {
  name : string;
  request_bytes : int;
  reply_bytes : with_page:bool -> int;
  serve : 'r t -> 'r request -> Engine.hctx -> unit;
  relinquish : 'r request -> owner:int -> Engine.hctx -> unit;
  granted : 'r request -> unit;
  completed : 'r request -> unit;
}

let create cl policy =
  let l suffix = policy.name ^ "-" ^ suffix in
  {
    cl;
    policy;
    labels =
      {
        l_request = l "request";
        l_read = l "read";
        l_page = l "page";
        l_ownership = l "ownership";
        l_transfer = l "transfer";
        l_upgrade = l "upgrade";
        l_complete = l "complete";
      };
    entries =
      Array.init cl.Cluster.cfg.Config.pages (fun _ ->
          { owner = 0; busy = false; queue = Queue.create () });
  }

let owner t page = t.entries.(page).owner
let h_charge = Cluster.h_charge

let restrict cl h ~pid page prot =
  let node = cl.Cluster.nodes.(pid) in
  (match (Vm.prot node.Node.vm page, prot) with
  | Vm.Read_write, (Vm.Read_only | Vm.No_access) | Vm.Read_only, Vm.No_access ->
    h_charge h Category.Unix_mem Costs.mprotect;
    Vm.set_prot node.Node.vm page prot
  | _ -> ());
  if prot = Vm.No_access then node.Node.pages.(page).Node.pg_has_copy <- false

(* ------------------------------------------------------------------ *)
(* Manager: one request per page in service, the rest FIFO.            *)

let start t e rq h =
  e.busy <- true;
  h_charge h Category.Tmk_other Cpu.page_manager;
  t.policy.serve t rq h

let submit t rq h =
  let e = t.entries.(rq.rq_page) in
  if e.busy then Queue.add rq e.queue else start t e rq h

let complete t rq h =
  h_charge h Category.Tmk_other Cpu.page_manager;
  t.policy.completed rq;
  let e = t.entries.(rq.rq_page) in
  e.busy <- false;
  match Queue.take_opt e.queue with
  | None -> ()
  | Some next -> start t e next h

(* Requester: install the page if one travelled, set the protection, wake
   the application, and acknowledge to the manager. *)
let grant t rq ~prot ~from_ ~page_bytes h =
  let page = rq.rq_page in
  let node = t.cl.Cluster.nodes.(rq.rq_pid) in
  (match page_bytes with
  | Some bytes ->
    h_charge h Category.Tmk_mem Costs.page_copy;
    Vm.install_page node.Node.vm page bytes;
    node.Node.stats.Stats.page_fetches <- node.Node.stats.Stats.page_fetches + 1;
    if Engine.htracing h then Engine.hemit h (Tmk_trace.Event.Page_fetch { page; from_ })
  | None -> ());
  h_charge h Category.Unix_mem Costs.mprotect;
  Vm.set_prot node.Node.vm page prot;
  node.Node.pages.(page).Node.pg_has_copy <- true;
  t.policy.granted rq;
  Engine.fill t.cl.Cluster.engine rq.rq_done ~at:(Engine.hnow h) ();
  Transport.hsend ~label:t.labels.l_complete t.cl.Cluster.transport h
    ~dst:(Cluster.page_owner t.cl page) ~bytes:Wire.ack_bytes ~deliver:(complete t rq)

let snapshot t h ~owner page ~with_page =
  if with_page then begin
    h_charge h Category.Tmk_mem Costs.page_copy;
    Some (Vm.page_snapshot t.cl.Cluster.nodes.(owner).Node.vm page)
  end
  else None

let read t rq ~with_page h =
  let owner = owner t rq.rq_page in
  Transport.hsend ~label:t.labels.l_read t.cl.Cluster.transport h ~dst:owner
    ~bytes:t.policy.request_bytes ~deliver:(fun ho ->
      restrict t.cl ho ~pid:owner rq.rq_page Vm.Read_only;
      let page_bytes = snapshot t ho ~owner rq.rq_page ~with_page in
      Transport.hsend ~label:t.labels.l_page t.cl.Cluster.transport ho ~dst:rq.rq_pid
        ~bytes:(t.policy.reply_bytes ~with_page)
        ~deliver:(grant t rq ~prot:Vm.Read_only ~from_:owner ~page_bytes))

let write t rq ~need_page h =
  let e = t.entries.(rq.rq_page) in
  let owner = e.owner in
  if owner = rq.rq_pid then
    Transport.hsend ~label:t.labels.l_upgrade t.cl.Cluster.transport h ~dst:rq.rq_pid
      ~bytes:Wire.ack_bytes
      ~deliver:(grant t rq ~prot:Vm.Read_write ~from_:owner ~page_bytes:None)
  else
    Transport.hsend ~label:t.labels.l_ownership t.cl.Cluster.transport h ~dst:owner
      ~bytes:t.policy.request_bytes ~deliver:(fun ho ->
        let page_bytes = snapshot t ho ~owner rq.rq_page ~with_page:need_page in
        t.policy.relinquish rq ~owner ho;
        e.owner <- rq.rq_pid;
        Transport.hsend ~label:t.labels.l_transfer t.cl.Cluster.transport ho ~dst:rq.rq_pid
          ~bytes:(t.policy.reply_bytes ~with_page:need_page)
          ~deliver:(grant t rq ~prot:Vm.Read_write ~from_:owner ~page_bytes))

(* ------------------------------------------------------------------ *)
(* Application side                                                    *)

let fault t ~pid kind page info =
  Cluster.note_miss t.cl pid page;
  let rq_kind = match kind with Vm.Read -> Read_miss | Vm.Write -> Write_miss in
  let rq =
    { rq_pid = pid; rq_page = page; rq_kind; rq_info = info; rq_done = Engine.Ivar.create () }
  in
  Engine.advance Category.Tmk_other Cpu.page_request_build;
  Transport.send ~label:t.labels.l_request t.cl.Cluster.transport ~src:pid
    ~dst:(Cluster.page_owner t.cl page) ~bytes:t.policy.request_bytes ~deliver:(submit t rq);
  (* the grant handler runs on this processor and has already charged the
     delivery costs; the application just sleeps until it fires *)
  Engine.await rq.rq_done
