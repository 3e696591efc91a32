(** The manager-serialized page directory of the single-writer backends
    ({!Sc} and {!Tardis}), after Li and Hudak (§2.3's "early DSM").

    Every page has one manager, {!Cluster.page_owner} ([page mod nprocs],
    or the ownership ring under [Config.sharding]), which records the
    page's current owner and serves the page's requests one at a time in
    FIFO order.  A request runs entirely in handlers:

    - read miss: requester → manager → owner, which drops to read-only
      and ships the page (unless the requester already holds the current
      bytes) → the requester installs it read-only;
    - write miss: requester → manager → the policy's own steps (SC's
      invalidations) → owner, which gives up ownership and ships the page
      if the writer lacks it → the writer gets read-write.  A writer that
      already owns the page is upgraded in place.

    The requester then acknowledges to the manager, which starts the next
    queued request.  The backend supplies a {!policy}: its message names
    and sizes, how the manager serves each request, what the old owner
    keeps, and what the requester and the manager record. *)

open Tmk_sim

type kind = Read_miss | Write_miss

(** One request.  [rq_info] is the policy's data captured at fault time
    (Tardis: the requester's clock and cached version). *)
type 'r request = {
  rq_pid : int;
  rq_page : int;
  rq_kind : kind;
  rq_info : 'r;
  rq_done : unit Engine.Ivar.t;
}

type 'r t

type 'r policy = {
  name : string;
      (** message label prefix: ["<name>-request"], ["-read"], ["-page"],
          ["-ownership"], ["-transfer"], ["-upgrade"], ["-complete"] *)
  request_bytes : int;  (** request, read and ownership messages *)
  reply_bytes : with_page:bool -> int;  (** page and transfer replies *)
  serve : 'r t -> 'r request -> Engine.hctx -> unit;
      (** manager, after its bookkeeping charge: begin serving; every path
          ends in {!read} or {!write} *)
  relinquish : 'r request -> owner:int -> Engine.hctx -> unit;
      (** old owner, handing a write the page: restrict its own copy
          (after the page snapshot, before ownership moves) *)
  granted : 'r request -> unit;
      (** requester, once the page is installed and protected, before the
          application wakes *)
  completed : 'r request -> unit;  (** manager, on the acknowledgement *)
}

(** [create cl policy] — every page starts owned by processor 0, matching
    {!Node.create}'s initial page states. *)
val create : Cluster.t -> 'r policy -> 'r t

(** [owner t page] — the page's current owner. *)
val owner : 'r t -> int -> int

(** [fault t ~pid kind page info] — application context: count the miss,
    send the request to the page's manager and sleep until the access is
    granted. *)
val fault : 'r t -> pid:int -> Tmk_mem.Vm.access -> int -> 'r -> unit

(** [read t rq ~with_page h] — manager: have the owner downgrade to
    read-only and grant [rq] read access, shipping the page when
    [with_page]. *)
val read : 'r t -> 'r request -> with_page:bool -> Engine.hctx -> unit

(** [write t rq ~need_page h] — manager: upgrade the owner in place, or
    move ownership (and the page, when [need_page]) to the writer. *)
val write : 'r t -> 'r request -> need_page:bool -> Engine.hctx -> unit

(** [restrict cl h ~pid page prot] — lower [pid]'s access to [page] to
    at most [prot], charging the mprotect only when access changes;
    [No_access] also drops the copy. *)
val restrict : Cluster.t -> Engine.hctx -> pid:int -> int -> Tmk_mem.Vm.prot -> unit
