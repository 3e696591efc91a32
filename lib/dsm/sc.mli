(** Sequentially consistent, single-writer DSM — the "early DSM design"
    baseline (§1, §2.3).

    This is the Li–Hudak-style shared-virtual-memory protocol that
    TreadMarks was built to improve on: every page has exactly one writer
    at a time, reads replicate the page, and a write invalidates every
    other copy.  Under false sharing (two processors touching different
    variables on one page) the page ping-pongs across the network in its
    entirety — the behaviour the multiple-writer protocol eliminates.

    Implementation: a policy over the shared single-writer page
    {!Directory}.  Each page's manager ({!Cluster.page_owner}:
    [page mod nprocs], or the ownership ring under [Config.sharding])
    serializes the page's requests; this module adds the copyset:

    - read miss: the owner downgrades itself to read-only and sends the
      page; the requester joins the copyset;
    - write miss: the manager first invalidates every other copy
      (acknowledged), then ownership (and the page, if the writer has no
      current copy) transfers and the old owner loses its copy.

    Synchronization (locks, barriers) carries no consistency payload:
    memory is kept consistent at every write, which is exactly why this
    protocol communicates so much more.

    Used through {!Protocol} with [Config.protocol = Sc]. *)

val caps : Backend.caps

(** [make cl] builds the copysets and the page directory over [cl] and
    returns the backend hook table (all synchronization hooks are plain:
    consistency lives entirely in the fault path). *)
val make : Cluster.t -> Backend.t
