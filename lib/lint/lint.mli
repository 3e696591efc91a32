(** The sanitizer-suite driver: lockset race detection, sharing-pattern
    lints and sync-discipline lints over one unified findings model.

    One [Lint.t] rides along on one run as an observer ({!Tmk_check.Hooks})
    of its accesses, sync edges and trace stream; at the end the enabled
    analyzers' findings merge into one severity-ranked list ({!Findings}),
    with the lockset analyzer's potential races deduplicated against the
    happens-before detector's confirmed ones.

    {[
      let race = Tmk_check.Race.create ~nprocs () in
      let lint = Lint.create ~nprocs () in
      let check = [ Tmk_check.Race.hooks race; Lint.hooks lint ] in
      (* ... run with { cfg with check } ... *)
      print_string (Lint.report ~race lint)
    ]} *)

type analyzer = Lockset | Sharing | Discipline

val all_analyzers : analyzer list
val analyzer_name : analyzer -> string

(** [analyzers_of_string s] parses a comma-separated analyzer list; [""]
    and ["all"] mean every analyzer.  Raises [Invalid_argument] on an
    unknown name. *)
val analyzers_of_string : string -> analyzer list

type t

val create : ?analyzers:analyzer list -> nprocs:int -> unit -> t

(** [enabled t] — the analyzers this instance runs, in canonical order. *)
val enabled : t -> analyzer list

(** [hooks t] — the observer to put in [Config.check]: the analyzers'
    access and sync callbacks, plus the sharing analyzer's trace
    listener when that analyzer is enabled. *)
val hooks : t -> Tmk_check.Hooks.t

(** [findings ?race t] — every enabled analyzer's findings plus the HB
    detector's (analyzer "hb"), sorted and deduplicated.  Lockset rows
    that overlap a confirmed HB race are dropped. *)
val findings : ?race:Tmk_check.Race.t -> t -> Findings.t list

(** [classification_table t] — the sharing analyzer's per-page pattern
    table, when that analyzer is enabled. *)
val classification_table : t -> string option

(** [report ?race t] — the findings table plus the sharing
    classification. *)
val report : ?race:Tmk_check.Race.t -> t -> string
