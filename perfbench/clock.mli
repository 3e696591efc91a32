(** Monotonic host clock ([CLOCK_MONOTONIC]), allocation-free. *)

(** [now_ns ()] — nanoseconds since an arbitrary fixed origin. *)
val now_ns : unit -> int

(** [seconds_since t0] — host seconds elapsed since [t0 = now_ns ()]. *)
val seconds_since : int -> float
