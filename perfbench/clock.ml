external now_ns : unit -> (int[@untagged]) = "perfbench_now_ns" "perfbench_now_ns_untagged"
[@@noalloc]

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9
