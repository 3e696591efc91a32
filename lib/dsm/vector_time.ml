type t = int array

let create n =
  if n <= 0 then invalid_arg "Vector_time.create: need at least one processor";
  Array.make n 0

let copy = Array.copy
let size = Array.length
let get t q = t.(q)
let set t q i = t.(q) <- i

let max_into ~src ~dst =
  if Array.length src <> Array.length dst then
    invalid_arg "Vector_time.max_into: size mismatch";
  for q = 0 to Array.length dst - 1 do
    if src.(q) > dst.(q) then dst.(q) <- src.(q)
  done

let leq a b =
  if Array.length a <> Array.length b then
    invalid_arg "Vector_time.leq: size mismatch";
  let rec go q = q >= Array.length a || (a.(q) <= b.(q) && go (q + 1)) in
  go 0

let dominates a b = leq b a
let equal a b = a = b

(* One lexicographic pass.  It extends [leq]: if [a <= b] and [a <> b],
   then at the first index where they differ [a] is smaller. *)
let compare_total a b =
  let n = Array.length a in
  if n <> Array.length b then invalid_arg "Vector_time.compare_total: size mismatch";
  let rec go q =
    if q = n then 0
    else
      let x = Array.unsafe_get a q and y = Array.unsafe_get b q in
      if x < y then -1 else if x > y then 1 else go (q + 1)
  in
  go 0

let bytes n = 4 * n

let pp ppf t =
  Format.fprintf ppf "<%s>"
    (String.concat "," (Array.to_list (Array.map string_of_int t)))
