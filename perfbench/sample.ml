(* Order statistics for timing samples.

   Percentiles use the nearest-rank rule on integer percents, so the rank
   is exact integer arithmetic (no 0.9 * 100 rounding surprises): the
   [p]-th percentile of [n] sorted samples is the sample at 1-based rank
   [ceil (p * n / 100)].  A percentile is only reported when at least
   [min_tail] samples lie beyond it; below that, one slow sample decides
   it. *)

let min_tail = 10

let rank ~pct n =
  if pct < 1 || pct > 100 then invalid_arg "Sample.rank: pct outside 1..100";
  if n < 1 then invalid_arg "Sample.rank: no samples";
  ((pct * n) + 99) / 100

let beyond ~pct n = n - rank ~pct n

let enough ~pct n = n >= 1 && beyond ~pct n >= min_tail

let required ~pct =
  if pct >= 100 then invalid_arg "Sample.required: no sample lies beyond p100";
  let rec go n = if enough ~pct n then n else go (n + 1) in
  go 1

let percentile ~pct xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(rank ~pct (Array.length a) - 1)

let median xs = percentile ~pct:50 xs

let mean xs =
  match xs with
  | [] -> invalid_arg "Sample.mean: no samples"
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
