(* Hyperexp branch and discrete weight arrays are tiny (a handful of
   entries), so the naive fold_left sums below are exact to well under the
   solver tolerances, and the golden CSVs pin their current bit patterns. *)
[@@@lattol.allow "float-sum-naive"]

type t =
  | Deterministic of float
  | Exponential of float
  | Uniform of float * float
  | Erlang of int * float
  | Hyperexp of (float * float) array

let mean = function
  | Deterministic v -> v
  | Exponential m -> m
  | Uniform (a, b) -> 0.5 *. (a +. b)
  | Erlang (_, m) -> m
  | Hyperexp branches ->
    Array.fold_left (fun acc (p, m) -> acc +. (p *. m)) 0. branches

let variance = function
  | Deterministic _ -> 0.
  | Exponential m -> m *. m
  | Uniform (a, b) ->
    let w = b -. a in
    w *. w /. 12.
  | Erlang (k, m) -> m *. m /. float_of_int k
  | Hyperexp branches ->
    let m1 = Array.fold_left (fun acc (p, m) -> acc +. (p *. m)) 0. branches in
    let m2 =
      Array.fold_left (fun acc (p, m) -> acc +. (2. *. p *. m *. m)) 0. branches
    in
    m2 -. (m1 *. m1)

let scv d =
  let m = mean d in
  if Float.equal m 0. then 0. else variance d /. (m *. m)

(* The mean is bound as [m]: lattol-lint's call graph reads a parameter
   named [mean] as a call of [mean] above. *)
let exponential rng ~mean:m = -.m *. log (Prng.float_pos rng)

(* Plain loops over unboxed locals: a fold or a recursive float
   accumulator boxes every partial sum (77 words a draw on a 16-entry
   access row), and the DES draws a destination per thread cycle.  The
   sums run left to right, as the fold did, so every draw keeps its
   bits. *)
let[@lattol.hot] discrete rng weights =
  let last = Array.length weights - 1 in
  let total = ref 0. in
  for i = 0 to last do
    total := !total +. weights.(i)
  done;
  if !total <= 0. then invalid_arg "Variate.discrete: weights must sum > 0";
  let x = Prng.float rng *. !total in
  (* The first index whose running sum exceeds [x], else the last. *)
  let i = ref 0 and acc = ref 0. and found = ref false in
  while (not !found) && !i < last do
    acc := !acc +. weights.(!i);
    if x < !acc then found := true else incr i
  done;
  !i

let geometric_trunc rng ~p ~max =
  if p <= 0. || p >= 1. then invalid_arg "Variate.geometric_trunc: p in (0,1)";
  if max < 1 then invalid_arg "Variate.geometric_trunc: max >= 1";
  (* Inverse transform on the truncated geometric CDF. *)
  let a = p *. (1. -. (p ** float_of_int max)) /. (1. -. p) in
  let x = Prng.float rng *. a in
  let rec go h acc =
    if h >= max then max
    else
      let acc = acc +. (p ** float_of_int h) in
      if x < acc then h else go (h + 1) acc
  in
  go 1 0.

(* Top-level recursion: a local loop closure would be allocated on
   every draw. *)
let rec erlang_sum rng ~stage_mean i acc =
  if i = 0 then acc
  else erlang_sum rng ~stage_mean (i - 1) (acc +. exponential rng ~mean:stage_mean)

let draw d rng =
  match d with
  | Deterministic v -> v
  | Exponential m -> exponential rng ~mean:m
  | Uniform (a, b) -> a +. (Prng.float rng *. (b -. a))
  | Erlang (k, m) -> erlang_sum rng ~stage_mean:(m /. float_of_int k) k 0.
  | Hyperexp branches ->
    let probs = Array.map fst branches in
    let i = discrete rng probs in
    exponential rng ~mean:(snd branches.(i))

let validate d =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  match d with
  | Deterministic v when v < 0. -> err "deterministic value %g < 0" v
  | Exponential m when m <= 0. -> err "exponential mean %g <= 0" m
  | Uniform (a, b) when a < 0. || b <= a -> err "uniform range [%g, %g) invalid" a b
  | Erlang (k, m) when k < 1 || m <= 0. -> err "erlang (%d, %g) invalid" k m
  | Hyperexp branches ->
    let psum = Array.fold_left (fun acc (p, _) -> acc +. p) 0. branches in
    if Array.length branches = 0 then err "hyperexp with no branches"
    else if Array.exists (fun (p, m) -> p < 0. || m <= 0.) branches then
      err "hyperexp branch with negative probability or mean"
    else if abs_float (psum -. 1.) > 1e-9 then
      err "hyperexp probabilities sum to %g, not 1" psum
    else Ok ()
  | Deterministic _ | Exponential _ | Uniform _ | Erlang _ -> Ok ()

let pp ppf = function
  | Deterministic v -> Fmt.pf ppf "det(%g)" v
  | Exponential m -> Fmt.pf ppf "exp(mean=%g)" m
  | Uniform (a, b) -> Fmt.pf ppf "unif[%g,%g)" a b
  | Erlang (k, m) -> Fmt.pf ppf "erlang(k=%d,mean=%g)" k m
  | Hyperexp bs ->
    Fmt.pf ppf "hyperexp(%a)"
      Fmt.(array ~sep:comma (pair ~sep:(any ":") float float))
      bs
