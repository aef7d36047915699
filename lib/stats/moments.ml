(* All fields are floats, so the record stores them unboxed and an
   update allocates nothing; [count] is exact as a float up to 2^53. *)
type t = {
  mutable count : float;
  mutable weight : float;
  mutable mean : float;
  mutable m2 : float; (* sum of weighted squared deviations *)
  mutable min : float;
  mutable max : float;
}

let create () =
  {
    count = 0.;
    weight = 0.;
    mean = 0.;
    m2 = 0.;
    min = infinity;
    max = neg_infinity;
  }

let add_weighted t ~weight x =
  if weight < 0. then invalid_arg "Moments.add_weighted: negative weight";
  if weight > 0. then begin
    t.count <- t.count +. 1.;
    let w' = t.weight +. weight in
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta *. weight /. w');
    t.m2 <- t.m2 +. (weight *. delta *. (x -. t.mean));
    t.weight <- w';
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x
  end

let add t x = add_weighted t ~weight:1. x

let count t = int_of_float t.count

let empty t = Float.equal t.count 0.

let total_weight t = t.weight

let mean t = if empty t then nan else t.mean

let variance t =
  if t.count < 2. then nan
  else
    (* Frequency-weighted unbiased estimate; reduces to the classic n-1
       denominator when all weights are 1. *)
    t.m2 /. (t.weight *. (t.count -. 1.) /. t.count)

let stddev t = sqrt (variance t)

let min t = if empty t then nan else t.min

let max t = if empty t then nan else t.max

let sum t = t.mean *. t.weight

let merge a b =
  if empty a then { b with count = b.count }
  else if empty b then { a with count = a.count }
  else begin
    let w = a.weight +. b.weight in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. b.weight /. w) in
    let m2 = a.m2 +. b.m2 +. (delta *. delta *. a.weight *. b.weight /. w) in
    {
      count = a.count +. b.count;
      weight = w;
      mean;
      m2;
      min = Stdlib.min a.min b.min;
      max = Stdlib.max a.max b.max;
    }
  end
