type t = {
  lo : float;
  hi : float;
  width : float;
  counts : int array;
  mutable underflow : int;
  mutable overflow : int;
  mutable total : float; (* sum of every observation, outliers included *)
}

let create ?(lo = 0.) ~hi ~bins () =
  if bins < 1 then invalid_arg "Histogram.create: bins >= 1";
  if hi <= lo then invalid_arg "Histogram.create: hi > lo";
  {
    lo;
    hi;
    width = (hi -. lo) /. float_of_int bins;
    counts = Array.make bins 0;
    underflow = 0;
    overflow = 0;
    total = 0.;
  }

let add t x =
  t.total <- t.total +. x;
  if x < t.lo then t.underflow <- t.underflow + 1
  else if x >= t.hi then t.overflow <- t.overflow + 1
  else begin
    let i = int_of_float ((x -. t.lo) /. t.width) in
    let i = if i >= Array.length t.counts then Array.length t.counts - 1 else i in
    t.counts.(i) <- t.counts.(i) + 1
  end

let count t = t.underflow + t.overflow + Array.fold_left ( + ) 0 t.counts

let bins t = Array.length t.counts

let bin_count t i = t.counts.(i)

let underflow t = t.underflow

let overflow t = t.overflow

let lo t = t.lo

let hi t = t.hi

let sum t = t.total

let copy t = { t with counts = Array.copy t.counts }

let bin_bounds t i =
  let a = t.lo +. (float_of_int i *. t.width) in
  (a, a +. t.width)

let quantile t q =
  if q <= 0. || q >= 1. then invalid_arg "Histogram.quantile: q in (0,1)";
  let n = count t in
  if n = 0 then nan
  else begin
    let target = q *. float_of_int n in
    (* Quantiles inside the underflow mass sit below every bin: attribute
       them to the bottom edge (mirroring the overflow-to-top-edge rule)
       instead of extrapolating past [lo]. *)
    if float_of_int t.underflow >= target then t.lo
    else begin
      let rec go i acc =
        if i >= Array.length t.counts then t.hi
        else
          let acc' = acc +. float_of_int t.counts.(i) in
          (* Only a populated bin can own a quantile; empty bins carry no
             mass, so a boundary quantile belongs to the next populated
             bin's lower edge. *)
          if acc' >= target && t.counts.(i) > 0 then begin
            let lo, _ = bin_bounds t i in
            let frac = (target -. acc) /. float_of_int t.counts.(i) in
            let frac = Float.max 0. (Float.min 1. frac) in
            lo +. (frac *. t.width)
          end
          else go (i + 1) acc'
      in
      go 0 (float_of_int t.underflow)
    end
  end
