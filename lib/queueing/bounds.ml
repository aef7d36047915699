type t = {
  demand_total : float;
  demand_max : float;
  demand_avg : float;
  population : int;
  x_upper : float;
  x_lower : float;
  x_balanced_upper : float;
  x_balanced_lower : float;
  n_star : float;
}

let analyze network ~cls =
  for c = 0 to Network.num_classes network - 1 do
    if c <> cls && Network.population network c > 0 then
      invalid_arg "Bounds.analyze: other classes must be empty"
  done;
  let n = Network.population network cls in
  if n < 1 then invalid_arg "Bounds.analyze: class has no customers";
  let num_st = Network.num_stations network in
  let d_total = ref 0. and d_max = ref 0. and z = ref 0. and m_q = ref 0 in
  for m = 0 to num_st - 1 do
    let d = Network.demand network ~cls ~station:m in
    match Network.station_kind network m with
    | Network.Delay -> z := !z +. d
    | Network.Queueing ->
      if d > 0. then begin
        incr m_q;
        d_total := !d_total +. d;
        if d > !d_max then d_max := d
      end
    | Network.Multi_server c ->
      (* Seidmann view: queueing demand d/c, the rest behaves as think
         time for bounding purposes. *)
      if d > 0. then begin
        incr m_q;
        let cf = float_of_int c in
        let dq = d /. cf in
        d_total := !d_total +. dq;
        z := !z +. (d *. (cf -. 1.) /. cf);
        if dq > !d_max then d_max := dq
      end
  done;
  let d = !d_total and dmax = !d_max and z = !z in
  let nf = float_of_int n in
  let d_avg = if !m_q = 0 then 0. else d /. float_of_int !m_q in
  let x_upper =
    if Float.equal dmax 0. then nf /. (d +. z)
    else Float.min (nf /. (d +. z)) (1. /. dmax)
  in
  let x_lower = nf /. (d +. z +. ((nf -. 1.) *. dmax)) in
  (* Balanced job bounds (Zahorjan et al. 1982), with think time. *)
  let x_balanced_upper =
    if Float.equal d 0. then x_upper
    else Float.min x_upper (nf /. (d +. z +. ((nf -. 1.) *. d_avg)))
  in
  let x_balanced_lower =
    if Float.equal d 0. then x_lower
    else
      Float.max x_lower
        (nf /. (d +. z +. ((nf -. 1.) *. d *. dmax /. (d +. z))))
  in
  let n_star = if Float.equal dmax 0. then infinity else (d +. z) /. dmax in
  {
    demand_total = d;
    demand_max = dmax;
    demand_avg = d_avg;
    population = n;
    x_upper;
    x_lower;
    x_balanced_upper;
    x_balanced_lower;
    n_star;
  }
