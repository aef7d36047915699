type class_spec = {
  arrival_rate : float;
  service_time : float;
}

type t = {
  classes : class_spec array;
  sigma : float array; (* cumulative utilization through class k *)
  w0 : float;          (* mean residual service seen by an arrival *)
}

let make classes =
  if Array.length classes = 0 then invalid_arg "Priority_mm1.make: no classes";
  Array.iteri
    (fun k c ->
      if c.arrival_rate < 0. || not (Float.is_finite c.arrival_rate) then
        invalid_arg (Printf.sprintf "Priority_mm1.make: class %d arrival rate" k);
      if c.service_time <= 0. then
        invalid_arg (Printf.sprintf "Priority_mm1.make: class %d service time" k))
    classes;
  let n = Array.length classes in
  let sigma = Array.make n 0. in
  let acc = ref 0. in
  Array.iteri
    (fun k c ->
      acc := !acc +. (c.arrival_rate *. c.service_time);
      sigma.(k) <- !acc)
    classes;
  if sigma.(n - 1) >= 1. then
    invalid_arg "Priority_mm1.make: total utilization >= 1";
  (* Mean residual work in service at a random arrival: for exponential
     service, E[lambda_k * s_k^2] = lambda_k * 2 s_k^2 over 2. *)
  let w0 =
    Array.fold_left
      (fun acc c -> acc +. (c.arrival_rate *. c.service_time *. c.service_time))
      0. classes
  in
  { classes; sigma; w0 }

let utilization t = t.sigma.(Array.length t.sigma - 1)

let waiting_time t ~cls =
  if cls < 0 || cls >= Array.length t.classes then
    invalid_arg "Priority_mm1.waiting_time: class out of range";
  let sigma_above = if cls = 0 then 0. else t.sigma.(cls - 1) in
  (* make rejects total utilization >= 1, so every sigma prefix is < 1 and
     both factors stay strictly positive. *)
  t.w0
  /. (((1. -. sigma_above) *. (1. -. t.sigma.(cls)))
      [@lattol.allow "float-div-unguarded"])

let response_time t ~cls = waiting_time t ~cls +. t.classes.(cls).service_time

let fcfs_waiting_time t =
  let rho = utilization t in
  (* rho < 1 by the same make-time check. *)
  t.w0 /. ((1. -. rho) [@lattol.allow "float-div-unguarded"])
