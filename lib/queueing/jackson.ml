type station = {
  name : string;
  servers : int;
  service_time : float;
}

type t = {
  stations : station array;
  arrivals : float array;
  routing : float array array;
  lambda : float array; (* traffic-equation solution *)
}

let invalid fmt = Format.kasprintf invalid_arg fmt

(* Solve the dense linear system A x = b by Gaussian elimination with
   partial pivoting.  The systems here are (I - R)^T and (I - R), which are
   nonsingular exactly when every job eventually leaves the network. *)
let solve_linear a b =
  let n = Array.length b in
  let m = Array.map Array.copy a in
  let x = Array.copy b in
  for col = 0 to n - 1 do
    (* pivot *)
    let pivot = ref col in
    for row = col + 1 to n - 1 do
      if abs_float m.(row).(col) > abs_float m.(!pivot).(col) then pivot := row
    done;
    if abs_float m.(!pivot).(col) < 1e-12 then
      invalid "Jackson: routing matrix is singular (jobs never leave)";
    if !pivot <> col then begin
      let tmp = m.(col) in
      m.(col) <- m.(!pivot);
      m.(!pivot) <- tmp;
      let tb = x.(col) in
      x.(col) <- x.(!pivot);
      x.(!pivot) <- tb
    end;
    for row = col + 1 to n - 1 do
      let factor = m.(row).(col) /. m.(col).(col) in
      if not (Float.equal factor 0.) then begin
        for c = col to n - 1 do
          m.(row).(c) <- m.(row).(c) -. (factor *. m.(col).(c))
        done;
        x.(row) <- x.(row) -. (factor *. x.(col))
      end
    done
  done;
  for row = n - 1 downto 0 do
    let acc = ref x.(row) in
    for c = row + 1 to n - 1 do
      acc := !acc -. (m.(row).(c) *. x.(c))
    done;
    x.(row) <- !acc /. m.(row).(row)
  done;
  x

let make ~stations ~arrivals ~routing =
  let n = Array.length stations in
  if n = 0 then invalid "Jackson.make: no stations";
  if Array.length arrivals <> n then invalid "Jackson.make: arrivals size";
  if Array.length routing <> n then invalid "Jackson.make: routing rows";
  Array.iteri
    (fun m st ->
      if st.servers < 1 then invalid "Jackson.make: station %d servers >= 1" m;
      if st.service_time <= 0. then
        invalid "Jackson.make: station %d service time > 0" m)
    stations;
  Array.iteri
    (fun m a ->
      if a < 0. || not (Float.is_finite a) then
        invalid "Jackson.make: arrival rate %g at station %d" a m)
    arrivals;
  Array.iteri
    (fun m row ->
      if Array.length row <> n then invalid "Jackson.make: routing row %d size" m;
      let sum = ref 0. in
      Array.iter
        (fun p ->
          if p < 0. || not (Float.is_finite p) then
            invalid "Jackson.make: routing probability %g at row %d" p m;
          sum := !sum +. p)
        row;
      if !sum > 1. +. 1e-9 then
        invalid "Jackson.make: routing row %d sums to %g > 1" m !sum)
    routing;
  (* Traffic equations: lambda = arrivals + lambda R, i.e.
     (I - R)^T lambda = arrivals. *)
  let a =
    Array.init n (fun i ->
        Array.init n (fun j ->
            (if i = j then 1. else 0.) -. routing.(j).(i)))
  in
  let lambda = solve_linear a arrivals in
  Array.iteri
    (fun m l ->
      if l < -1e-9 then invalid "Jackson.make: negative throughput at %d" m)
    lambda;
  { stations; arrivals; routing; lambda = Array.map (Float.max 0.) lambda }

let throughputs t = Array.copy t.lambda

let utilization t ~station =
  let st = t.stations.(station) in
  t.lambda.(station) *. st.service_time /. float_of_int st.servers

let is_stable t =
  let ok = ref true in
  for m = 0 to Array.length t.stations - 1 do
    if utilization t ~station:m >= 1. then ok := false
  done;
  !ok

(* Erlang-C probability of waiting in an M/M/c queue at utilization rho. *)
let erlang_c ~servers ~rho =
  let c = float_of_int servers in
  let a = c *. rho in
  let term = ref 1. and sum = ref 1. in
  for k = 1 to servers - 1 do
    term := !term *. a /. float_of_int k;
    sum := !sum +. !term
  done;
  (* Callers guard rho < 1 (mean_queue_length short-circuits rho >= 1 to
     infinity) before asking for the Erlang-C tail. *)
  let tail =
    !term *. a /. float_of_int servers
    /. ((1. -. rho) [@lattol.allow "float-div-unguarded"])
  in
  tail /. (!sum +. tail)

let mean_queue_length t ~station =
  let st = t.stations.(station) in
  let rho = utilization t ~station in
  if Float.equal t.lambda.(station) 0. then 0.
  else if rho >= 1. then infinity
  else begin
    let waiting = erlang_c ~servers:st.servers ~rho *. rho /. (1. -. rho) in
    waiting +. (float_of_int st.servers *. rho)
  end

let mean_response_time t ~station =
  if Float.equal t.lambda.(station) 0. then t.stations.(station).service_time
  else mean_queue_length t ~station /. t.lambda.(station)

let mean_sojourn t ~entry =
  let n = Array.length t.stations in
  if entry < 0 || entry >= n then invalid "Jackson.mean_sojourn: bad entry";
  if Float.equal t.lambda.(entry) 0. then
    invalid "Jackson.mean_sojourn: station %d receives no traffic" entry;
  if not (is_stable t) then infinity
  else begin
    (* t_m = W_m + sum_j R_{m,j} t_j  =>  (I - R) t = W. *)
    let w = Array.init n (fun m -> mean_response_time t ~station:m) in
    let a =
      Array.init n (fun i ->
          Array.init n (fun j -> (if i = j then 1. else 0.) -. t.routing.(i).(j)))
    in
    (solve_linear a w).(entry)
  end

let capacity t =
  let worst = ref 0. in
  for m = 0 to Array.length t.stations - 1 do
    let rho = utilization t ~station:m in
    if rho > !worst then worst := rho
  done;
  if Float.equal !worst 0. then infinity else 1. /. !worst
