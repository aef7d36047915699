type t = {
  n : int;
  (* outgoing.(s) maps destination -> rate *)
  outgoing : (int, float) Hashtbl.t array;
}

let create n =
  if n < 1 then invalid_arg "Ctmc.create: need at least one state";
  { n; outgoing = Array.init n (fun _ -> Hashtbl.create 4) }

let check_state t s name =
  if s < 0 || s >= t.n then
    Format.kasprintf invalid_arg "Ctmc: %s state %d out of range [0, %d)" name
      s t.n

let add_rate t ~src ~dst r =
  check_state t src "source";
  check_state t dst "destination";
  if src = dst then invalid_arg "Ctmc.add_rate: src = dst";
  if r < 0. || not (Float.is_finite r) then
    invalid_arg "Ctmc.add_rate: rate must be finite and >= 0";
  if r > 0. then begin
    let tbl = t.outgoing.(src) in
    let prev = Option.value (Hashtbl.find_opt tbl dst) ~default:0. in
    Hashtbl.replace tbl dst (prev +. r)
  end

let rate t ~src ~dst =
  check_state t src "source";
  check_state t dst "destination";
  Option.value (Hashtbl.find_opt t.outgoing.(src) dst) ~default:0.

let exit_rate t s =
  check_state t s "state";
  Hashtbl.fold (fun _ r acc -> acc +. r) t.outgoing.(s) 0.

let steady_state t =
  let tolerance = 1e-12 and max_iterations = 100_000 in
  (* Incoming adjacency: for pi Q = 0 we need, per state i, the flows
     pi_j * q_{j,i}. *)
  let incoming = Array.make t.n [] in
  Array.iteri
    (fun src tbl ->
      Hashtbl.iter (fun dst r -> incoming.(dst) <- (src, r) :: incoming.(dst)) tbl)
    t.outgoing;
  let exits = Array.init t.n (fun s -> exit_rate t s) in
  Array.iteri
    (fun s e ->
      if Float.equal e 0. && incoming.(s) <> [] then
        Format.kasprintf failwith "Ctmc.steady_state: state %d is absorbing" s)
    exits;
  let pi = Array.make t.n (1. /. float_of_int t.n) in
  let iteration = ref 0 in
  let converged = ref false in
  while (not !converged) && !iteration < max_iterations do
    incr iteration;
    let delta = ref 0. in
    for i = 0 to t.n - 1 do
      if exits.(i) > 0. then begin
        let inflow =
          List.fold_left (fun acc (j, r) -> acc +. (pi.(j) *. r)) 0. incoming.(i)
        in
        let updated = inflow /. exits.(i) in
        delta := Float.max !delta (abs_float (updated -. pi.(i)));
        pi.(i) <- updated
      end
      else pi.(i) <- 0.
    done;
    let total = Array.fold_left ( +. ) 0. pi in
    if total <= 0. then failwith "Ctmc.steady_state: probability mass vanished";
    for i = 0 to t.n - 1 do
      pi.(i) <- pi.(i) /. total
    done;
    if !delta < tolerance then converged := true
  done;
  if not !converged then
    Format.kasprintf failwith
      "Ctmc.steady_state: no convergence after %d iterations" max_iterations;
  pi

let expected t ~pi ~f =
  if Array.length pi <> t.n then invalid_arg "Ctmc.expected: pi size mismatch";
  let acc = ref 0. in
  for i = 0 to t.n - 1 do
    acc := !acc +. (pi.(i) *. f i)
  done;
  !acc

let flow t ~pi ~select =
  if Array.length pi <> t.n then invalid_arg "Ctmc.flow: pi size mismatch";
  let acc = ref 0. in
  Array.iteri
    (fun src tbl ->
      Hashtbl.iter
        (fun dst r -> if select ~src ~dst then acc := !acc +. (pi.(src) *. r))
        tbl)
    t.outgoing;
  !acc
