(* Linearizer: Bard-Schweitzer cores driven by fractional-change estimates
   F.(j).(c).(m), refreshed from actual reduced-population solves. *)

type core_result = {
  throughput : float array;
  residence : float array array;
  queue : float array array;
  iterations : int;
  converged : bool;
}

(* One Bard-Schweitzer-style fixed point for population vector [pops],
   where the queue seen by an arriving class-[c] customer is estimated as
   q_{j,m}(N - e_c) ~= (N_j - d_jc) (q_{j,m}/N_j + F.(c).(j).(m)). *)
let[@lattol.hot] core network ~pops ~f ~(options : Amva.options) =
  let num_cls = Network.num_classes network in
  let num_st = Network.num_stations network in
  let queue = Array.make_matrix num_cls num_st 0. in
  (* Loop-carried accumulators are hoisted and reset instead of being
     fresh ref cells per iteration (hot-alloc diet, ROADMAP item 3). *)
  let visited = ref 0 in
  for c = 0 to num_cls - 1 do
    visited := 0;
    for m = 0 to num_st - 1 do
      if Network.visit network ~cls:c ~station:m > 0. then incr visited
    done;
    if !visited > 0 then
      for m = 0 to num_st - 1 do
        if Network.visit network ~cls:c ~station:m > 0. then
          queue.(c).(m) <- float_of_int pops.(c) /. float_of_int !visited
      done
  done;
  let residence = Array.make_matrix num_cls num_st 0. in
  let throughput = Array.make num_cls 0. in
  let iterations = ref 0 in
  let converged = ref false in
  let stopped = ref false in
  (* Same inert-class guard as {!Amva.solve}: a populated class with zero
     total demand has no cycle time, so dividing by it would poison the
     whole solution with infinities. *)
  let active c =
    pops.(c) > 0 && Network.total_demand network ~cls:c > 0.
  in
  (* Sweep scratch, allocated once for all fixed-point iterations
     (hot-alloc diet, ROADMAP item 3).  [new_queue] rows for inactive
     classes are never written and keep their initial zeros, matching
     the fresh-matrix-per-sweep semantics this replaces; active rows are
     fully overwritten each sweep.  The queue seen by an arriving
     customer ([seen] below) is inlined into the backlog sum with the
     station kind's scale factor, so the innermost loop allocates
     neither closures nor accumulator cells. *)
  let max_delta = ref 0. in
  let new_queue = Array.make_matrix num_cls num_st 0. in
  let cycle = ref 0. in
  let backlog = ref 0. in
  let backlog_sum ~c ~m ~scale =
    backlog := 0.;
    for j = 0 to num_cls - 1 do
      let seen =
        if pops.(j) = 0 then 0.
        else begin
          let n_j = float_of_int pops.(j) in
          let reduced = if j = c then n_j -. 1. else n_j in
          Float.max 0.
            (reduced *. ((queue.(j).(m) /. n_j) +. f.(c).(j).(m)))
        end
      in
      backlog :=
        !backlog
        +. (Network.service_time network ~cls:j ~station:m *. scale *. seen)
    done;
    !backlog
  in
  while
    (not !converged) && (not !stopped)
    && !iterations < options.Amva.max_iterations
  do
    incr iterations;
    max_delta := 0.;
    for c = 0 to num_cls - 1 do
      if active c then begin
        cycle := 0.;
        for m = 0 to num_st - 1 do
          let v = Network.visit network ~cls:c ~station:m in
          if v > 0. then begin
            let s = Network.service_time network ~cls:c ~station:m in
            let w =
              match Network.station_kind network m with
              | Network.Delay -> s
              | Network.Queueing -> s +. backlog_sum ~c ~m ~scale:1.
              | Network.Multi_server servers ->
                let cf = float_of_int servers in
                let excess =
                  Float.max 0. (backlog_sum ~c ~m ~scale:(1. /. s) -. (cf -. 1.))
                in
                s +. (s /. cf *. excess)
            in
            residence.(c).(m) <- v *. w;
            cycle := !cycle +. residence.(c).(m)
          end
          else residence.(c).(m) <- 0.
        done;
        throughput.(c) <- float_of_int pops.(c) /. !cycle;
        for m = 0 to num_st - 1 do
          new_queue.(c).(m) <- throughput.(c) *. residence.(c).(m)
        done
      end
    done;
    for c = 0 to num_cls - 1 do
      for m = 0 to num_st - 1 do
        (* The damped update of {!Amva.solve}; at damping 0 it is
           [new_queue] bit for bit. *)
        let updated =
          (options.Amva.damping *. queue.(c).(m))
          +. ((1. -. options.Amva.damping) *. new_queue.(c).(m))
        in
        let delta = abs_float (updated -. queue.(c).(m)) in
        (* NaN-catching accumulation; see the matching comment in Amva. *)
        if not (delta <= !max_delta) then max_delta := delta;
        queue.(c).(m) <- updated
      done
    done;
    if not (Float.is_finite !max_delta) then stopped := true
    else if !max_delta < options.Amva.tolerance then converged := true
    else
      match options.Amva.on_sweep with
      | None -> ()
      | Some f -> (
        match f ~iteration:!iterations ~residual:!max_delta with
        | Amva.Continue -> ()
        | Amva.Abort -> stopped := true)
  done;
  { throughput; residence; queue; iterations = !iterations; converged = !converged }

let solve ?(options = Amva.default_options) ?(outer_iterations = 3) network =
  if not (options.Amva.tolerance > 0.) then
    invalid_arg "Linearizer.solve: tolerance > 0";
  if not (options.Amva.damping >= 0. && options.Amva.damping < 1.) then
    invalid_arg "Linearizer.solve: damping in [0, 1)";
  if outer_iterations < 1 then
    invalid_arg "Linearizer.solve: outer_iterations >= 1";
  let num_cls = Network.num_classes network in
  let num_st = Network.num_stations network in
  let pops = Network.populations network in
  (* f.(arriving class).(observed class).(station) *)
  let f =
    Array.init num_cls (fun _ -> Array.make_matrix num_cls num_st 0.)
  in
  let total_inner = ref 0 in
  let final = ref None in
  for outer = 1 to outer_iterations do
    let full = core network ~pops ~f ~options in
    total_inner := !total_inner + full.iterations;
    if outer = outer_iterations then final := Some full
    else begin
      (* Solve each reduced system N - e_j and refresh F. *)
      for j = 0 to num_cls - 1 do
        if pops.(j) > 0 then begin
          let reduced_pops = Array.copy pops in
          reduced_pops.(j) <- reduced_pops.(j) - 1;
          let reduced = core network ~pops:reduced_pops ~f ~options in
          total_inner := !total_inner + reduced.iterations;
          for c = 0 to num_cls - 1 do
            if reduced_pops.(c) > 0 then
              for m = 0 to num_st - 1 do
                f.(j).(c).(m) <-
                  (reduced.queue.(c).(m) /. float_of_int reduced_pops.(c))
                  -. (full.queue.(c).(m) /. float_of_int pops.(c))
              done
          done
        end
      done
    end
  done;
  match !final with
  | Some r ->
    {
      Solution.network;
      throughput = r.throughput;
      residence = r.residence;
      queue = r.queue;
      iterations = !total_inner;
      converged = r.converged;
    }
  | None -> assert false
