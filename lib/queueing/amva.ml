let log_src = Logs.Src.create "lattol.amva" ~doc:"Approximate MVA solver"

module Log = (val Logs.src_log log_src)

type progress = Continue | Abort

type options = {
  tolerance : float;
  max_iterations : int;
  damping : float;
  on_sweep : (iteration:int -> residual:float -> progress) option;
}

let default_options =
  { tolerance = 1e-8; max_iterations = 10_000; damping = 0.; on_sweep = None }

let solve ?(options = default_options) network =
  if options.tolerance <= 0. then invalid_arg "Amva.solve: tolerance > 0";
  if not (options.damping >= 0. && options.damping < 1.) then
    invalid_arg "Amva.solve: damping in [0, 1)";
  let num_cls = Network.num_classes network in
  let num_st = Network.num_stations network in
  let pops = Network.populations network in
  (* A populated class whose every demand is zero has no cycle time: its
     throughput is undefined (pops / 0 = inf).  Flag it once and keep it
     inert instead of poisoning the solution with infinities. *)
  let inert =
    Array.init num_cls (fun c ->
        pops.(c) > 0 && Network.total_demand network ~cls:c <= 0.)
  in
  Array.iteri
    (fun c degenerate ->
      if degenerate then
        Log.warn (fun m ->
            m "class %s has population %d but zero total demand; throughput \
               forced to 0"
              (Network.class_name network c)
              pops.(c)))
    inert;
  let active c = pops.(c) > 0 && not inert.(c) in
  (* Step 1 of Figure 3: spread each class evenly over the stations it
     visits. *)
  let queue = Array.make_matrix num_cls num_st 0. in
  for c = 0 to num_cls - 1 do
    let visited = ref 0 in
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
  while (not !converged) && (not !stopped) && !iterations < options.max_iterations
  do
    incr iterations;
    let max_delta = ref 0. in
    (* One sweep: steps 2-4 of Figure 3 for every class. *)
    let new_queue = Array.make_matrix num_cls num_st 0. in
    for c = 0 to num_cls - 1 do
      if active c then begin
        let shrink =
          float_of_int (pops.(c) - 1) /. float_of_int pops.(c)
        in
        let cycle = ref 0. in
        for m = 0 to num_st - 1 do
          let v = Network.visit network ~cls:c ~station:m in
          if v > 0. then begin
            let s = Network.service_time network ~cls:c ~station:m in
            (* Expected backlog at arrival instants, with the arriving
               class's own queue scaled by (N_c - 1)/N_c; Multi_server
               stations use the Seidmann decomposition. *)
            let backlog scale =
              let acc = ref 0. in
              for j = 0 to num_cls - 1 do
                let q_j =
                  if j = c then shrink *. queue.(j).(m) else queue.(j).(m)
                in
                acc :=
                  !acc
                  +. (Network.service_time network ~cls:j ~station:m
                      *. scale *. q_j)
              done;
              !acc
            in
            let w =
              match Network.station_kind network m with
              | Network.Delay -> s
              | Network.Queueing -> s +. backlog 1.
              | Network.Multi_server servers ->
                (* An arrival occupies a free server immediately unless all
                   [c] are busy; the queueing excess beyond [c - 1] waiting
                   customers is served at the pooled rate [c / s]. *)
                let cf = float_of_int servers in
                let excess = Float.max 0. (backlog (1. /. s) -. (cf -. 1.)) in
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
        let updated =
          (options.damping *. queue.(c).(m))
          +. ((1. -. options.damping) *. new_queue.(c).(m))
        in
        let delta = abs_float (updated -. queue.(c).(m)) in
        (* [not (<=)] instead of [(>)] so a NaN delta lands in [max_delta]
           and trips the non-finite guard below rather than comparing as
           false and masquerading as convergence. *)
        if not (delta <= !max_delta) then max_delta := delta;
        queue.(c).(m) <- updated
      done
    done;
    if not (Float.is_finite !max_delta) then begin
      (* NaN/Inf can never shrink below the tolerance; terminate now with
         [converged = false] instead of spinning to the iteration cap. *)
      Log.warn (fun m ->
          m "non-finite residual %g at iteration %d; aborting" !max_delta
            !iterations);
      stopped := true
    end
    else if !max_delta < options.tolerance then converged := true
    else
      match options.on_sweep with
      | None -> ()
      | Some f -> (
        match f ~iteration:!iterations ~residual:!max_delta with
        | Continue -> ()
        | Abort ->
          Log.info (fun m ->
              m "observer aborted at iteration %d (residual %g)" !iterations
                !max_delta);
          stopped := true)
  done;
  if !converged then
    Log.debug (fun m ->
        m "converged in %d iterations (%d classes, %d stations)" !iterations
          num_cls num_st)
  else if not !stopped then
    Log.warn (fun m ->
        m "no convergence after %d iterations (tolerance %g)" !iterations
          options.tolerance);
  {
    Solution.network;
    throughput;
    residence;
    queue;
    iterations = !iterations;
    converged = !converged;
  }
