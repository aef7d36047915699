open Lattol_topology

type derivative = {
  param : string;
  value : float;
  gradient : float;
  elasticity : float;
}

let u_p ?solver p = (Mms.solve ?solver (Params.validate_exn p)).Measures.u_p

(* Central difference over [lo, hi] around the operating value. *)
let derivative_of ?solver ~param ~value ~lo ~hi ~apply p =
  if hi <= lo then None
  else begin
    let u_hi = u_p ?solver (apply hi) and u_lo = u_p ?solver (apply lo) in
    let gradient = (u_hi -. u_lo) /. (hi -. lo) in
    let u0 = u_p ?solver p in
    let elasticity = if Float.equal u0 0. || Float.equal value 0. then 0. else gradient *. value /. u0 in
    Some { param; value; gradient; elasticity }
  end

let analyze ?solver ?(rel_step = 0.05) p =
  let p = Params.validate_exn p in
  if rel_step <= 0. || rel_step >= 0.5 then
    invalid_arg "Sensitivity.analyze: rel_step in (0, 0.5)";
  let continuous param value ?(min_v = 0.) ?(max_v = infinity) apply =
    let span = Float.max (abs_float value *. rel_step) 1e-3 in
    let lo = Float.max min_v (value -. span) in
    let hi = Float.min max_v (value +. span) in
    derivative_of ?solver ~param ~value ~lo ~hi ~apply p
  in
  let results =
    [
      continuous "runlength" p.Params.runlength ~min_v:1e-6 (fun v ->
          { p with Params.runlength = v });
      continuous "p_remote" p.Params.p_remote ~max_v:1. (fun v ->
          { p with Params.p_remote = v });
      continuous "l_mem" p.Params.l_mem (fun v -> { p with Params.l_mem = v });
      continuous "s_switch" p.Params.s_switch (fun v ->
          { p with Params.s_switch = v });
      (match p.Params.pattern with
      | Access.Geometric p_sw ->
        continuous "p_sw" p_sw ~min_v:1e-3 ~max_v:0.999 (fun v ->
            { p with Params.pattern = Access.Geometric v })
      | Access.Uniform | Access.Explicit _ -> None);
      (* Threads are discrete: difference over one thread each way. *)
      (if p.Params.n_t >= 2 then
         derivative_of ?solver ~param:"n_t"
           ~value:(float_of_int p.Params.n_t)
           ~lo:(float_of_int (p.Params.n_t - 1))
           ~hi:(float_of_int (p.Params.n_t + 1))
           ~apply:(fun v -> { p with Params.n_t = int_of_float v })
           p
       else None);
    ]
  in
  List.filter_map Fun.id results

let ranked ?solver p =
  List.sort
    (fun a b -> Float.compare (abs_float b.elasticity) (abs_float a.elasticity))
    (analyze ?solver p)

let pp_derivative ppf d =
  Fmt.pf ppf "@[%-10s = %-8g dU_p/dx = %+.4f  elasticity = %+.4f@]" d.param
    d.value d.gradient d.elasticity
