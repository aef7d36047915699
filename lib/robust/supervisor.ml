open Lattol_core
open Lattol_queueing

module Slog = Lattol_obs.Log

let log_src = "lattol.supervisor"

type abort_reason =
  | Non_finite
  | Stalled
  | Iteration_cap
  | Time_budget
  | Solver_error of string

type attempt = {
  solver : Mms.solver;
  damping : float;
  iteration_budget : int;
  iterations : int;
  residual : float;
  converged : bool;
  reason : abort_reason option;
}

type violation = {
  check : string;
  bound : float;
  actual : float;
}

type diagnosis = {
  attempts : attempt list;
  fallbacks : int;
  violations : violation list;
  elapsed : float;
}

type outcome = Converged | Converged_after_fallback | Failed

let outcome = function
  | Ok (_, d) -> if d.fallbacks = 0 then Converged else Converged_after_fallback
  | Error _ -> Failed

let exit_code = function
  | Converged -> 0
  | Converged_after_fallback -> 3
  | Failed -> 4

let reason_string = function
  | Non_finite -> "non-finite residual"
  | Stalled -> "stalled"
  | Iteration_cap -> "iteration cap"
  | Time_budget -> "time budget"
  | Solver_error msg -> "solver error: " ^ msg

(* ------------------------------------------------------------------ *)
(* Bound cross-check *)

(* The relative headroom a bound may be exceeded by before it counts. *)
let slack = 0.02

let cross_check p solution measures =
  let nw = solution.Solution.network in
  let num_cls = Network.num_classes nw in
  let num_st = Network.num_stations nw in
  let violations = ref [] in
  let flag check bound actual =
    if
      Float.is_finite bound
      && (not (Float.is_finite actual)
         || actual > (bound *. (1. +. slack)) +. 1e-9)
    then violations := { check; bound; actual } :: !violations
  in
  (* Per-class asymptotic bounds hold for any feasible multi-class
     solution: a station serves class [c] at most a fraction 1 of the time
     per server, and the cycle time can never undercut the total demand. *)
  for c = 0 to num_cls - 1 do
    if Network.population nw c > 0 then begin
      let d_max = ref 0. in
      for m = 0 to num_st - 1 do
        let d = Network.demand nw ~cls:c ~station:m in
        let effective =
          match Network.station_kind nw m with
          | Network.Delay -> 0.
          | Network.Queueing -> d
          | Network.Multi_server servers -> d /. float_of_int servers
        in
        if effective > !d_max then d_max := effective
      done;
      let x = solution.Solution.throughput.(c) in
      if !d_max > 0. then
        flag
          (Printf.sprintf "throughput(%s) vs 1/D_max" (Network.class_name nw c))
          (1. /. !d_max) x;
      let d_total = Network.total_demand nw ~cls:c in
      if d_total > 0. then
        flag
          (Printf.sprintf "throughput(%s) vs N/D" (Network.class_name nw c))
          (float_of_int (Network.population nw c) /. d_total)
          x
    end
  done;
  (* The paper's closed forms (Eqs. 4 and 5 territory). *)
  let b = Bottleneck.analyze p in
  flag "lambda_net vs Eq.4 saturation" b.Bottleneck.lambda_net_saturation
    measures.Measures.lambda_net;
  if p.Params.l_mem > 0. then
    flag "U_p vs memory bound"
      (Float.min 1.
         (float_of_int p.Params.mem_ports
         *. Params.processor_occupancy p /. p.Params.l_mem))
      measures.Measures.u_p;
  flag "U_p vs 1" 1. measures.Measures.u_p;
  (* Internal consistency of the fixed point itself. *)
  flag "Little's-law residual" 1e-3 (Solution.littles_law_residual solution);
  List.rev !violations

(* ------------------------------------------------------------------ *)
(* The escalation ladder *)

let default_dampings = [ 0.; 0.5; 0.9 ]

let solution_finite solution =
  Array.for_all Float.is_finite solution.Solution.throughput
  && Array.for_all
       (fun row -> Array.for_all Float.is_finite row)
       solution.Solution.queue

(* The fixed-point tolerance of every rung, and the sweeps without a new
   best residual after which a rung counts as stalled. *)
let tolerance = 1e-8
let stall_window = 1_000

let solve ?solvers ?(dampings = default_dampings) ?(base_iterations = 2_000)
    ?time_budget ?telemetry p =
  let tel f = Option.iter f telemetry in
  let p = Params.validate_exn p in
  if dampings = [] then invalid_arg "Supervisor.solve: dampings is empty";
  List.iter
    (fun d ->
      if d < 0. || d >= 1. || Float.is_nan d then
        invalid_arg "Supervisor.solve: dampings in [0, 1)")
    dampings;
  if base_iterations < 1 then
    invalid_arg "Supervisor.solve: base_iterations >= 1";
  (match time_budget with
  | Some b when b <= 0. -> invalid_arg "Supervisor.solve: time_budget > 0"
  | Some _ | None -> ());
  let solvers =
    match solvers with
    | Some s when s <> [] -> s
    | Some _ -> invalid_arg "Supervisor.solve: solvers is empty"
    | None ->
      if Mms.symmetric_applicable p then
        [ Mms.Symmetric_amva; Mms.General_amva; Mms.Linearizer_amva ]
      else [ Mms.General_amva; Mms.Linearizer_amva ]
  in
  let t0 = Sys.time () in
  let elapsed () = Sys.time () -. t0 in
  let out_of_time () =
    match time_budget with None -> false | Some b -> elapsed () > b
  in
  if p.Params.n_t = 0 then
    (* No threads: the model is trivially the all-idle machine. *)
    Ok
      ( Mms.solve p,
        { attempts = []; fallbacks = 0; violations = []; elapsed = elapsed () }
      )
  else begin
    let rungs =
      List.concat_map
        (fun solver -> List.map (fun damping -> (solver, damping)) dampings)
        solvers
    in
    let attempts = ref [] in
    let record a = attempts := a :: !attempts in
    let finish_error () =
      Error
        {
          attempts = List.rev !attempts;
          fallbacks = List.length !attempts;
          violations = [];
          elapsed = elapsed ();
        }
    in
    let rec climb index = function
      | [] -> finish_error ()
      | (solver, damping) :: rest ->
        if out_of_time () then begin
          Slog.warnf ~src:log_src
            "time budget exhausted before rung %d; giving up" (index + 1);
          finish_error ()
        end
        else begin
          let budget = base_iterations * (1 lsl Int.min index 20) in
          Slog.debugf
            ~fields:
              [
                ("solver", Mms.solver_label solver);
                ("damping", string_of_float damping);
                ("budget", string_of_int budget);
              ]
            ~src:log_src "rung %d/%d start" (index + 1)
            (index + 1 + List.length rest);
          tel (fun t ->
              Lattol_obs.Solver_trace.start_attempt t
                ~label:(Printf.sprintf "rung %d" (index + 1))
                ~budget
                ~solver:(Mms.solver_label solver) ~damping ());
          (* Close the rung in both recorders, the solver-trace attempt
             and the diagnosis.  No [reason] means accepted. *)
          let close ?reason ~iterations ~residual () =
            let converged = Option.is_none reason in
            tel (fun t ->
                Lattol_obs.Solver_trace.finish_attempt
                  ?reason:(Option.map reason_string reason) t ~converged
                  ~iterations);
            record
              {
                solver;
                damping;
                iteration_budget = budget;
                iterations;
                residual;
                converged;
                reason;
              }
          in
          let last_residual = ref nan in
          let last_iteration = ref 0 in
          let best_residual = ref infinity in
          let best_iteration = ref 0 in
          let abort = ref None in
          let on_sweep ~iteration ~residual =
            tel (fun t -> Lattol_obs.Solver_trace.record t ~iteration ~residual);
            last_residual := residual;
            (* Linearizer restarts sweep numbering for each inner core;
               reset the stall tracker when the counter rewinds. *)
            if iteration < !last_iteration then begin
              best_residual := infinity;
              best_iteration := iteration
            end;
            last_iteration := iteration;
            if residual < !best_residual *. 0.999 then begin
              best_residual := residual;
              best_iteration := iteration
            end;
            if out_of_time () then begin
              abort := Some Time_budget;
              Amva.Abort
            end
            else if iteration - !best_iteration >= stall_window then begin
              abort := Some Stalled;
              Amva.Abort
            end
            else Amva.Continue
          in
          let outcome =
            match
              Mms.solve_network ~solver ~tolerance ~max_iterations:budget
                ~damping ~on_sweep p
            with
            | solution -> Ok solution
            | exception Invalid_argument msg -> Error (Solver_error msg)
            | exception Failure msg -> Error (Solver_error msg)
          in
          match outcome with
          | Error reason ->
            close ~reason ~iterations:0 ~residual:nan ();
            Slog.infof ~src:log_src "rung %d (%s, damping %g) raised: %s"
              (index + 1) (Mms.solver_label solver) damping
              (reason_string reason);
            climb (index + 1) rest
          | Ok solution ->
            let iterations = solution.Solution.iterations in
            let accepted = solution.Solution.converged && solution_finite solution in
            if accepted then begin
              close ~iterations ~residual:!last_residual ();
              Slog.debugf
                ~fields:[ ("iterations", string_of_int iterations) ]
                ~src:log_src "rung %d accepted: %s converged" (index + 1)
                (Mms.solver_label solver);
              let measures = Mms.measures_of_solution p solution in
              let violations = cross_check p solution measures in
              List.iter
                (fun v ->
                  Slog.warnf ~src:log_src "bound violation: %s (%g > %g)"
                    v.check v.actual v.bound)
                violations;
              Ok
                ( measures,
                  {
                    attempts = List.rev !attempts;
                    fallbacks = List.length !attempts - 1;
                    violations;
                    elapsed = elapsed ();
                  } )
            end
            else begin
              let reason =
                match !abort with
                | Some r -> r
                | None ->
                  if
                    (not (Float.is_finite !last_residual))
                       && !last_iteration > 0
                    || not (solution_finite solution)
                  then Non_finite
                  else Iteration_cap
              in
              close ~reason ~iterations ~residual:!last_residual ();
              Slog.infof ~src:log_src
                "rung %d (%s, damping %g, budget %d) failed: %s" (index + 1)
                (Mms.solver_label solver) damping budget (reason_string reason);
              climb (index + 1) rest
            end
        end
    in
    climb 0 rungs
  end

(* ------------------------------------------------------------------ *)
(* Pretty printing *)

let pp_attempt ppf a =
  if a.converged then
    Format.fprintf ppf "%s damping=%g budget=%d: converged in %d sweeps"
      (Mms.solver_label a.solver) a.damping a.iteration_budget a.iterations
  else
    Format.fprintf ppf "%s damping=%g budget=%d: failed (%s) after %d sweeps"
      (Mms.solver_label a.solver) a.damping a.iteration_budget
      (match a.reason with Some r -> reason_string r | None -> "unknown")
      a.iterations

let pp_violation ppf v =
  Format.fprintf ppf "%s: %.6g exceeds bound %.6g" v.check v.actual v.bound

let pp_diagnosis ppf d =
  Format.fprintf ppf "@[<v>supervisor: %d attempt%s, %d fallback%s"
    (List.length d.attempts)
    (if List.length d.attempts = 1 then "" else "s")
    d.fallbacks
    (if d.fallbacks = 1 then "" else "s");
  List.iteri
    (fun i a -> Format.fprintf ppf "@,  #%d %a" (i + 1) pp_attempt a)
    d.attempts;
  let accepted =
    match List.rev d.attempts with
    | a :: _ -> a.converged && a.reason = None
    | [] -> false
  in
  (match d.violations with
  | [] when not accepted ->
    (* No solution survived the ladder, so nothing was cross-checked;
       don't print a reassuring "ok" over a failure. *)
    Format.fprintf ppf "@,bound cross-check: skipped (no accepted solution)"
  | [] -> Format.fprintf ppf "@,bound cross-check: ok"
  | vs ->
    Format.fprintf ppf "@,bound cross-check: %d violation%s" (List.length vs)
      (if List.length vs = 1 then "" else "s");
    List.iter (fun v -> Format.fprintf ppf "@,  ! %a" pp_violation v) vs);
  Format.fprintf ppf "@]"
