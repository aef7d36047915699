open Lattol_core
open Lattol_queueing

type param = P_remote | N_t | Runlength | K | P_sw | L_mem | S_switch

let all_params = [ P_remote; N_t; Runlength; K; P_sw; L_mem; S_switch ]

let param_name = function
  | P_remote -> "p_remote"
  | N_t -> "n_t"
  | Runlength -> "runlength"
  | K -> "k"
  | P_sw -> "p_sw"
  | L_mem -> "l_mem"
  | S_switch -> "s_switch"

let apply p param v =
  match param with
  | P_remote -> { p with Params.p_remote = v }
  | N_t -> { p with Params.n_t = int_of_float (Float.round v) }
  | Runlength -> { p with Params.runlength = v }
  | K -> { p with Params.k = int_of_float (Float.round v) }
  | P_sw -> { p with Params.pattern = Lattol_topology.Access.Geometric v }
  | L_mem -> { p with Params.l_mem = v }
  | S_switch -> { p with Params.s_switch = v }

let linspace ~lo ~hi ~steps =
  if steps < 2 then invalid_arg "Sweep.linspace: steps must be at least 2";
  List.init steps (fun i ->
      lo +. ((hi -. lo) *. float_of_int i /. float_of_int (steps - 1)))

type axis = { param : param; values : float list }

type solved = {
  measures : Measures.t;
  tol_network : Tolerance.report;
  tol_memory : Tolerance.report;
}

type row = {
  assigns : (param * float) list;
  result : (solved, string) result;
}

let label assigns =
  String.concat ","
    (List.map
       (fun (param, v) -> Printf.sprintf "%s=%g" (param_name param) v)
       assigns)

(* Row-major cartesian product: the first axis varies slowest, exactly the
   nesting order of the equivalent hand-written loops. *)
let points axes =
  List.fold_right
    (fun axis tails ->
      List.concat_map
        (fun v -> List.map (fun tail -> (axis.param, v) :: tail) tails)
        axis.values)
    axes [ [] ]

(* ------------------------------------------------------------------ *)
(* Journal codec

   A checkpointed point stores only its three raw measures (exact hex
   floats, one line) — the tolerance reports are pure functions of those
   measures, recomputed on restore by [Tolerance.of_measures], so a
   resumed row is bit-identical to a freshly solved one. *)

let reports ~real ~ideal_net ~ideal_mem =
  {
    measures = real;
    tol_network =
      Tolerance.of_measures Tolerance.Network_latency ~real ~ideal:ideal_net;
    tol_memory =
      Tolerance.of_measures Tolerance.Memory_latency ~real ~ideal:ideal_mem;
  }

let encode_row row =
  match row.result with
  | Error msg -> "err " ^ String.escaped msg
  | Ok s ->
    Printf.sprintf "ok %s|%s|%s"
      (Cache.encode_measures_line s.measures)
      (Cache.encode_measures_line s.tol_network.Tolerance.ideal)
      (Cache.encode_measures_line s.tol_memory.Tolerance.ideal)

let decode_row assigns payload =
  if String.starts_with ~prefix:"ok " payload then begin
    match
      String.split_on_char '|'
        (String.sub payload 3 (String.length payload - 3))
    with
    | [ r; ni; mi ] -> (
      match
        ( Cache.decode_measures_line r,
          Cache.decode_measures_line ni,
          Cache.decode_measures_line mi )
      with
      | Some real, Some ideal_net, Some ideal_mem ->
        Some
          {
            assigns;
            result = Ok (reports ~real ~ideal_net ~ideal_mem);
          }
      | _ -> None)
    | _ -> None
  end
  else if String.starts_with ~prefix:"err " payload then begin
    match Scanf.unescaped (String.sub payload 4 (String.length payload - 4)) with
    | msg -> Some { assigns; result = Error msg }
    | exception Scanf.Scan_failure _ -> None
  end
  else None

module Tc = Lattol_obs.Trace_ctx

(* Tag iteration phases on a solve span: one child span per residual
   decade crossed, so a solve's convergence trajectory is visible on the
   causal waterfall without recording every iteration.  The wrapped hook
   still returns whatever the caller's hook decides; with tracing off
   the hook is returned untouched. *)
let phase_hook tctx hook =
  if not (Tc.enabled tctx) then hook
  else begin
    let mark = ref (Tc.now_ns ()) in
    let decade = ref max_int in
    let from_it = ref 0 in
    Some
      (fun ~iteration ~residual ->
        let d =
          if Float.is_finite residual && residual > 0. then
            int_of_float (Float.ceil (Float.log10 residual))
          else max_int
        in
        if d < !decade then begin
          if !decade < max_int then
            Tc.record_interval ~cat:"solve"
              ~name:(Printf.sprintf "residual 1e%d" !decade)
              ~meta:
                [
                  ("from_iteration", string_of_int !from_it);
                  ("to_iteration", string_of_int iteration);
                ]
              ~t0_ns:!mark tctx;
          mark := Tc.now_ns ();
          decade := d;
          from_it := iteration
        end;
        match hook with
        | None -> Amva.Continue
        | Some f -> f ~iteration ~residual)
  end

(* The hashed string names the network ideal (always zero remote
   accesses): dropping it would change every meta and orphan every
   existing journal. *)
let journal_meta ?solver ~base axes =
  let b = Buffer.create 256 in
  Printf.bprintf b "sweep/%d;solver=%s;ideal=zero-remote;base=%s;"
    Journal.format_version
    (match solver with Some s -> Mms.solver_label s | None -> "default")
    (Cache.canonical base);
  List.iter
    (fun a ->
      Printf.bprintf b "axis:%s=" (param_name a.param);
      List.iter (fun v -> Printf.bprintf b "%h," v) a.values;
      Buffer.add_char b ';')
    axes;
  Digest.to_hex (Digest.string (Buffer.contents b))

let run ?solver ?cache ?(jobs = 1) ?chunk ?oversubscribe ?trace
    ?(causal = Tc.disabled) ?monitor ?journal ?(journal_prefix = "") ?retry
    ?deadline ?(chaos = Lattol_robust.Chaos.none) ~base axes =
  if jobs < 1 then invalid_arg "Sweep.run: jobs must be at least 1";
  if axes = [] then invalid_arg "Sweep.run: at least one axis";
  List.iter
    (fun a -> if a.values = [] then invalid_arg "Sweep.run: empty axis")
    axes;
  let cache = match cache with Some c -> c | None -> Cache.create () in
  (* [label] marks the real solve of a sweep point in the trace; ideal
     solves are untraced support work, as in the pre-engine CLI.  Each
     point records into its own private buffer ([tel]) — created by the
     task, touched by no other domain — and the buffers are absorbed into
     the caller's recorder in point order once the pool has joined, so
     the merged trace is byte-identical at any parallelism.  [hook] is
     the per-task on_sweep: deadline polling, when a deadline is set. *)
  let solve_point ?label ?tel ?(tctx = Tc.disabled) ~hook params =
    let resolved =
      match solver with Some s -> s | None -> Mms.default_solver params
    in
    let on_sweep = phase_hook tctx hook in
    match tel with
    | Some tel when label <> None && params.Params.n_t > 0 ->
      (* A traced real solve bypasses the memo: a cache hit would record
         no attempt, and whether a point hits depends on scheduling
         whenever its configuration collides with another point's (e.g. a
         p_remote=0 point vs. a zero-remote ideal).  Re-solving keeps the
         recording a pure function of the grid — one attempt per valid
         point, every [jobs].  Untraced solves (ideals, untraced runs)
         memoize as always. *)
      Lattol_obs.Solver_trace.solve tel ?label ?on_sweep ~solver:resolved
        params
    | _ ->
      Cache.find_or_compute ~trace:tctx cache
        ~key:(Cache.key ~solver_id:(Mms.solver_label resolved) params)
        (fun () -> Mms.solve ~solver:resolved ?on_sweep params)
  in
  let contained = retry <> None || deadline <> None in
  let eval ~tel (ctx : Pool.ctx) assigns =
    Lattol_robust.Chaos.inject chaos ~task:(label assigns)
      ~attempt:ctx.Pool.attempt;
    let p =
      List.fold_left (fun p (param, v) -> apply p param v) base assigns
    in
    match Params.validate p with
    | Error msg -> { assigns; result = Error msg }
    | Ok p ->
      let hook =
        match deadline with
        | None -> None
        | Some _ ->
          (* Deadline expiry must RAISE out of the solver, not return
             [Abort]: an aborted solve yields a non-converged solution
             that would otherwise land in the cache and the journal. *)
          Some
            (fun ~iteration:_ ~residual:_ ->
              if ctx.Pool.should_stop () then
                raise Lattol_robust.Retry.Deadline_exceeded;
              Amva.Continue)
      in
      let tctx = ctx.Pool.trace in
      let real =
        Tc.with_span ~cat:"solve" ~name:"solve" tctx (fun sctx ->
            solve_point ~label:(label assigns) ?tel ~tctx:sctx ~hook p)
      in
      let ideal_net =
        Tc.with_span ~cat:"solve" ~name:"ideal-net" tctx (fun sctx ->
            solve_point ~tctx:sctx ~hook
              (Tolerance.ideal_params Tolerance.Network_latency
                 Tolerance.Zero_remote p))
      in
      let ideal_mem =
        Tc.with_span ~cat:"solve" ~name:"ideal-mem" tctx (fun sctx ->
            solve_point ~tctx:sctx ~hook
              (Tolerance.ideal_params Tolerance.Memory_latency
                 Tolerance.Zero_delay p))
      in
      { assigns; result = Ok (reports ~real ~ideal_net ~ideal_mem) }
  in
  let pts = Array.of_list (points axes) in
  let n = Array.length pts in
  (* Poison substitution only arms alongside retry/deadline containment:
     without them, failures propagate first-exception as they always
     did.  A poisoned point becomes (and is journaled as) an error row. *)
  let on_poison =
    if not contained then None
    else
      Some
        (fun (p : Pool.poisoned) ->
          {
            assigns = pts.(p.Pool.index);
            result =
              Error
                (Printf.sprintf "gave up after %d attempts: %s"
                   p.Pool.attempts p.Pool.error);
          })
  in
  (* Per-point private trace buffers, absorbed into the caller's recorder
     in point order below.  Cache hits and journal-restored points record
     nothing — the same holds sequentially, so the merged trace is
     byte-identical across [jobs]. *)
  let traces =
    match trace with
    | None -> [||]
    | Some tel ->
      Array.init n (fun _ ->
          Lattol_obs.Solver_trace.create
            ~sample_capacity:(Lattol_obs.Solver_trace.sample_capacity tel)
            ())
  in
  let rows =
    Journal.map journal ~causal ~jobs ~chunk ~oversubscribe ~monitor ~retry
      ~deadline ~on_poison
      (* Ids carry the point's index (axes can repeat a value) and its
         label (readability when inspecting a journal). *)
      ~id:(fun i -> Printf.sprintf "%s%d:%s" journal_prefix i (label pts.(i)))
      ~point:(fun i -> (Printf.sprintf "%s%d" journal_prefix i, label pts.(i)))
      ~encode:encode_row
      ~decode:(fun i payload -> decode_row pts.(i) payload)
      (fun ctx i ->
        let tel = if trace = None then None else Some traces.(i) in
        eval ~tel ctx pts.(i))
      n
  in
  (match trace with
  | None -> ()
  | Some tel -> Lattol_obs.Solver_trace.absorb tel (Array.to_list traces));
  Array.to_list rows
