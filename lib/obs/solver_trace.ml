type sample = { iteration : int; residual : float }

type attempt = {
  index : int;
  label : string;
  solver : string;
  damping : float;
  budget : int;
  iterations : int;
  converged : bool;
  reason : string option;
  samples : sample list;
  dropped : int;
}

(* Mutable in-progress attempt; frozen into [attempt] on finish. *)
type open_attempt = {
  o_index : int;
  o_label : string;
  o_solver : string;
  o_damping : float;
  o_budget : int;
  mutable o_samples : sample list; (* reversed *)
  mutable o_count : int;
  mutable o_dropped : int;
  mutable o_last_iteration : int;
}

type t = {
  sample_capacity : int;
  mutable finished : attempt list; (* reversed *)
  mutable current : open_attempt option;
  mutable next_index : int;
}

let create ?(sample_capacity = 10_000) () =
  if sample_capacity < 1 then
    invalid_arg "Solver_trace.create: sample_capacity >= 1";
  { sample_capacity; finished = []; current = None; next_index = 1 }

let freeze o ~converged ~reason ~iterations =
  {
    index = o.o_index;
    label = o.o_label;
    solver = o.o_solver;
    damping = o.o_damping;
    budget = o.o_budget;
    iterations;
    converged;
    reason;
    samples = List.rev o.o_samples;
    dropped = o.o_dropped;
  }

let finish_attempt ?reason t ~converged ~iterations =
  match t.current with
  | None -> ()
  | Some o ->
    t.finished <- freeze o ~converged ~reason ~iterations :: t.finished;
    t.current <- None

let start_attempt t ?(label = "") ?(budget = 0) ~solver ~damping () =
  (match t.current with
  | Some o ->
    (* Close a dangling attempt rather than silently losing it. *)
    finish_attempt ~reason:"superseded" t ~converged:false
      ~iterations:o.o_last_iteration
  | None -> ());
  t.current <-
    Some
      {
        o_index = t.next_index;
        o_label = label;
        o_solver = solver;
        o_damping = damping;
        o_budget = budget;
        o_samples = [];
        o_count = 0;
        o_dropped = 0;
        o_last_iteration = 0;
      };
  t.next_index <- t.next_index + 1

let record t ~iteration ~residual =
  match t.current with
  | None -> ()
  | Some o ->
    o.o_last_iteration <- iteration;
    if o.o_count >= t.sample_capacity then o.o_dropped <- o.o_dropped + 1
    else begin
      o.o_samples <- { iteration; residual } :: o.o_samples;
      o.o_count <- o.o_count + 1
    end

(* The default AMVA options are the budget and damping every standalone
   solve runs under; the attempt header records them. *)
let solve t ?label ?on_sweep ~solver params =
  let open Lattol_queueing in
  start_attempt t ?label ~budget:Amva.default_options.Amva.max_iterations
    ~solver:(Lattol_core.Mms.solver_label solver)
    ~damping:Amva.default_options.Amva.damping ();
  let on_sweep ~iteration ~residual =
    record t ~iteration ~residual;
    match on_sweep with
    | None -> Amva.Continue
    | Some f -> f ~iteration ~residual
  in
  let m = Lattol_core.Mms.solve ~solver ~on_sweep params in
  finish_attempt t ~converged:m.Lattol_core.Measures.converged
    ~iterations:m.Lattol_core.Measures.iterations;
  m

let attempts t =
  let open_ones =
    match t.current with
    | None -> []
    | Some o -> [ freeze o ~converged:false ~reason:None ~iterations:o.o_last_iteration ]
  in
  List.rev_append t.finished open_ones

let sample_capacity t = t.sample_capacity

(* Append the sources' attempts (in list order, chronological within each
   source) to [t], renumbering so indices stay dense and 1-based.  The
   parallel sweep records each grid point into its own private buffer and
   absorbs them in point order afterwards — the merged recording is then
   byte-identical to a sequential run's, whatever the scheduling was. *)
let absorb t sources =
  List.iter
    (fun src ->
      List.iter
        (fun a ->
          t.finished <- { a with index = t.next_index } :: t.finished;
          t.next_index <- t.next_index + 1)
        (attempts src))
    sources

(* ------------------------------------------------------------------ *)
(* Sinks *)

let write_jsonl t oc =
  List.iter
    (fun a ->
      Printf.fprintf oc
        "{\"attempt\":%d,\"label\":\"%s\",\"solver\":\"%s\",\"damping\":%s,\"budget\":%d,\"iterations\":%d,\"converged\":%b,\"reason\":%s,\"samples\":%d,\"dropped\":%d}\n"
        a.index (Jsonu.escape a.label) (Jsonu.escape a.solver)
        (Jsonu.number a.damping) a.budget a.iterations a.converged
        (match a.reason with
        | None -> "null"
        | Some r -> "\"" ^ Jsonu.escape r ^ "\"")
        (List.length a.samples) a.dropped;
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"attempt\":%d,\"iteration\":%d,\"residual\":%s}\n" a.index
            s.iteration (Jsonu.number s.residual))
        a.samples)
    (attempts t)

let write_csv t oc =
  output_string oc "attempt,label,solver,damping,iteration,residual\n";
  List.iter
    (fun a ->
      List.iter
        (fun s ->
          Printf.fprintf oc "%d,%s,%s,%g,%d,%.12g\n" a.index a.label a.solver
            a.damping s.iteration s.residual)
        a.samples)
    (attempts t)
