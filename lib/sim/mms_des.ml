open Lattol_stats
open Lattol_topology
open Lattol_core
open Lattol_robust
module Ev = Lattol_obs.Events
module Metrics = Lattol_obs.Metrics

type service_model = Exponential | Deterministic

type config = {
  seed : int;
  rng : Prng.t option;
  warmup : float;
  horizon : float;
  batches : int;
  mem_model : service_model;
  local_memory_priority : bool;
  faults : Fault_plan.t;
  trace : Ev.t option;
  metrics : Metrics.t option;
  on_batch : (events:int -> time:float -> unit) option;
}

let default_config =
  {
    seed = 1;
    rng = None;
    warmup = 1_000.;
    horizon = 100_000.;
    batches = 20;
    mem_model = Exponential;
    local_memory_priority = false;
    faults = Fault_plan.none;
    trace = None;
    metrics = None;
    on_batch = None;
  }

type fault_stats = {
  component : string;
  stations : int;
  failures : int;
  downtime : float;
  unavailability : float;
  mean_outage : float;
}

type result = {
  measures : Measures.t;
  lambda_ci : float * float;
  u_p_ci : float * float;
  remote_trips : int;
  events : int;
  sim_time : float;
  faults : fault_stats list;
}

let variate model mean =
  match model with
  | Exponential -> Variate.Exponential mean
  | Deterministic -> Variate.Deterministic mean

(* Per-component-class accumulator of the fault-injection layer. *)
type fault_acc = {
  label : string;
  num_stations : int;
  mutable failures : int; (* failure instants inside the measuring window *)
  mutable downtime : float; (* completed outages, clipped to the window *)
  mutable open_outages : float list; (* start times of outages in progress *)
}

(* Where a thread's pending station visit is.  The thread's one
   continuation, made at spawn, runs when that visit's service completes
   and advances the thread by one stage. *)
type stage =
  | Compute        (* its processor *)
  | Local_memory   (* its node's memory *)
  | Su_request     (* its node's SU, sending a remote request *)
  | Out_request    (* its node's outbound switch *)
  | Hop_request    (* an inbound switch on the way to [dst] *)
  | Su_remote      (* [dst]'s SU *)
  | Remote_memory  (* [dst]'s memory *)
  | Out_response   (* [dst]'s outbound switch *)
  | Hop_response   (* an inbound switch on the way home *)
  | Su_response    (* its node's SU, receiving the response *)

(* A thread's floats, unboxed. *)
type thread_clocks = {
  mutable trip_start : float; (* when the current one-way trip began *)
  mutable arrived : float;    (* when the pending visit was queued *)
  mutable started : float;    (* traced runs: when its service began *)
}

type thread = {
  home : int;
  tid : int;
  script : Trace.step array; (* [||] for a statistical thread *)
  mutable pos : int;         (* next script step *)
  mutable stage : stage;
  mutable dst : int;         (* the current access's memory module *)
  mutable node : int;        (* the message's position on a trip *)
  clocks : thread_clocks;
  mutable k : unit -> unit;
  mutable on_start : (unit -> unit) option; (* traced runs only *)
}

type state = {
  engine : Engine.t;
  topo : Topology.t;
  probs : float array array;     (* access matrix rows *)
  procs : Station.t array;
  mems : Station.t array;
  sw_in : Station.t array;
  sw_out : Station.t array;
  sync_units : Station.t array option;
      (* EARTH-style SUs; None on the paper's plain PE *)
  trip_times : Moments.t;        (* one-way network trips *)
  rng : Prng.t;
  mutable completions : int;     (* thread activations finished (measured) *)
  mutable remote_issued : int;
  mutable measuring : bool;
  mutable measure_start : float; (* clock value when measuring began *)
  remote_priority : int option;
      (* memory priority of remote accesses: [Some 1] puts them behind
         local ones *)
  fault_targets :
    (Fault_plan.process * fault_acc * Station.t array) list;
  trace : Ev.t option;
  metrics : Metrics.t option;
  on_trip : (thread -> float -> unit) option;
      (* a measured trip's other recorders (histogram, trace span):
         installed only with a sink, and called through this field, so
         they stay outside the allocation-free thread path *)
}

let build (config : config) p =
  let p = Params.validate_exn p in
  let faults = Fault_plan.validate_exn config.faults in
  let engine = Engine.create () in
  let rng =
    match config.rng with
    | Some r -> r
    | None -> Prng.create ~seed:config.seed ()
  in
  let topo = Params.make_topology p in
  let n = Params.num_processors p in
  let probs =
    if p.Params.p_remote > 0. || n > 1 then Access.matrix (Params.make_access p)
    else Array.make_matrix 1 1 1.
  in
  let mk ?servers prefix service =
    Array.init n (fun node ->
        Station.create ?servers engine ~rng:(Prng.split rng)
          ~name:(Printf.sprintf "%s%d" prefix node)
          ~service)
  in
  let procs = mk "proc" (Variate.Exponential (Params.processor_occupancy p)) in
  let mems =
    Array.init n (fun node ->
        Station.create ~servers:p.Params.mem_ports
          ~priority_levels:(if config.local_memory_priority then 2 else 1)
          engine ~rng:(Prng.split rng)
          ~name:(Printf.sprintf "mem%d" node)
          ~service:(variate config.mem_model p.Params.l_mem))
  in
  let sw_in =
    mk ~servers:p.Params.switch_pipeline "in"
      (Variate.Exponential p.Params.s_switch)
  in
  let sw_out =
    mk ~servers:p.Params.switch_pipeline "out"
      (Variate.Exponential p.Params.s_switch)
  in
  let fault_targets =
    let entry label pr stations =
      ( pr,
        {
          label;
          num_stations = Array.length stations;
          failures = 0;
          downtime = 0.;
          open_outages = [];
        },
        stations )
    in
    (match faults.Fault_plan.switch with
    | None -> []
    | Some pr -> [ entry "switch" pr (Array.append sw_in sw_out) ])
    @
    match faults.Fault_plan.memory with
    | None -> []
    | Some pr -> [ entry "memory" pr mems ]
  in
  {
    engine;
    topo;
    probs;
    procs;
    mems;
    sw_in;
    sw_out;
    sync_units =
      (if p.Params.sync_unit > 0. then
         Some (mk "su" (Variate.Exponential p.Params.sync_unit))
       else None);
    trip_times = Moments.create ();
    rng;
    completions = 0;
    remote_issued = 0;
    measuring = false;
    measure_start = 0.;
    remote_priority = (if config.local_memory_priority then Some 1 else None);
    fault_targets;
    trace = config.trace;
    metrics = config.metrics;
    on_trip =
      (let hist =
         Option.map
           (fun m ->
             Metrics.histogram m ~help:"one-way network trip times" ~lo:0.
               ~hi:(50. *. Float.max 1. p.Params.s_switch)
               ~bins:64 "trip_time")
           config.metrics
       in
       match (hist, config.trace) with
       | None, None -> None
       | hist, trace ->
         Some
           (fun th dur ->
             Option.iter (fun h -> Metrics.record h dur) hist;
             Option.iter
               (fun tr ->
                 Ev.emit tr ~pid:th.home ~cat:"net" ~track:th.tid
                   ~name:"network-trip" ~t0:th.clocks.trip_start dur)
               trace));
  }

(* ------------------------------------------------------------------ *)
(* Fault injection: per-station alternating failure-repair renewal
   processes (exponential up and down times).  A full outage
   ([degrade = 0]) seizes every server with a repair job of the outage
   length, so traffic queues behind the breakdown; partial degradation
   ([0 < degrade < 1]) slows the station through {!Station.set_speed}.
   Both are non-preemptive: jobs already in service finish undisturbed. *)

let remove_first x l =
  let rec go acc = function
    | [] -> List.rev acc
    | y :: rest ->
      if y = x then List.rev_append acc rest else go (y :: acc) rest
  in
  go [] l

let rec station_fault_cycle st acc (pr : Fault_plan.process) rng station =
  let ttf = Variate.exponential rng ~mean:pr.Fault_plan.mtbf in
  Engine.schedule st.engine ~delay:ttf (fun () ->
      let t_fail = Engine.now st.engine in
      if st.measuring then acc.failures <- acc.failures + 1;
      acc.open_outages <- t_fail :: acc.open_outages;
      let ttr = Variate.exponential rng ~mean:pr.Fault_plan.mttr in
      if pr.Fault_plan.degrade > 0. then
        Station.set_speed station pr.Fault_plan.degrade
      else
        for _ = 1 to Station.servers station do
          Station.submit ~duration:ttr station ignore
        done;
      Engine.schedule st.engine ~delay:ttr (fun () ->
          if pr.Fault_plan.degrade > 0. then Station.set_speed station 1.;
          acc.open_outages <- remove_first t_fail acc.open_outages;
          if st.measuring then
            acc.downtime <-
              acc.downtime
              +. (Engine.now st.engine -. Float.max t_fail st.measure_start);
          station_fault_cycle st acc pr rng station))

let launch_faults st =
  List.iter
    (fun (pr, acc, stations) ->
      Array.iter
        (fun station ->
          station_fault_cycle st acc pr (Prng.split st.rng) station)
        stations)
    st.fault_targets

let pp_fault_stats ppf f =
  Format.fprintf ppf
    "faults[%s]: %d failures over %d stations, downtime %.1f (unavail %.4f, \
     mean outage %.1f)"
    f.component f.failures f.stations f.downtime f.unavailability f.mean_outage

(* Snapshot the per-component downtime statistics, charging outages still
   in progress up to the current clock. *)
let fault_report st ~sim_time =
  List.map
    (fun ((_ : Fault_plan.process), acc, (_ : Station.t array)) ->
      let now = Engine.now st.engine in
      let open_downtime =
        List.fold_left
          (fun total t0 -> total +. (now -. Float.max t0 st.measure_start))
          0. acc.open_outages
      in
      let downtime = acc.downtime +. open_downtime in
      let span = sim_time *. float_of_int acc.num_stations in
      {
        component = acc.label;
        stations = acc.num_stations;
        failures = acc.failures;
        downtime;
        unavailability = (if span > 0. then downtime /. span else 0.);
        mean_outage =
          (if acc.failures = 0 then nan
           else downtime /. float_of_int acc.failures);
      })
    st.fault_targets

(* Queue thread [th]'s next station visit; [stage] names it. *)
let visit ?priority ?duration st th stage station =
  th.stage <- stage;
  th.clocks.arrived <- Engine.now st.engine;
  Station.submit ?priority ?duration ?on_start:th.on_start station th.k

(* A finished one-way trip feeds the [s_obs] estimator and any other
   recorder of trips. *)
let record_trip st th =
  if st.measuring then begin
    let dur = Engine.now st.engine -. th.clocks.trip_start in
    Moments.add st.trip_times dur;
    match st.on_trip with Some f -> f th dur | None -> ()
  end

(* Start the thread's next activation at its processor: a statistical
   thread draws its target when the burst ends, a scripted one replays
   its next step. *)
let compute st th =
  if Array.length th.script = 0 then visit st th Compute st.procs.(th.home)
  else begin
    let step = th.script.(th.pos) in
    th.pos <- (th.pos + 1) mod Array.length th.script;
    th.dst <- step.Trace.target;
    visit ~duration:step.Trace.compute st th Compute st.procs.(th.home)
  end

let finish st th =
  if st.measuring then st.completions <- st.completions + 1;
  compute st th

(* The request leaves through its node's outbound switch. *)
let send st th =
  th.clocks.trip_start <- Engine.now st.engine;
  th.node <- th.home;
  visit st th Out_request st.sw_out.(th.home)

let remote_memory st th =
  visit ?priority:st.remote_priority st th Remote_memory st.mems.(th.dst)

(* One memory access from [home] to [dst].  Remote accesses are
   injected at the source SU, handled at the destination SU before the
   memory, and completed at the source SU (no-op stages without SUs);
   local accesses use the default (highest) memory priority. *)
let access st th =
  if th.dst = th.home then visit st th Local_memory st.mems.(th.home)
  else begin
    if st.measuring then st.remote_issued <- st.remote_issued + 1;
    match st.sync_units with
    | Some sus -> visit st th Su_request sus.(th.home)
    | None -> send st th
  end

(* Walk a message one inbound switch at a time, along the
   dimension-order route from [th.node] to [towards]; [arrive] runs at
   the destination. *)
let[@inline] hop st th stage ~towards arrive =
  if th.node = towards then begin
    record_trip st th;
    arrive st th
  end
  else begin
    th.node <- Topology.next_hop st.topo ~node:th.node ~dst:towards;
    visit st th stage st.sw_in.(th.node)
  end

let at_remote st th =
  match st.sync_units with
  | Some sus -> visit st th Su_remote sus.(th.dst)
  | None -> remote_memory st th

let at_home st th =
  match st.sync_units with
  | Some sus -> visit st th Su_response sus.(th.home)
  | None -> finish st th

(* The thread's continuation: the visit named by [th.stage] has been
   served; queue the next one.  Allocation-free, so every event of the
   DES is (apart from the floats boxed where they cross into the engine,
   the stations and the statistics). *)
let[@lattol.hot] advance st th =
  match th.stage with
  | Compute ->
    if Array.length th.script = 0 then
      th.dst <- Variate.discrete st.rng st.probs.(th.home);
    access st th
  | Local_memory | Su_response -> finish st th
  | Su_request -> send st th
  | Out_request | Hop_request ->
    hop st th Hop_request ~towards:th.dst at_remote
  | Su_remote -> remote_memory st th
  | Remote_memory ->
    th.clocks.trip_start <- Engine.now st.engine;
    th.node <- th.dst;
    visit st th Out_response st.sw_out.(th.dst)
  | Out_response | Hop_response ->
    hop st th Hop_response ~towards:th.home at_home

(* The span names and category of a stage's station. *)
let span_names = function
  | Compute -> ("ready-queue", "compute", "proc")
  | Local_memory | Remote_memory -> ("memory-queue", "memory-service", "mem")
  | Su_request | Su_remote | Su_response -> ("su-queue", "su-service", "sync")
  | Out_request | Hop_request | Out_response | Hop_response ->
    ("switch-queue", "network-transit", "net")

(* Make thread [tid] of node [home] and start its first activation.
   With a tracer, its continuation and start hook also emit each
   measured visit's queue span (when it waited) and service span on the
   thread's lane (pid = node, track = thread), so a thread's Perfetto
   track reads as the paper's latency decomposition. *)
let spawn st ~home ~tid script =
  let th =
    {
      home;
      tid;
      script;
      pos = 0;
      stage = Compute;
      dst = home;
      node = home;
      clocks = { trip_start = 0.; arrived = 0.; started = 0. };
      k = ignore;
      on_start = None;
    }
  in
  (match st.trace with
  | None -> th.k <- (fun () -> advance st th)
  | Some tr ->
    th.on_start <-
      Some
        (fun () ->
          let now = Engine.now st.engine and arrived = th.clocks.arrived in
          th.clocks.started <- now;
          if st.measuring && now > arrived then begin
            let queue, _, cat = span_names th.stage in
            Ev.emit tr ~pid:home ~cat ~track:tid ~name:queue ~t0:arrived
              (now -. arrived)
          end);
    th.k <-
      (fun () ->
        (if st.measuring then
           let _, service, cat = span_names th.stage in
           Ev.emit tr ~pid:home ~cat ~track:tid ~name:service
             ~t0:th.clocks.started
             (Engine.now st.engine -. th.clocks.started));
        advance st th));
  compute st th

let name_thread st home tid =
  Option.iter
    (fun tr ->
      if tid = 0 then Ev.name_process tr home (Printf.sprintf "node%d" home);
      Ev.name_track tr ~pid:home tid (Printf.sprintf "thread%d" tid))
    st.trace

let total_proc_busy st =
  Array.fold_left (fun acc s -> acc +. Station.utilization s) 0. st.procs

(* Launch threads, warm up, reset statistics: the shared preamble of the
   measurement runs.  [launch] populates the machine with threads. *)
let start ?launch config p =
  let st = build config p in
  let n = Params.num_processors p in
  (* Fault processes are seeded before the workload threads touch the
     shared PRNG so that a given seed yields the same fault trajectory
     regardless of the workload wiring. *)
  launch_faults st;
  (match launch with
  | Some f -> f st
  | None ->
    for home = 0 to n - 1 do
      for tid = 0 to p.Params.n_t - 1 do
        name_thread st home tid;
        spawn st ~home ~tid [||]
      done
    done);
  Engine.run ~until:config.warmup st.engine;
  Array.iter Station.reset_stats st.procs;
  Array.iter Station.reset_stats st.mems;
  Array.iter Station.reset_stats st.sw_in;
  Array.iter Station.reset_stats st.sw_out;
  Option.iter (Array.iter Station.reset_stats) st.sync_units;
  st.measuring <- true;
  st.measure_start <- Engine.now st.engine;
  st

(* Advance one batch of [batch_span] and record the per-batch throughput
   and utilization. *)
let run_batch st ~config ~n ~batch_span ~prev_completions ~prev_busy
    ~lambda_batches ~u_p_batches =
  let stop = Engine.now st.engine +. batch_span in
  Engine.run ~until:stop st.engine;
  (* Station.utilization is busy/elapsed since the post-warm-up reset;
     convert back to cumulative busy time to difference per batch. *)
  let elapsed = Engine.now st.engine -. config.warmup in
  let busy_now = total_proc_busy st *. elapsed in
  let d_completions = st.completions - !prev_completions in
  let d_busy = busy_now -. !prev_busy in
  prev_completions := st.completions;
  prev_busy := busy_now;
  Moments.add lambda_batches
    (float_of_int d_completions /. batch_span /. float_of_int n);
  Moments.add u_p_batches (d_busy /. batch_span /. float_of_int n);
  match config.on_batch with
  | None -> ()
  | Some f ->
    f ~events:(Engine.events_processed st.engine) ~time:(Engine.now st.engine)

let rec run ?(config = default_config) p =
  if config.warmup < 0. || config.horizon <= 0. then
    invalid_arg "Mms_des.run: warmup >= 0 and horizon > 0";
  if config.batches < 2 then invalid_arg "Mms_des.run: batches >= 2";
  let p = Params.validate_exn p in
  let st = start config p in
  let n = Params.num_processors p in
  let batch_span = config.horizon /. float_of_int config.batches in
  let lambda_batches = Moments.create () in
  let u_p_batches = Moments.create () in
  let prev_completions = ref 0 in
  let prev_busy = ref 0. in
  for _ = 1 to config.batches do
    run_batch st ~config ~n ~batch_span ~prev_completions ~prev_busy
      ~lambda_batches ~u_p_batches
  done;
  collect st p ~sim_time:config.horizon ~lambda_batches ~u_p_batches

(* Assemble the result record from a finished measurement run. *)
and collect st p ~sim_time ~lambda_batches ~u_p_batches =
  let n = Params.num_processors p in
  let lambda =
    float_of_int st.completions /. sim_time /. float_of_int n
  in
  let u_p =
    Array.fold_left (fun acc s -> acc +. Station.utilization s) 0. st.procs
    /. float_of_int n
  in
  let lambda_net =
    float_of_int st.remote_issued /. sim_time /. float_of_int n
  in
  let mem_response =
    Array.fold_left
      (fun acc s -> Moments.merge acc (Station.response_times s))
      (Moments.create ()) st.mems
  in
  let avg_util stations =
    Array.fold_left (fun acc s -> acc +. Station.utilization s) 0. stations
    /. float_of_int n
  in
  let avg_queue stations =
    Array.fold_left (fun acc s -> acc +. Station.mean_queue_length s) 0. stations
    /. float_of_int n
  in
  let measures =
    {
      Measures.u_p;
      lambda;
      lambda_net;
      s_obs =
        (if Moments.count st.trip_times = 0 then nan
         else Moments.mean st.trip_times);
      l_obs =
        (if Moments.count mem_response = 0 then 0.
         else Moments.mean mem_response);
      cycle_time = (if lambda > 0. then float_of_int p.Params.n_t /. lambda else 0.);
      util_memory = avg_util st.mems;
      util_switch_in = avg_util st.sw_in;
      util_switch_out = avg_util st.sw_out;
      util_sync =
        (match st.sync_units with Some sus -> avg_util sus | None -> 0.);
      su_obs =
        (match st.sync_units with
        | None -> 0.
        | Some sus ->
          let m =
            Array.fold_left
              (fun acc s -> Moments.merge acc (Station.response_times s))
              (Moments.create ()) sus
          in
          if Moments.count m = 0 then nan else 3. *. Moments.mean m);
      queue_processor = avg_queue st.procs;
      queue_memory = avg_queue st.mems;
      queue_network = avg_queue st.sw_in +. avg_queue st.sw_out;
      iterations = Engine.events_processed st.engine;
      converged = true;
    }
  in
  (match st.metrics with
  | None -> ()
  | Some reg ->
    let gauge ?labels ?help name v =
      Metrics.set_gauge (Metrics.gauge reg ?labels ?help name) v
    in
    let count ?help name v = Metrics.incr ~by:v (Metrics.counter reg ?help name) in
    gauge ~help:"processor utilization" "u_p" measures.Measures.u_p;
    gauge ~help:"thread activations per processor per time" "lambda"
      measures.Measures.lambda;
    gauge ~help:"remote access rate per processor" "lambda_net"
      measures.Measures.lambda_net;
    gauge ~help:"observed one-way network latency" "s_obs"
      measures.Measures.s_obs;
    gauge ~help:"observed memory residence time" "l_obs"
      measures.Measures.l_obs;
    gauge ~help:"measured horizon" "sim_time" sim_time;
    count ~help:"thread activations completed" "completions" st.completions;
    count ~help:"remote accesses issued" "remote_accesses" st.remote_issued;
    count ~help:"simulation events processed" "engine_events"
      (Engine.events_processed st.engine);
    let station_family stations =
      Array.iter
        (fun s ->
          let labels = [ ("station", Station.name s) ] in
          gauge ~labels ~help:"station utilization" "station_util"
            (Station.utilization s);
          gauge ~labels ~help:"time-averaged station queue length"
            "station_queue"
            (Station.mean_queue_length s))
        stations
    in
    station_family st.procs;
    station_family st.mems;
    station_family st.sw_in;
    station_family st.sw_out;
    Option.iter station_family st.sync_units);
  let ci m =
    match Lattol_stats.Confidence.interval m with
    | Some (mean, half) -> (mean, half)
    | None -> (nan, nan)
  in
  {
    measures;
    lambda_ci = ci lambda_batches;
    u_p_ci = ci u_p_batches;
    remote_trips = Moments.count st.trip_times;
    events = Engine.events_processed st.engine;
    sim_time;
    faults = fault_report st ~sim_time;
  }

let run_trace ?(config = default_config) ~base trace =
  if config.warmup < 0. || config.horizon <= 0. then
    invalid_arg "Mms_des.run_trace: warmup >= 0 and horizon > 0";
  if config.batches < 2 then invalid_arg "Mms_des.run_trace: batches >= 2";
  let p = Params.validate_exn base in
  let n = Params.num_processors p in
  if Trace.num_nodes trace <> n then
    Format.kasprintf invalid_arg "Mms_des.run_trace: trace covers %d nodes, machine has %d"
      (Trace.num_nodes trace) n;
  for node = 0 to n - 1 do
    for th = 0 to Trace.threads_at trace ~node - 1 do
      Array.iter
        (fun (s : Trace.step) ->
          if s.Trace.target < 0 || s.Trace.target >= n then
            Format.kasprintf invalid_arg
              "Mms_des.run_trace: target %d out of range" s.Trace.target)
        (Trace.script trace ~node ~thread:th)
    done
  done;
  let launch st =
    for home = 0 to n - 1 do
      for th = 0 to Trace.threads_at trace ~node:home - 1 do
        name_thread st home th;
        spawn st ~home ~tid:th (Trace.script trace ~node:home ~thread:th)
      done
    done
  in
  let st = start ~launch config p in
  let batch_span = config.horizon /. float_of_int config.batches in
  let lambda_batches = Moments.create () in
  let u_p_batches = Moments.create () in
  let prev_completions = ref 0 in
  let prev_busy = ref 0. in
  for _ = 1 to config.batches do
    run_batch st ~config ~n ~batch_span ~prev_completions ~prev_busy
      ~lambda_batches ~u_p_batches
  done;
  collect st p ~sim_time:config.horizon ~lambda_batches ~u_p_batches
