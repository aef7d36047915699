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

type state = {
  engine : Engine.t;
  topo : Topology.t;
  probs : float array array;     (* access matrix rows *)
  procs : unit Station.t array;  (* payloads are unit; flow lives in closures *)
  mems : unit Station.t array;
  sw_in : unit Station.t array;
  sw_out : unit Station.t array;
  sync_units : unit Station.t array option;
      (* EARTH-style SUs; None on the paper's plain PE *)
  trip_times : Moments.t;        (* one-way network trips *)
  rng : Prng.t;
  mutable completions : int;     (* thread activations finished (measured) *)
  mutable remote_issued : int;
  mutable measuring : bool;
  mutable measure_start : float; (* clock value when measuring began *)
  mem_priority : bool;
  fault_targets :
    (Fault_plan.process * fault_acc * unit Station.t array) list;
  trace : Ev.t option;
  metrics : Metrics.t option;
  trip_hist : Metrics.histogram option; (* trip-time distribution series *)
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
    mem_priority = config.local_memory_priority;
    fault_targets;
    trace = config.trace;
    metrics = config.metrics;
    trip_hist =
      Option.map
        (fun m ->
          Metrics.histogram m ~help:"one-way network trip times" ~lo:0.
            ~hi:(50. *. Float.max 1. p.Params.s_switch)
            ~bins:64 "trip_time")
        config.metrics;
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
          Station.submit ~duration:ttr station () (fun () -> ())
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
    (fun ((_ : Fault_plan.process), acc, (_ : unit Station.t array)) ->
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

(* Submit work to [station] on behalf of thread [tid] of node [pid],
   emitting a queue span (when any waiting occurred) and a service span to
   the tracer.  Spans are attributed to the issuing thread's lane, not the
   station's, so a thread's Perfetto track reads as the paper's latency
   decomposition.  Without a tracer this is exactly [Station.submit]. *)
let tsubmit ?priority ?duration st ~pid ~tid ~queue ~service ~cat station k =
  match st.trace with
  | None -> Station.submit ?priority ?duration station () k
  | Some tr ->
    let arrived = Engine.now st.engine in
    let started = ref arrived in
    Station.submit ?priority ?duration
      ~on_start:(fun () ->
        let now = Engine.now st.engine in
        started := now;
        if st.measuring && now > arrived then
          Ev.emit tr ~pid ~cat ~track:tid ~name:queue ~t0:arrived
            (now -. arrived))
      station ()
      (fun () ->
        (if st.measuring then
           let now = Engine.now st.engine in
           Ev.emit tr ~pid ~cat ~track:tid ~name:service ~t0:!started
             (now -. !started));
        k ())

(* Walk a message through the inbound switches along [route], then continue. *)
let rec traverse st ~pid ~tid route k =
  match route with
  | [] -> k ()
  | hop :: rest ->
    tsubmit st ~pid ~tid ~queue:"switch-queue" ~service:"network-transit"
      ~cat:"net" st.sw_in.(hop)
      (fun () -> traverse st ~pid ~tid rest k)

(* One finished one-way trip: feeds the [s_obs] estimator, the trip-time
   histogram and — as a span covering the whole trip — the tracer, where
   it overlays the switch spans it is made of. *)
let record_trip st ~pid ~tid t0 =
  if st.measuring then begin
    let dur = Engine.now st.engine -. t0 in
    Moments.add st.trip_times dur;
    Option.iter (fun h -> Metrics.record h dur) st.trip_hist;
    Option.iter
      (fun tr ->
        Ev.emit tr ~pid ~cat:"net" ~track:tid ~name:"network-trip" ~t0 dur)
      st.trace
  end

(* Pass through the node's synchronization unit if the machine has one. *)
let via_su st ~pid ~tid node k =
  match st.sync_units with
  | None -> k ()
  | Some sus ->
    tsubmit st ~pid ~tid ~queue:"su-queue" ~service:"su-service" ~cat:"sync"
      sus.(node) k

(* Perform one memory access from [home] to [dst] and call [k] when the
   response is back at the thread.  Remote accesses are injected at the
   source SU, handled at the destination SU before the memory, and
   completed at the source SU (no-ops without SUs). *)
let access st ~tid home dst k =
  let pid = home in
  if dst = home then
    (* local accesses use the default (highest) priority level *)
    tsubmit st ~pid ~tid ~queue:"memory-queue" ~service:"memory-service"
      ~cat:"mem" st.mems.(home) k
  else begin
    if st.measuring then st.remote_issued <- st.remote_issued + 1;
    via_su st ~pid ~tid home (fun () ->
        let t0 = Engine.now st.engine in
        tsubmit st ~pid ~tid ~queue:"switch-queue" ~service:"network-transit"
          ~cat:"net" st.sw_out.(home)
          (fun () ->
            traverse st ~pid ~tid (Topology.route st.topo ~src:home ~dst)
              (fun () ->
                record_trip st ~pid ~tid t0;
                via_su st ~pid ~tid dst (fun () ->
                    let priority = if st.mem_priority then 1 else 0 in
                    tsubmit ~priority st ~pid ~tid ~queue:"memory-queue"
                      ~service:"memory-service" ~cat:"mem" st.mems.(dst)
                      (fun () ->
                        let t1 = Engine.now st.engine in
                        tsubmit st ~pid ~tid ~queue:"switch-queue"
                          ~service:"network-transit" ~cat:"net"
                          st.sw_out.(dst)
                          (fun () ->
                            traverse st ~pid ~tid
                              (Topology.route st.topo ~src:dst ~dst:home)
                              (fun () ->
                                record_trip st ~pid ~tid t1;
                                via_su st ~pid ~tid home k)))))))
  end

let finish_step st =
  if st.measuring then st.completions <- st.completions + 1

(* Statistical thread: exponential compute drawn by the processor station,
   destination sampled from the access matrix. *)
let rec thread_cycle st home tid =
  tsubmit st ~pid:home ~tid ~queue:"ready-queue" ~service:"compute"
    ~cat:"proc" st.procs.(home)
    (fun () ->
      let dst = Variate.discrete st.rng st.probs.(home) in
      access st ~tid home dst (fun () ->
          finish_step st;
          thread_cycle st home tid))

(* Scripted thread: compute times and targets replayed cyclically from a
   trace. *)
let rec trace_cycle st home tid script pos =
  let step = script.(!pos) in
  pos := (!pos + 1) mod Array.length script;
  tsubmit ~duration:step.Trace.compute st ~pid:home ~tid ~queue:"ready-queue"
    ~service:"compute" ~cat:"proc" st.procs.(home)
    (fun () ->
      access st ~tid home step.Trace.target (fun () ->
          finish_step st;
          trace_cycle st home tid script pos))

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
        thread_cycle st home tid
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
        trace_cycle st home th (Trace.script trace ~node:home ~thread:th)
          (ref 0)
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
