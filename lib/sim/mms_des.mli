(** Direct discrete-event simulation of the multithreaded multiprocessor
    system.

    An independent implementation of the machine the analytical model
    abstracts (Section 8's cross-check role): every thread, memory access
    and switch hop is simulated explicitly on the same topology, routing
    and access pattern as the model.  Stations are FCFS single servers with
    exponential service; the paper's sensitivity experiment
    (deterministic memory service) is available through {!service_model}.

    Agreement between this simulator, the STPN simulator and the AMVA model
    on [lambda_net] and [S_obs] reproduces the paper's Figure 11.

    Each thread is one preallocated record whose single continuation,
    made when the thread starts, advances it a stage per station visit:
    compute, then the local memory or the remote trip (source SU,
    outbound switch, each inbound switch of the dimension-order route,
    walked hop by hop with {!Lattol_topology.Topology.next_hop}, the
    destination SU and memory, and back the same way).  With the
    {!Engine} and {!Station} allocation-free, an event allocates only the
    floats boxed where they cross a module boundary: about 11 minor words
    per event on the default 4x4.  Recorders ([trace], [metrics])
    allocate per record, and are reached only when attached. *)

open Lattol_core

type service_model =
  | Exponential
  | Deterministic

type config = {
  seed : int;
  rng : Lattol_stats.Prng.t option;
      (** randomness source; when set it supersedes [seed].  This is how
          replication fan-out hands each run an independent stream derived
          by {!Lattol_stats.Prng.split} from one root seed — the streams
          are fixed before any run starts, so results do not depend on how
          the runs are scheduled.  Default [None] (derive from [seed]). *)
  warmup : float;        (** simulated time discarded before measuring *)
  horizon : float;       (** measured simulated time *)
  batches : int;         (** batches for confidence intervals *)
  mem_model : service_model;
      (** memory service; processor, switch and sync-unit service is
          always exponential *)
  local_memory_priority : bool;
      (** serve accesses from the local processor before remote ones at
          each memory module (non-preemptive) — the EM-4 design choice the
          paper's Section 7 discusses for machines with fast networks *)
  faults : Lattol_robust.Fault_plan.t;
      (** fault-injection plan: independent exponential failure-repair
          processes per switch / memory module.  A full outage
          ([degrade = 0]) seizes the station's servers for the repair
          duration (non-preemptive, so a service in progress completes
          first); partial degradation slows the station by the [degrade]
          factor.  Default {!Lattol_robust.Fault_plan.none}. *)
  trace : Lattol_obs.Events.t option;
      (** span tracer: when set, every measured thread activity — compute
          bursts, queueing at each station, switch hops, memory service,
          whole one-way network trips — is emitted as a span on the
          thread's lane (pid = node, track = thread).  Warm-up activity is
          not traced.  Default [None]. *)
  metrics : Lattol_obs.Metrics.t option;
      (** metrics registry: when set, the run registers its headline
          measures as gauges, per-station utilization / queue-length series
          (labeled by station name), completion / event counters and a
          trip-time histogram.  Use a fresh registry per run — series
          names would otherwise collide.  Default [None]. *)
  on_batch : (events:int -> time:float -> unit) option;
      (** heartbeat hook, invoked after every measurement batch with the
          cumulative engine event count and the current virtual time.  It
          observes the run (live progress reporting) and must not perturb
          it: keep it cheap and side-effect-free with respect to the
          model.  Default [None]. *)
}

val default_config : config
(** seed 1, warm-up 1_000, horizon 100_000 (the paper's run length),
    20 batches, exponential everywhere, no memory priority, no faults. *)

type fault_stats = {
  component : string;       (** ["switch"] or ["memory"] *)
  stations : int;           (** stations the process was attached to *)
  failures : int;           (** failures inside the measuring window *)
  downtime : float;
      (** total nominal outage time inside the window, summed over
          stations (outages still open at the end are charged up to the
          final clock) *)
  unavailability : float;   (** downtime / (stations x measured time) *)
  mean_outage : float;      (** downtime / failures; [nan] if none *)
}

type result = {
  measures : Measures.t;      (** same record the analytical model produces *)
  lambda_ci : float * float;  (** batch-means 95% CI on [lambda] *)
  u_p_ci : float * float;     (** batch-means 95% CI on [U_p] *)
  remote_trips : int;         (** one-way network trips measured *)
  events : int;               (** simulation events processed *)
  sim_time : float;           (** measured horizon *)
  faults : fault_stats list;  (** one entry per faulty component class *)
}

val pp_fault_stats : Format.formatter -> fault_stats -> unit

val run : ?config:config -> Params.t -> result
(** Simulate the machine described by the parameters.  Deterministic for a
    fixed seed. *)

val run_trace : ?config:config -> base:Params.t -> Trace.t -> result
(** Replay a {!Trace} on the machine described by [base] (which supplies
    topology, service times and ports; its [n_t], [runlength] and access
    pattern are superseded by the scripts).  Compute times come from the
    trace verbatim; memory and switch services still follow [config]'s
    distributions. *)
