(** The multithreaded multiprocessor system as a stochastic timed Petri net
    (the paper's Section 8 validation model).

    Each processor is a single-server timed transition draining its ready
    pool; memory modules and switches are single servers shared by many
    flows, modelled with one idle token and immediate grab / timed serve
    transition pairs per flow stage; remote accesses walk per-(source,
    destination) chains of stage places along the dimension-order route and
    back.  Immediate transitions resolve the local/remote routing choice
    with the access-pattern probabilities.

    Two uses: token-game simulation ({!run}, cross-checking the AMVA
    model — Figure 11), and exact CTMC solution on tiny configurations
    ({!exact}) through {!Reachability}. *)

open Lattol_core

type layout = {
  net : Petri.t;
  params : Params.t;
  exec : Petri.transition array;         (** per node: the processor server *)
  ready : Petri.place array;             (** per node: the thread ready pool *)
  route_remote : Petri.transition list;  (** remote routing immediates *)
  thread_places : Petri.place list array;
      (** per node: every place a thread of that node can occupy — each
          node's list carries a P-invariant of value [n_t] *)
  mem_idle : Petri.place array;
  out_idle : Petri.place array;
  in_idle : Petri.place array;
  req_stage_places : Petri.place list;   (** request-direction switch stages *)
  resp_stage_places : Petri.place list;  (** response-direction switch stages *)
  mem_queue_places : Petri.place list;   (** memory queue + in-service, all flows *)
}

type memory_distribution =
  | Exponential_memory
  | Deterministic_memory
      (** the paper's Section 8 sensitivity check: deterministic [L] moved
          [S_obs] by less than 10% *)

val build :
  ?memory:memory_distribution -> ?faults:Lattol_robust.Fault_plan.t ->
  Params.t -> layout
(** Construct the net.  Requires [runlength > 0], [l_mem > 0] and
    [s_switch > 0] (zero-delay subsystems have no STPN counterpart), and
    [n_t >= 1].  [memory] (default exponential) selects the memory service
    distribution.  [faults] applies the quasi-static view of a fault plan
    ({!Lattol_robust.Fault_plan.degrade_params}): switch and memory
    service times are inflated to their availability-weighted means, so
    the net models the long-run average of the degraded machine rather
    than individual outages (the DES injects those exactly);
    [layout.params] carries the degraded service times.

    A built layout is immutable: any number of {!run_layout} calls, on
    any domains, may share it. *)

type result = {
  measures : Measures.t;     (** same record as the model and the DES *)
  stats : Simulation.stats;  (** raw per-place / per-transition statistics *)
  layout : layout;
}

val run_layout :
  ?seed:int -> ?warmup:float -> ?horizon:float -> layout -> result
(** Token-game simulation of a built net (default warm-up 1_000, horizon
    100_000 — the paper's run length).  Replications share one layout
    this way instead of building the net once each. *)

val run :
  ?seed:int -> ?warmup:float -> ?horizon:float ->
  ?memory:memory_distribution ->
  ?faults:Lattol_robust.Fault_plan.t -> Params.t -> result
(** {!build} then {!run_layout}. *)

val exact : Params.t -> Measures.t
(** Exact stationary solution via the tangible reachability graph; only
    feasible for very small [k]/[n_t].  Raises {!Reachability.Unbounded}
    beyond 200_000 tangible states. *)
