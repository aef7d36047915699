(** Discrete-event simulation of arbitrary closed queueing networks.

    {!Mms_des} simulates the paper's machine; this module simulates any
    {!Lattol_queueing.Network.t} — the same object the MVA solvers take —
    so solver and simulator can be compared on arbitrary topologies, not
    just the MMS.  Routing is generated from the visit ratios
    ([p_{m} proportional to v_m], the same independence construction as
    {!Lattol_markov.Qn_ctmc}), which preserves the product-form stationary
    law the solvers compute.

    Stations honour their kinds: FCFS single server, [Multi_server c],
    or delay (infinite server); service times are exponential with the
    class's mean at the station (the solvers' stochastic assumptions). *)

open Lattol_queueing

type result = {
  solution : Solution.t;
      (** measured throughputs / residences / queues in the solver's own
          result type, so every {!Solution} accessor works on simulated
          data ([iterations] carries the event count, [converged] is
          true) *)
  events : int;
  sim_time : float;
}

val run :
  ?warmup:float -> ?horizon:float -> ?trace:Lattol_obs.Events.t ->
  Network.t -> result
(** Simulate the network with seed 1 (defaults: warm-up 1_000, horizon
    100_000).
    Queue-length estimates are time-averaged after warm-up; residence
    times come from Little's law on the measured rates.  With [trace],
    every measured visit is emitted as spans on the customer's lane
    (pid = class, track = customer): a ["<station>:queue"] span when the
    customer waited, then a service (or delay-station sojourn) span named
    after the station. *)
