(** Execution traces: scripted thread behaviour for the simulator.

    The analytical model and the default simulator describe accesses
    {e statistically} (runlength distribution, access-probability matrix).
    A trace pins them down exactly: each thread carries a script of
    (compute time, target module) steps generated from a concrete program —
    here, the do-all loop and grid workloads of {!Lattol_core.Workload} with
    an owner-computes schedule and round-robin iteration assignment.
    Replaying a trace ({!Mms_des.run_trace}) removes the Markovian
    abstraction entirely, closing the chain
    program -> access pattern -> model against an execution-faithful
    simulation. *)

open Lattol_core

type step = {
  compute : float;              (** processor time before the access *)
  target : Lattol_topology.Topology.node;  (** memory module accessed *)
}

type t

val make : steps:step array array array -> t
(** [steps.(node).(thread)] is that thread's script, replayed cyclically.
    Every node needs at least one thread and every thread at least one
    step; targets are validated against the machine at replay time. *)

val num_nodes : t -> int

val threads_at : t -> node:int -> int

val script : t -> node:int -> thread:int -> step array

val total_steps : t -> int

val of_loop : base:Params.t -> Workload.loop -> t
(** Owner-computes schedule for the 1-D do-all loop: iteration [e] runs on
    [owner e], its stencil accesses become steps of
    [work_per_access] compute each; a node's iterations are dealt
    round-robin over [base]'s [n_t] threads.  Nodes that own no
    iterations get one idle self-access step. *)

val of_grid : base:Params.t -> Workload.Grid.t -> t
(** Same for the 2-D grid workload. *)

val access_fractions : t -> node:int -> float array
(** Empirical per-target access fractions of one node's scripts — by
    construction these match the corresponding
    {!Lattol_core.Workload.access_matrix} row. *)
