(** Heterogeneous workloads: several thread kinds per processor.

    The paper's SPMD workload gives every thread the same runlength and
    access behaviour.  Real nodes mix kinds — e.g. latency-sensitive
    interactive threads besides throughput-oriented batch threads — and
    the multi-class machinery underneath ({!Lattol_queueing.Amva}) handles
    that directly: each (processor, kind) pair becomes its own customer
    class.  This module builds and solves such machines and reports
    per-kind measures, answering questions like "how much does adding
    batch threads cost the interactive ones' tolerance?".

    Caveat: with kind-dependent runlengths the processor is an FCFS
    station with class-dependent service, so the product-form exactness
    guarantee is lost; the solvers use the expected-backlog approximation
    (see {!Lattol_queueing.Mva}). *)

open Lattol_topology

type group = {
  name : string;
  count : int;             (** threads of this kind on every processor *)
  runlength : float;
  p_remote : float;
  pattern : Access.pattern;
}

type group_measures = {
  group : group;
  lambda : float;          (** per-processor activation rate of this kind *)
  occupancy : float;       (** processor time fraction this kind consumes *)
  lambda_net : float;
  s_obs : float;           (** observed one-way network latency, [nan] if local *)
  l_obs : float;
  cycle_time : float;
}

type t = {
  groups : group_measures list;
  u_p : float;             (** total processor utilization *)
  converged : bool;
}

val solve : base:Params.t -> group list -> t
(** Solve the machine described by [base] (topology, [L], [S], ports, SU)
    populated with the given kinds on every processor, by AMVA.  [base]'s own
    [n_t]/[runlength]/[p_remote]/[pattern] are ignored.  Raises
    [Invalid_argument] on empty or invalid groups, or on a non-torus
    machine (the expansion relies on node symmetry only for reporting;
    any torus works). *)

val pp_group : Format.formatter -> group_measures -> unit
