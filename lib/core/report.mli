(** One-stop analysis report for a machine/workload configuration.

    Combines everything the library computes — solved measures, both
    tolerance indices with zones, the closed-form bottleneck analysis, the
    open-model view at the operating point, and the sensitivity ranking —
    and derives the actionable summary the paper promises its metric
    enables: which subsystem limits this configuration and which knob to
    turn first. *)

type verdict =
  | Network_bound   (** tol_network is the lowest index *)
  | Memory_bound    (** tol_memory is the lowest index *)
  | Compute_bound   (** both latencies tolerated: the processor is the limit *)

type t = {
  params : Params.t;
  measures : Measures.t;
  network : Tolerance.report;
  memory : Tolerance.report;
  bottleneck : Bottleneck.t;
  open_view : Bottleneck.open_view;  (** at the solved operating rate *)
  sensitivities : Sensitivity.derivative list;  (** ranked *)
  verdict : verdict;
  recommendations : string list;
      (** short, derived suggestions (raise R, improve locality, add
          memory ports, ...) *)
}

val analyze : ?solver:Mms.solver -> Params.t -> t

val pp : Format.formatter -> t -> unit
(** Multi-section human-readable report (what the CLI's [report] command
    prints). *)
