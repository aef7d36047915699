(** Student-t confidence intervals.

    Steady-state simulation outputs are correlated, so raw per-sample
    confidence intervals are too narrow.  The simulators group their
    observations into batches whose means are approximately independent
    and build the interval over those means — the standard batch-means
    method for the kind of long-run latency/throughput estimates in the
    paper's Section 8. *)

val t_quantile : df:int -> float
(** Two-sided 95% Student-t critical value for [df] degrees of freedom
    (table lookup for small df, normal approximation beyond). *)

val interval : Moments.t -> (float * float) option
(** [interval m] is the symmetric 95% confidence half-interval around the
    mean, as [(mean, half_width)]; [None] with fewer than two samples. *)
