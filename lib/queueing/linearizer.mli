(** The Linearizer approximate MVA (Chandy & Neuse, 1982).

    Bard-Schweitzer ({!Amva}) assumes that removing one customer changes
    only that customer's own class proportionally.  Linearizer refines this
    with first-order correction terms

    {v F_{c,m}(j) = q_{c,m}(N - e_j) / N_c(N - e_j)  -  q_{c,m}(N) / N_c v}

    estimated by actually solving the [C] reduced-population systems and
    iterating.  Cost is roughly [(C + 1) x outer] Bard-Schweitzer solves;
    accuracy is typically several times better — the test suite holds it
    strictly closer to exact MVA than {!Amva} on its cross-checks. *)

val solve :
  ?options:Amva.options -> ?outer_iterations:int -> Network.t -> Solution.t
(** [solve network] runs the Linearizer ([outer_iterations] defaults to 3,
    which is the standard choice; [options] tune the inner fixed-point
    iterations, damping included; a tolerance that is not positive or a
    damping outside [[0, 1)], NaN included, raises [Invalid_argument]).
    The result's [iterations] counts all inner sweeps; [converged]
    reports the final core solve. *)
