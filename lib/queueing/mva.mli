(** Exact Mean Value Analysis (Reiser & Lavenberg 1980).

    Computes the exact product-form solution of a closed multi-class network
    by recursing over all population vectors [0 <= n <= N].  The state count
    is [prod_c (N_c + 1)], so this is the ground-truth solver for small
    configurations — the role the paper assigns to "state space techniques" —
    against which the approximate solver {!Amva} is validated.

    For FCFS stations with class-dependent service times the waiting-time
    step uses the expected-backlog form
    [w_{c,m} = s_{c,m} + sum_j s_{j,m} q_{j,m}(N - e_c)], which coincides
    with the classical arrival-theorem formula when service times are
    class-independent (the exactness condition).  [Multi_server] stations
    are handled by the conditional-wait approximation and are therefore
    not exact here — use {!Convolution} (single class) or
    {!Lattol_markov.Qn_ctmc} for exact multiserver answers. *)

val solve : Network.t -> Solution.t
(** [solve network] is the exact solution.  Raises [Invalid_argument] if the
    population-vector lattice exceeds 2_000_000 points. *)

val num_states : Network.t -> int
(** Size of the population lattice the recursion would traverse. *)
