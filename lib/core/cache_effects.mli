(** Cache contention among threads: the effect the paper set aside.

    Footnote 4 of the paper notes (citing Agarwal and Thekkath et al.) that
    multithreading can shrink the runlength itself — threads share the
    processor cache, so more threads mean more conflict misses, shorter
    bursts between long-latency accesses, and possibly more remote traffic —
    and explicitly declines to model it.  This module closes that gap with
    the standard working-set abstraction:

    - each thread touches a working set of [working_set] cache lines;
    - the [cache_lines] available per processor are shared, so with [n_t]
      threads a fraction [min 1 (cache / (n_t * ws))] of a thread's
      accesses hit;
    - a hit costs nothing here (it is part of the computation); a miss ends
      the run, so the runlength between long-latency operations is
      [hits-per-miss + 1] memory operations of [cycles_per_access] cycles.

    The resulting [R(n_t)] (and optionally a remote fraction that grows as
    capacity misses spill to other nodes) feeds straight into {!Params};
    {!sweep} reruns the paper's n_t analysis under it.  The qualitative
    change: utilization is no longer monotone in [n_t] — there is an
    interior optimum, which is what the cited measurements show. *)

type t = {
  cache_lines : int;        (** cache capacity per processor, in lines *)
  working_set : int;        (** lines a single thread keeps live *)
  miss_rate_floor : float;
      (** irreducible miss fraction even when a thread's working set fits
          (cold/coherence misses); in (0, 1] *)
  cycles_per_access : float;  (** computation cycles per cache access *)
}

val default : t
(** 1024 lines, working set 256, floor 0.05, 1 cycle per access: a cache
    that holds four threads comfortably. *)

val validate : t -> (t, string) result

val hit_rate : t -> n_t:int -> float
(** Fraction of accesses served by the cache when [n_t] threads share it. *)

val runlength : t -> n_t:int -> float
(** Mean computation cycles between long-latency operations:
    [cycles_per_access / miss_rate].  Decreases as threads crowd the
    cache. *)

type point = {
  n_t : int;
  effective_runlength : float;
  hit_rate : float;
  measures : Measures.t;
  tol_network : float;
}

val sweep : t -> base:Params.t -> n_ts:int list -> point list

val best_thread_count : t -> base:Params.t -> max_threads:int -> point
(** The utilization-maximizing thread count in [1 .. max_threads] — interior
    when cache contention bites, unlike the contention-free model where
    more threads never hurt. *)

val pp_point : Format.formatter -> point -> unit
