(** Thread-partitioning analysis (Sections 5 and 6 of the paper).

    A compiler splitting a do-all loop must pick how many threads to expose
    ([n_t]) and how much work to give each (the runlength [R]) for a fixed
    amount of exposed computation [n_t x R].  This module sweeps the
    factorizations of that work budget and reports utilization and the
    tolerance indices for each, supporting the paper's conclusion that —
    past [n_t > 1] — a few long threads tolerate latency better than many
    short ones. *)

type point = {
  n_t : int;
  runlength : float;
  work : float;                    (** [n_t x R] *)
  measures : Measures.t;
  tol_network : float;
  tol_memory : float;
}

val evaluate : Params.t -> n_t:int -> runlength:float -> point
(** One partitioning choice: the base parameters with [n_t] and [R]
    replaced. *)

val sweep : Params.t -> work:float -> n_ts:int list -> point list
(** Points for each [n_t], with [R = work / n_t].  [n_t] values that do not
    divide into a positive runlength are rejected. *)

val best : point list -> point
(** The point with the highest processor utilization (ties broken towards
    fewer threads, the cheaper choice).  Raises [Invalid_argument] on an
    empty list. *)

val pp_point : Format.formatter -> point -> unit
