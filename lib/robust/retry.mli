(** Bounded retry policies and per-task deadlines.

    The home of the execution engine's wall-clock machinery: [lib/exec]
    is scoped deterministic (the [det-wallclock] lint rule), so backoff
    timers and deadline checks live here, alongside the supervisor's
    time budgets.  Clocks decide only {e when} work runs — never what it
    computes.

    {!default_classify} separates {e transient} failures (injected chaos,
    expired deadlines, flaky I/O — worth retrying) from {e fatal} ones
    (deterministic solver errors — retrying only repeats them); {!Pool}
    consumes it and a {!policy} for task-level fault containment. *)

type classification = Transient | Fatal

exception Deadline_exceeded
(** Raised (cooperatively) by a task whose {!deadline} has expired;
    transient under {!default_classify}. *)

type policy = {
  max_attempts : int;  (** total attempts, including the first *)
  base_delay : float;  (** backoff before attempt 2, seconds *)
  max_delay : float;  (** cap on the exponential rung *)
  jitter : float;
      (** extra fraction of the rung added deterministically per
          (salt, attempt) — desynchronizes concurrent retriers *)
}

val default_classify : exn -> classification
(** The classification every retry uses: {!Chaos.Injected_fault},
    {!Deadline_exceeded}, [Sys_error] and [Unix_error] are transient;
    everything else fatal. *)

val policy :
  ?max_attempts:int -> ?base_delay:float -> ?max_delay:float ->
  ?jitter:float -> unit -> policy
(** Validating constructor; defaults: 3 attempts, 50 ms doubling to a 1 s
    cap, jitter 0.5. *)

val delay : policy -> attempt:int -> salt:int -> float
(** Backoff (seconds) after failed [attempt] (1-based):
    [min max_delay (base_delay * 2^(attempt-1))] plus deterministic
    jitter keyed by [(salt, attempt)]. *)

val sleep : float -> unit

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]) — exported so deterministic
    layers can timestamp {e bookkeeping} (e.g. cache-janitor age checks)
    without reading clocks themselves. *)

type deadline

val start : timeout:float -> deadline
(** A deadline [timeout] seconds from now. *)

val expired : deadline -> bool

val check : deadline -> unit
(** Raise {!Deadline_exceeded} if [expired]. *)
