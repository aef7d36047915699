(** [Domain]-based work pool over a crew of parked worker domains, with
    deterministic result ordering, batched task submission, per-worker
    scratch state, and per-task fault containment.

    [map ~jobs f items] evaluates [f] on every element of [items] using up
    to [jobs] domains (the calling domain included) and returns the results
    in input order — the scheduling of the workers never leaks into the
    output.  Work is claimed from a shared batched queue with guided chunk
    sizing (large claims early, single items at the tail), so one queue
    operation is amortized over many tasks and skewed task costs still
    balance.

    The effective pool size is additionally capped at
    {!available_cores}[ ()]: spawning more domains than cores cannot speed
    up CPU-bound work and measurably slows it down (every minor GC is a
    stop-the-world synchronization across all domains, and a descheduled
    sibling turns each one into an OS scheduling round-trip).  Tasks that
    {e park} rather than compute — sleeps, I/O waits — genuinely overlap
    on any core count; pass [~oversubscribe:true] for those.

    The worker domains outlive a map.  A parallel map hires idle members
    of a process-wide crew, spawning a domain only when none is idle,
    runs worker 0 in the calling domain, and returns once every member
    it hired has finished and is parked again.  It waits for nothing
    else, so nested and concurrent maps cannot deadlock.  Handing work to
    a parked domain costs about a tenth of a spawn and join, and under
    OCaml 5.1 a terminated domain's large blocks return to the GC late,
    so a domain per map also grew the heap.  A parked domain still takes
    part in every stop-the-world minor collection, which slows an
    allocation-heavy serial loop beside it: so a map whose effective
    pool is one first retires and joins the idle members.  A member busy
    in another caller's map is never touched.

    [f] runs concurrently with itself: it must not touch shared mutable
    state unless that state synchronizes itself (the {!Cache} does).  If
    any call raises a {e fatal} exception, remaining chunks are abandoned
    and the first exception is re-raised in the caller once every hired
    member is idle again — the default for every exception when no
    [retry]/[deadline]/[on_poison] is given.  An exception that escapes
    a worker outside any task (from [local] or a [monitor] hook) is
    re-raised before it, the caller's own first.

    With a [retry] policy, failures that
    {!Lattol_robust.Retry.default_classify} deems transient are
    re-attempted with exponential backoff and deterministic jitter; a
    [deadline] (seconds, per attempt) arms cooperative cancellation
    through {!ctx}; and [on_poison], when present, substitutes a result
    for a task whose transient failures outlast the policy instead of
    sinking the run. *)

val available_cores : unit -> int
(** [Domain.recommended_domain_count ()]: the pool size above which more
    jobs cannot help CPU-bound work. *)

val effective_jobs : ?oversubscribe:bool -> jobs:int -> items:int -> unit -> int
(** The pool size a map would actually use:
    [min jobs items] capped at {!available_cores} unless [oversubscribe].
    Raises [Invalid_argument] when [jobs < 1]. *)

type monitor = {
  on_start : jobs:int -> items:int -> unit;
      (** once, before any work: effective pool size and item count *)
  on_worker : worker:int -> busy:bool -> unit;
      (** worker [worker] (0 = the caller) enters ([true]) / leaves
          ([false]) the work loop *)
  on_claim : remaining:int -> unit;
      (** a chunk was claimed; [remaining] items are still unclaimed *)
  on_item : unit -> unit;  (** one item finished *)
  on_task : worker:int -> busy:bool -> unit;
      (** worker [worker] starts ([true]) / finishes ([false]) executing
          one task — the busy edge inside the loop, from which per-worker
          busy/idle time accumulates (idle = in the loop, not in a task:
          queue starvation) *)
}
(** Observation hooks: the pool's only instrumentation besides the causal
    [trace] of {!map_local}.  Live progress reporting
    ([Lattol_serve.Progress.pool_monitor]) and the runtime profiler (a
    monitor whose hooks write {!Lattol_obs.Runtime_profile}'s worker and
    task spans and queue depth) both attach here, alone or combined.
    Callbacks fire concurrently from every pool domain, each on the
    domain it describes: they must be domain-safe, cheap, and must not
    raise.  They observe scheduling only — results and their order are
    unaffected (the byte-identity guarantee stands). *)

type ctx = {
  attempt : int;  (** 1-based attempt number for this item *)
  should_stop : unit -> bool;
      (** cooperative cancellation: [true] once this attempt's deadline
          has expired or a sibling task failed fatally.  Long-running
          tasks should poll it and raise
          {!Lattol_robust.Retry.Deadline_exceeded} (transient, so the
          retry/poison machinery takes over) *)
  trace : Lattol_obs.Trace_ctx.ctx;
      (** the submitting context for this item (from the map's [trace]
          lookup), under which the task records its own spans;
          {!Lattol_obs.Trace_ctx.disabled} when the map is untraced *)
}

type poisoned = {
  index : int;  (** the input item's index *)
  attempts : int;  (** attempts consumed (= the policy's max) *)
  error : string;  (** [Printexc.to_string] of the last failure *)
}
(** Record handed to [on_poison] when a task exhausts its transient
    retries: the caller chooses the substitute result (an error row, a
    sentinel) and the rest of the map proceeds. *)

val map :
  ?chunk:int -> ?oversubscribe:bool -> ?monitor:monitor -> jobs:int ->
  ('a -> 'b) -> 'a array -> 'b array
(** [chunk > 0] forces a fixed claim granularity; otherwise claims are
    guided (roughly [remaining / (2 * workers)] each, down to single
    items at the tail).  [oversubscribe] lifts the {!available_cores}
    cap — only useful for tasks that park rather than compute.
    [jobs < 1] is rejected; an effective pool of 1 retires the crew's
    idle members, then runs in the calling domain with no queue at all
    (the [monitor] still sees a one-worker pool).  Every exception is
    fatal; {!map_ctx} and {!map_local} add fault containment. *)

val map_ctx :
  ?chunk:int -> ?oversubscribe:bool -> ?monitor:monitor ->
  ?retry:Lattol_robust.Retry.policy -> ?deadline:float ->
  ?on_poison:(poisoned -> 'b) -> jobs:int -> (ctx -> 'a -> 'b) -> 'a array ->
  'b array
(** {!map} with the task's {!ctx} exposed, for tasks that poll
    [should_stop] or vary behavior by [attempt], and with fault
    containment.  [deadline] is per attempt; without [on_poison],
    exhausted transient failures propagate like fatal ones. *)

val map_local :
  ?chunk:int -> ?oversubscribe:bool -> ?monitor:monitor ->
  ?retry:Lattol_robust.Retry.policy -> ?deadline:float ->
  ?on_poison:('l -> poisoned -> 'b) ->
  ?trace:(int -> Lattol_obs.Trace_ctx.ctx) ->
  jobs:int -> local:(int -> 'l) ->
  ?flush:('l -> unit) -> ('l -> ctx -> 'a -> 'b) -> 'a array ->
  'b array * 'l list
(** {!map_ctx} with per-worker scratch state.  Each worker calls
    [local w] exactly once, in its own domain, before claiming any work
    (so the state lives in that domain's minor heap); every task on that
    worker receives the same ['l], and so does [on_poison] for a task
    poisoned there.  [flush] runs at the end of every successfully
    completed claimed chunk, and after every item on the serial path
    (where each item is its own chunk) — the batching point for
    worker-side side effects such as checkpoint appends; a raising
    [flush] is a pool failure.  Returns the locals in worker order
    (index 0 = the calling domain), so the caller can merge per-worker
    accumulators deterministically.

    [trace item_index] supplies the submitting causal context for each
    item (typically the item's open point span).  A traced map records,
    per item, a ["queue-wait"] span — submission to first execution —
    and, per claimed chunk, a ["chunk-claim"] span hung off the first
    claimed item, inside that item's queue-wait
    ({!Lattol_obs.Trace_report} counts the claim once).  Without [trace]
    the pool reads no clock at all, so the untraced path stays
    byte-identical {e and} cost-identical.

    Determinism caveat: results must not depend on ['l] contents that
    vary with scheduling — locals are for scratch buffers, batching and
    statistics, not for data flow between tasks. *)

val map_list :
  ?chunk:int -> ?oversubscribe:bool -> jobs:int -> ('a -> 'b) -> 'a list ->
  'b list
(** List variant of {!map}. *)
