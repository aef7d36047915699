(* Domain-based work pool over a crew of parked worker domains.

   Work is distributed through a batched queue (an atomic cursor over the
   input array, claimed a chunk of indices at a time) and every result is
   written back to its input's slot, so the output order never depends on
   the scheduling of the domains.  That determinism is the point: callers
   format results after the map, and `--jobs 8` must be byte-identical to
   `--jobs 1`.

   Pool sizing respects the machine: requesting more domains than cores
   only adds stop-the-world GC synchronization (on a 1-core container,
   two domains time-slice the core and every minor collection waits for
   the descheduled sibling to reach a safepoint — measured at 2x SLOWER
   than serial on the replication suite).  So the effective pool size is
   capped at [available_cores ()] unless the caller opts into
   [oversubscribe] — which is the right call only for tasks that park
   (sleep, I/O) rather than burn CPU, where extra domains genuinely
   overlap latency even on one core.

   Claim sizing is guided when the caller does not force a [chunk]: each
   claim takes roughly half the remaining work divided by the worker
   count, so early claims are large (one queue operation amortized over
   many tasks) and the tail degrades to single items (skewed grids still
   balance).

   Fault containment is per task: a [retry] policy re-runs transient
   failures with backoff (deterministic solver errors stay fatal and
   propagate first-exception, as before), a [deadline] arms cooperative
   cancellation that long tasks poll through their [ctx], and [on_poison]
   substitutes a caller-chosen result for a task whose transient failures
   outlast the policy — so one pathological item cannot wedge a domain or
   sink the whole run. *)

module Retry = Lattol_robust.Retry

let available_cores () = Domain.recommended_domain_count ()

let effective_jobs ?(oversubscribe = false) ~jobs ~items () =
  if jobs < 1 then invalid_arg "Pool.map: jobs must be at least 1";
  let jobs = min jobs (max 1 items) in
  if oversubscribe then jobs else min jobs (max 1 (available_cores ()))

(* Observation hooks, fired from the domain they describe.  Besides
   causal tracing below, this is the pool's only instrumentation: live
   progress and the runtime profiler both watch through a monitor, and
   with none attached the pool calls nothing. *)
type monitor = {
  on_start : jobs:int -> items:int -> unit;
  on_worker : worker:int -> busy:bool -> unit;
  on_claim : remaining:int -> unit;
  on_item : unit -> unit;
  on_task : worker:int -> busy:bool -> unit;
}

(* Causal tracing: when the caller supplies [trace] (a per-item context
   lookup), each task records its queue wait — submission to first
   execution — and each claimed chunk records one claim span.  With no
   [trace] the pool never reads a clock, keeping the untraced path
   byte-identical AND cost-identical. *)
module Tc = Lattol_obs.Trace_ctx

type ctx = {
  attempt : int;
  should_stop : unit -> bool;
  trace : Tc.ctx;
}

type poisoned = { index : int; attempts : int; error : string }

(* One item, through the full attempt loop.  [failure] is the pool's
   first-exception slot: a set slot makes [should_stop] true (cooperative
   cancellation of siblings) and suppresses further retries. *)
let run_one ?retry ?deadline ?on_poison ~failure ~trace f i x =
  let max_attempts =
    match retry with Some p -> p.Retry.max_attempts | None -> 1
  in
  let rec go attempt =
    let dl = Option.map (fun timeout -> Retry.start ~timeout) deadline in
    let should_stop () =
      Atomic.get failure <> None
      || (match dl with Some d -> Retry.expired d | None -> false)
    in
    match f { attempt; should_stop; trace } x with
    | y -> y
    | exception e -> (
      match Retry.default_classify e with
      | Retry.Fatal -> raise e
      | Retry.Transient ->
        if attempt < max_attempts && Atomic.get failure = None then begin
          (match retry with
          | Some p -> Retry.sleep (Retry.delay p ~attempt ~salt:i)
          | None -> ());
          go (attempt + 1)
        end
        else begin
          match on_poison with
          | Some g ->
            g { index = i; attempts = attempt; error = Printexc.to_string e }
          | None -> raise e
        end)
  in
  go 1

(* Claim the next batch of indices: [lo, hi).  A forced chunk uses one
   fetch-and-add; guided sizing needs a CAS loop because the claim size
   depends on how much is left.

   hot-alloc is allowed here: the returned pair (and the guided-path
   loop closure) is one allocation per claimed CHUNK, amortized over
   every task in the chunk — not per task. *)
let[@lattol.allow "hot-alloc"] claim ~next ~n ~workers ~chunk =
  match chunk with
  | Some c ->
    let lo = Atomic.fetch_and_add next c in
    (lo, min n (lo + c))
  | None ->
    let rec go () =
      let lo = Atomic.get next in
      if lo >= n then (n, n)
      else begin
        let size = max 1 ((n - lo + (2 * workers) - 1) / (2 * workers)) in
        let hi = min n (lo + size) in
        if Atomic.compare_and_set next lo hi then (lo, hi) else go ()
      end
    in
    go ()

(* The crew: worker domains parked between maps (see pool.mli).  On a
   2-vCPU VM an empty spawn and join costs 130-150 us and handing work to
   a parked domain 13-16 us.  A parked domain still adds about 60 us to
   every stop-the-world minor collection, which is why a serial map
   retires the idle members first.

   A member parks on its own condition until it is handed a job or told
   to retire.  A job never raises (the map catches what its worker lets
   escape), so a member never dies from an exception.  A member puts
   itself back on the idle list before its map counts it done, so the
   map returns with its members idle. *)
type order = Park | Run of (unit -> unit) | Retire

type member = {
  lock : Mutex.t;
  wake : Condition.t;
  mutable order : order;  (* under [lock] *)
  mutable domain : unit Domain.t option;  (* set once, right after spawn *)
}

let crew_lock = Mutex.create ()

(* Under [crew_lock]; the member released last is hired first. *)
let idle : member list ref = ref []

let rec await m =
  match m.order with
  | Park ->
    Condition.wait m.wake m.lock;
    await m
  | order ->
    m.order <- Park;
    order

let rec serve m =
  match Mutex.protect m.lock (fun () -> await m) with
  | Run job ->
    job ();
    serve m
  | Retire | Park -> ()

let command m order =
  Mutex.protect m.lock (fun () ->
      m.order <- order;
      Condition.signal m.wake)

let hire () =
  let parked =
    Mutex.protect crew_lock (fun () ->
        match !idle with
        | m :: rest ->
          idle := rest;
          Some m
        | [] -> None)
  in
  match parked with
  | Some m -> m
  | None ->
    let m =
      { lock = Mutex.create (); wake = Condition.create (); order = Park;
        domain = None }
    in
    m.domain <- Some (Domain.spawn (fun () -> serve m));
    m

let release m = Mutex.protect crew_lock (fun () -> idle := m :: !idle)

let retire_idle () =
  let retired =
    Mutex.protect crew_lock (fun () ->
        let l = !idle in
        idle := [];
        l)
  in
  List.iter (fun m -> command m Retire) retired;
  List.iter (fun m -> Option.iter Domain.join m.domain) retired

let no_flush _ = ()

let map_local ?chunk ?oversubscribe ?monitor ?retry ?deadline ?on_poison
    ?trace ~jobs ~local ?(flush = no_flush) f items =
  let n = Array.length items in
  let jobs = effective_jobs ?oversubscribe ~jobs ~items:n () in
  let chunk = match chunk with Some c when c > 0 -> Some c | _ -> None in
  let failure = Atomic.make None in
  let trace_ctx i =
    match trace with Some lookup -> lookup i | None -> Tc.disabled
  in
  let run l poison i x =
    let tctx = trace_ctx i in
    if Tc.enabled tctx then
      (* From the submitting context's span open (Journal.map opens
         point spans before handing the batch to the pool) to this first
         execution: the time the item sat unclaimed in the queue. *)
      Tc.record_since ~cat:"queue" ~name:"queue-wait" tctx;
    run_one ?retry ?deadline ?on_poison:poison ~failure ~trace:tctx (f l) i x
  in
  (* A worker's poison handler, bound to its local once, not per task. *)
  let poison_of l = Option.map (fun g -> g l) on_poison in
  let run_traced w m l poison i x =
    (match m with Some m -> m.on_task ~worker:w ~busy:true | None -> ());
    let fin () =
      match m with Some m -> m.on_task ~worker:w ~busy:false | None -> ()
    in
    match run l poison i x with
    | y ->
      fin ();
      y
    | exception e ->
      fin ();
      raise e
  in
  if n <= 1 || jobs = 1 then begin
    retire_idle ();
    let l = local 0 in
    let poison = poison_of l in
    (match monitor with
    | Some m ->
      m.on_start ~jobs:1 ~items:n;
      m.on_worker ~worker:0 ~busy:true
    | None -> ());
    (* Serial: every item is its own chunk, so worker-side batching (a
       checkpoint append) lands item by item. *)
    let results =
      Array.mapi
        (fun i x ->
          (match monitor with
          | Some m -> m.on_claim ~remaining:(n - i - 1)
          | None -> ());
          let y = run_traced 0 monitor l poison i x in
          flush l;
          (match monitor with Some m -> m.on_item () | None -> ());
          y)
        items
    in
    (match monitor with
    | Some m -> m.on_worker ~worker:0 ~busy:false
    | None -> ());
    (results, [ l ])
  end
  else begin
    let results = Array.make n None in
    let locals = Array.make jobs None in
    let next = Atomic.make 0 in
    (match monitor with Some m -> m.on_start ~jobs ~items:n | None -> ());
    (* Hot: every task in every parallel map runs through this claim
       loop, so per-iteration allocation here is multiplied by the whole
       workload. *)
    let[@lattol.hot] worker w =
      (* The local is created in the worker's own domain, so its state
         lives in that domain's minor heap. *)
      let l = local w in
      let poison = poison_of l in
      locals.(w) <- Some l;
      (match monitor with
      | Some m -> m.on_worker ~worker:w ~busy:true
      | None -> ());
      let rec loop () =
        let lo, hi =
          match trace with
          | None -> claim ~next ~n ~workers:jobs ~chunk
          | Some lookup ->
            (* Traced path only: time the claim itself and hang the span
               off the first claimed item, so queue contention shows up
               in that point's tree. *)
            let t0 = Tc.now_ns () in
            let ((lo, hi) as c) = claim ~next ~n ~workers:jobs ~chunk in
            if lo < n then
              Tc.record_interval ~cat:"queue" ~name:"chunk-claim"
                ~meta:
                  [ ("lo", string_of_int lo); ("hi", string_of_int hi) ]
                ~t0_ns:t0 (lookup lo);
            c
        in
        if lo < n && Atomic.get failure = None then begin
          let remaining = max 0 (n - hi) in
          (match monitor with
          | Some m -> m.on_claim ~remaining
          | None -> ());
          (try
             for i = lo to hi - 1 do
               results.(i) <- Some (run_traced w monitor l poison i items.(i));
               match monitor with Some m -> m.on_item () | None -> ()
             done;
             (* One flush per claimed chunk: worker-side batching (e.g. a
                journal append) is amortized over the whole chunk. *)
             flush l
           with e ->
             (* Remember the first failure; later ones lose the race. *)
             ignore (Atomic.compare_and_set failure None (Some e)));
          loop ()
        end
      in
      loop ();
      match monitor with
      | Some m -> m.on_worker ~worker:w ~busy:false
      | None -> ()
    in
    (* Worker 0 runs in the caller; the others on hired members.  An
       exception that escapes a worker (from [local] or a monitor hook:
       task failures land in [failure]) is re-raised once every hired
       member is idle again, the caller's own first. *)
    let escaped = Atomic.make None in
    let pending = ref (jobs - 1) in
    let done_lock = Mutex.create () and all_done = Condition.create () in
    let escape e = ignore (Atomic.compare_and_set escaped None (Some e)) in
    let finished () =
      Mutex.protect done_lock (fun () ->
          decr pending;
          if !pending = 0 then Condition.signal all_done)
    in
    let job w m () =
      (match worker w with () -> () | exception e -> escape e);
      release m;
      finished ()
    in
    for w = 1 to jobs - 1 do
      match hire () with
      | m -> command m (Run (job w m))
      | exception e ->
        (* No domain for worker [w]: the hired ones drain its share. *)
        escape e;
        finished ()
    done;
    let own = match worker 0 with () -> None | exception e -> Some e in
    Mutex.protect done_lock (fun () ->
        while !pending > 0 do
          Condition.wait all_done done_lock
        done);
    (match own with Some e -> raise e | None -> ());
    (match Atomic.get escaped with Some e -> raise e | None -> ());
    (match Atomic.get failure with Some e -> raise e | None -> ());
    let results =
      Array.map
        (function Some v -> v | None -> failwith "Pool.map: missing result")
        results
    in
    let locals =
      Array.to_list
        (Array.map
           (function
             | Some l -> l
             | None -> failwith "Pool.map: missing worker local")
           locals)
    in
    (results, locals)
  end

let map_ctx ?chunk ?oversubscribe ?monitor ?retry ?deadline ?on_poison ~jobs f
    items =
  fst
    (map_local ?chunk ?oversubscribe ?monitor ?retry ?deadline
       ?on_poison:(Option.map (fun g () -> g) on_poison)
       ~jobs
       ~local:(fun _ -> ())
       (fun () ctx x -> f ctx x)
       items)

let map ?chunk ?oversubscribe ?monitor ~jobs f items =
  map_ctx ?chunk ?oversubscribe ?monitor ~jobs (fun _ctx x -> f x) items

let map_list ?chunk ?oversubscribe ~jobs f items =
  Array.to_list (map ?chunk ?oversubscribe ~jobs f (Array.of_list items))
