(* Bottleneck attribution over a runtime-event stream.

   The fold consumes a flat stream of per-ring begin/end marks — GC
   pauses from the runtime, task and worker-loop spans from the
   profiler's pool monitor — and splits each domain's wall time into four
   mutually exclusive buckets:

     gc       inside a runtime GC/STW pause
     compute  executing a pool task (GC excluded)
     idle     inside the worker loop but between tasks (queue starvation;
              GC excluded)
     spawn    outside the worker loop: the pool keeps its domains
              parked between maps, so this is mostly time parked there
              (and before a worker's first claim), rarely spawn/join
              cost; the bucket keeps its historical name

   The buckets partition the profiling window exactly, so
   gc + compute + idle + spawn = wall for every domain by construction:
   that invariant is what makes the percentages trustworthy, and the
   unit tests replay synthetic streams to hold the fold to it.

   Everything here is pure int64-nanosecond arithmetic on already
   captured timestamps; no clock is read and nothing is printed except
   through a caller-supplied formatter. *)

type event_kind =
  | Gc_begin
  | Gc_end
  | Task_begin
  | Task_end
  | Worker_begin
  | Worker_end

type event = { ring : int; at_ns : int64; kind : event_kind }

type split = {
  ring : int;
  wall_ns : int64;
  gc_ns : int64;
  compute_ns : int64;
  idle_ns : int64;
  spawn_ns : int64;
  tasks : int;
  gc_pauses : int;
  max_gc_pause_ns : int64;
}

type verdict =
  | Gc_bound
  | Starved
  | Spawn_bound
  | Compute_bound

type report = {
  window_ns : int64;
  domains : split list;  (* by ring id *)
  verdict : verdict;
  tolerance : float;
      (** fraction of non-compute latency the executor overlapped with
          useful work on other domains: 1 = fully tolerated, 0 = fully
          exposed (the paper's tolerance index, applied to the pool) *)
}

(* ------------------------------------------------------------------ *)
(* The fold: one pass over the (time-ordered per ring) stream. *)

type ring_state = {
  mutable gc_depth : int;
  mutable gc_since : int64; (* valid when gc_depth > 0 *)
  mutable in_task : bool;
  mutable task_since : int64;
  mutable in_worker : bool;
  mutable worker_since : int64;
  mutable acc_gc : int64;
  mutable acc_task : int64; (* task time including GC inside tasks *)
  mutable acc_task_gc : int64; (* GC time inside tasks *)
  mutable acc_worker : int64; (* worker-loop time including everything *)
  mutable acc_worker_gc : int64; (* GC time inside the worker loop *)
  mutable n_tasks : int;
  mutable n_pauses : int;
  mutable max_pause : int64;
  mutable saw_task_or_worker : bool;
}

type state = { rings : (int, ring_state) Hashtbl.t }

let create () = { rings = Hashtbl.create 8 }

let ring_state t ring =
  match Hashtbl.find_opt t.rings ring with
  | Some r -> r
  | None ->
    let r =
      {
        gc_depth = 0;
        gc_since = 0L;
        in_task = false;
        task_since = 0L;
        in_worker = false;
        worker_since = 0L;
        acc_gc = 0L;
        acc_task = 0L;
        acc_task_gc = 0L;
        acc_worker = 0L;
        acc_worker_gc = 0L;
        n_tasks = 0;
        n_pauses = 0;
        max_pause = 0L;
        saw_task_or_worker = false;
      }
    in
    Hashtbl.replace t.rings ring r;
    r

let pos a = if Int64.compare a 0L > 0 then a else 0L

let feed t { ring; at_ns; kind } =
  let r = ring_state t ring in
  match kind with
  | Gc_begin ->
    if r.gc_depth = 0 then r.gc_since <- at_ns;
    r.gc_depth <- r.gc_depth + 1
  | Gc_end ->
    if r.gc_depth > 0 then begin
      r.gc_depth <- r.gc_depth - 1;
      if r.gc_depth = 0 then begin
        let d = pos (Int64.sub at_ns r.gc_since) in
        r.acc_gc <- Int64.add r.acc_gc d;
        if r.in_task then r.acc_task_gc <- Int64.add r.acc_task_gc d;
        if r.in_worker then r.acc_worker_gc <- Int64.add r.acc_worker_gc d;
        r.n_pauses <- r.n_pauses + 1;
        if Int64.compare d r.max_pause > 0 then r.max_pause <- d
      end
    end
  | Task_begin ->
    r.saw_task_or_worker <- true;
    if not r.in_task then begin
      r.in_task <- true;
      r.task_since <- at_ns
    end
  | Task_end ->
    if r.in_task then begin
      r.in_task <- false;
      r.acc_task <- Int64.add r.acc_task (pos (Int64.sub at_ns r.task_since));
      r.n_tasks <- r.n_tasks + 1
    end
  | Worker_begin ->
    r.saw_task_or_worker <- true;
    if not r.in_worker then begin
      r.in_worker <- true;
      r.worker_since <- at_ns
    end
  | Worker_end ->
    if r.in_worker then begin
      r.in_worker <- false;
      r.acc_worker <-
        Int64.add r.acc_worker (pos (Int64.sub at_ns r.worker_since))
    end

let feed_list t evs = List.iter (feed t) evs

(* Close any still-open span at the window end — a stream cut mid-task
   (lost events, early stop) must not leak time out of the partition. *)
let close_ring r ~t1 =
  if r.gc_depth > 0 then begin
    let d = pos (Int64.sub t1 r.gc_since) in
    r.acc_gc <- Int64.add r.acc_gc d;
    if r.in_task then r.acc_task_gc <- Int64.add r.acc_task_gc d;
    if r.in_worker then r.acc_worker_gc <- Int64.add r.acc_worker_gc d;
    r.n_pauses <- r.n_pauses + 1;
    if Int64.compare d r.max_pause > 0 then r.max_pause <- d;
    r.gc_depth <- 0
  end;
  if r.in_task then begin
    r.acc_task <- Int64.add r.acc_task (pos (Int64.sub t1 r.task_since));
    r.n_tasks <- r.n_tasks + 1;
    r.in_task <- false
  end;
  if r.in_worker then begin
    r.acc_worker <-
      Int64.add r.acc_worker (pos (Int64.sub t1 r.worker_since));
    r.in_worker <- false
  end

let split_of_ring ring r ~t0 ~t1 =
  let wall = pos (Int64.sub t1 t0) in
  let gc = r.acc_gc in
  let compute = pos (Int64.sub r.acc_task r.acc_task_gc) in
  (* Idle: in the worker loop, not in a task, not in GC. *)
  let idle =
    pos
      (Int64.sub r.acc_worker
         (Int64.add r.acc_task (Int64.sub r.acc_worker_gc r.acc_task_gc)))
  in
  (* Spawn bucket absorbs the remainder so the partition is exact even
     when accumulators slightly overrun the window (clamped at 0). *)
  let spawn =
    pos (Int64.sub wall (Int64.add gc (Int64.add compute idle)))
  in
  (* Re-derive wall from the buckets: if a span overran the window the
     buckets are authoritative (the invariant is the partition). *)
  let wall' = Int64.add gc (Int64.add compute (Int64.add idle spawn)) in
  {
    ring;
    wall_ns = Int64.max wall wall';
    gc_ns = gc;
    compute_ns = compute;
    idle_ns = idle;
    spawn_ns = spawn;
    tasks = r.n_tasks;
    gc_pauses = r.n_pauses;
    max_gc_pause_ns = r.max_pause;
  }

let ns_to_float = Int64.to_float

let frac part whole =
  let w = ns_to_float whole in
  if w <= 0. then 0. else ns_to_float part /. w

let gc_fraction s = frac s.gc_ns s.wall_ns
let compute_fraction s = frac s.compute_ns s.wall_ns
let idle_fraction s = frac s.idle_ns s.wall_ns
let spawn_fraction s = frac s.spawn_ns s.wall_ns

let finish ?only_instrumented t ~t0 ~t1 =
  let only = Option.value only_instrumented ~default:true in
  let domains =
    Hashtbl.fold
      (fun ring r acc ->
        close_ring r ~t1;
        if only && not r.saw_task_or_worker then acc
        else split_of_ring ring r ~t0 ~t1 :: acc)
      t.rings []
    |> List.sort (fun a b -> compare a.ring b.ring)
  in
  let sum f =
    List.fold_left (fun acc s -> Int64.add acc (f s)) 0L domains
  in
  let total_wall = sum (fun s -> s.wall_ns) in
  let gc = sum (fun s -> s.gc_ns)
  and compute = sum (fun s -> s.compute_ns)
  and idle = sum (fun s -> s.idle_ns)
  and spawn = sum (fun s -> s.spawn_ns) in
  let verdict =
    let g = frac gc total_wall
    and i = frac idle total_wall
    and sp = frac spawn total_wall in
    if g >= i && g >= sp && g > 0.1 then Gc_bound
    else if i >= sp && i > 0.1 then Starved
    else if sp > 0.1 then Spawn_bound
    else Compute_bound
  in
  (* Latency tolerance, executor edition: of the time that was not
     useful compute (gc + idle + spawn), how much was overlapped by
     compute happening concurrently on some other domain?  With W
     domains, perfect overlap would hide (W-1)/W of it; we report the
     achieved fraction: compute / total wall is the pool's utilization,
     and exposed latency is what is left. *)
  let tolerance = frac compute total_wall in
  { window_ns = pos (Int64.sub t1 t0); domains; verdict; tolerance }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let verdict_string = function
  | Gc_bound -> "gc-bound"
  | Starved -> "queue-starved"
  | Spawn_bound -> "spawn-bound"
  | Compute_bound -> "compute-bound"

let verdict_hint = function
  | Gc_bound ->
    "domains spend their time in GC pauses: shrink per-task allocation \
     or grow the minor heap (OCAMLRUNPARAM=s=...)"
  | Starved ->
    "domains wait on the work queue: too few or too-small tasks — batch \
     submissions or coarsen the chunking"
  | Spawn_bound ->
    "domains spend their time outside the worker loop, mostly parked \
     between maps rather than spawning: too little of the run is \
     parallel for this many domains — batch the work into fewer maps or \
     lower --jobs"
  | Compute_bound ->
    "domains spend their time computing: parallel efficiency is limited \
     by the work itself, not the executor"

let ms ns = ns_to_float ns /. 1e6

let pp_split ppf s =
  Format.fprintf ppf
    "domain %d: wall %8.2fms  compute %5.1f%%  gc %5.1f%%  idle %5.1f%%  \
     spawn %5.1f%%  (%d tasks, %d pauses, max pause %.3fms)"
    s.ring (ms s.wall_ns)
    (100. *. compute_fraction s)
    (100. *. gc_fraction s)
    (100. *. idle_fraction s)
    (100. *. spawn_fraction s)
    s.tasks s.gc_pauses
    (ms s.max_gc_pause_ns)

let pp_report ppf r =
  Format.fprintf ppf "@[<v>runtime profile: %d domain%s over %.2fms@,"
    (List.length r.domains)
    (if List.length r.domains = 1 then "" else "s")
    (ms r.window_ns);
  List.iter (fun s -> Format.fprintf ppf "%a@," pp_split s) r.domains;
  Format.fprintf ppf "executor tolerance: %.3f (compute fraction of total domain time)@,"
    r.tolerance;
  Format.fprintf ppf "verdict: %s — %s@]" (verdict_string r.verdict)
    (verdict_hint r.verdict)
