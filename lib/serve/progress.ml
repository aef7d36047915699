module Metrics = Lattol_obs.Metrics
module Pool = Lattol_exec.Pool

type kind = [ `Counter | `Gauge ]

(* Per-worker busy/idle clock, advanced on every task edge the pool
   reports.  [edge] is the stamp of the last transition; between a
   worker-loop entry and the first task the elapsed time is idle, inside
   a task it is busy. *)
type worker_acct = {
  mutable live : bool; (* inside the worker loop *)
  mutable in_task : bool;
  mutable edge : float;
  mutable busy_s : float;
  mutable idle_s : float;
}

type t = {
  phase_name : string;
  total_ : int Atomic.t;
  done_ : int Atomic.t;
  workers : int Atomic.t;
  busy : int Atomic.t;
  queue_depth : int Atomic.t;
  started : float Atomic.t; (* wall-clock stamp; nan = not yet *)
  finished : float Atomic.t; (* wall-clock stamp; nan = still running *)
  lock : Mutex.t;
  (* both in first-registration order, so snapshots are stable *)
  mutable gauges : (string * float) list;
  mutable pulls : (string * kind * (unit -> float)) list;
  accts : (int, worker_acct) Hashtbl.t; (* under [lock] *)
}

let create ?(phase = "run") () =
  {
    phase_name = phase;
    total_ = Atomic.make 0;
    done_ = Atomic.make 0;
    workers = Atomic.make 0;
    busy = Atomic.make 0;
    queue_depth = Atomic.make 0;
    started = Atomic.make nan;
    finished = Atomic.make nan;
    lock = Mutex.create ();
    gauges = [];
    pulls = [];
    accts = Hashtbl.create 8;
  }

let set_total t n = Atomic.set t.total_ n

let step ?(n = 1) t = ignore (Atomic.fetch_and_add t.done_ n)

let set_workers t n = Atomic.set t.workers n

let worker_busy t b =
  ignore (Atomic.fetch_and_add t.busy (if b then 1 else -1))

let set_queue_depth t n = Atomic.set t.queue_depth n

let acct t w =
  match Hashtbl.find_opt t.accts w with
  | Some a -> a
  | None ->
    let a =
      { live = false; in_task = false; edge = nan; busy_s = 0.; idle_s = 0. }
    in
    Hashtbl.replace t.accts w a;
    a

let worker_loop_edge t w busy =
  let now = Unix.gettimeofday () in
  Mutex.protect t.lock (fun () ->
      let a = acct t w in
      if busy then begin
        a.live <- true;
        a.edge <- now
      end
      else begin
        if a.live && (not a.in_task) && not (Float.is_nan a.edge) then
          a.idle_s <- a.idle_s +. Float.max 0. (now -. a.edge);
        a.live <- false
      end)

let task_edge t w busy =
  let now = Unix.gettimeofday () in
  Mutex.protect t.lock (fun () ->
      let a = acct t w in
      if busy then begin
        if a.live && not (Float.is_nan a.edge) then
          a.idle_s <- a.idle_s +. Float.max 0. (now -. a.edge);
        a.in_task <- true;
        a.edge <- now
      end
      else begin
        if a.in_task && not (Float.is_nan a.edge) then
          a.busy_s <- a.busy_s +. Float.max 0. (now -. a.edge);
        a.in_task <- false;
        a.edge <- now
      end)

let worker_times t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun w a acc -> (w, a.busy_s, a.idle_s) :: acc) t.accts []
      |> List.sort (fun (a, _, _) (b, _, _) -> compare a b))

let pool_monitor t =
  {
    Pool.on_start = (fun ~jobs ~items:_ -> set_workers t jobs);
    on_worker =
      (fun ~worker ~busy ->
        worker_busy t busy;
        worker_loop_edge t worker busy);
    on_claim = (fun ~remaining -> set_queue_depth t remaining);
    on_item = (fun () -> step t);
    on_task = (fun ~worker ~busy -> task_edge t worker busy);
  }

let set_gauge t name v =
  Mutex.protect t.lock (fun () ->
      if List.mem_assoc name t.gauges then
        t.gauges <-
          List.map
            (fun (n, old) -> if String.equal n name then (n, v) else (n, old))
            t.gauges
      else t.gauges <- t.gauges @ [ (name, v) ])

let register_pull t ?(kind = `Gauge) name f =
  Mutex.protect t.lock (fun () -> t.pulls <- t.pulls @ [ (name, kind, f) ])

let start t =
  let now = Unix.gettimeofday () in
  ignore (Atomic.compare_and_set t.started nan now)

let finish t =
  let now = Unix.gettimeofday () in
  ignore (Atomic.compare_and_set t.finished nan now)

let elapsed t =
  let t0 = Atomic.get t.started in
  if Float.is_nan t0 then 0.
  else
    let t1 = Atomic.get t.finished in
    let t1 = if Float.is_nan t1 then Unix.gettimeofday () else t1 in
    Float.max 0. (t1 -. t0)

(* Never emits a non-finite value: an unknown ETA (no total declared,
   nothing done yet, ~0 elapsed) reads as 0, so /metrics.json stays free
   of inf/nan and downstream JSON parsers never choke on the gauge. *)
let eta t =
  if not (Float.is_nan (Atomic.get t.finished)) then 0.
  else
    let total = Atomic.get t.total_ and d = Atomic.get t.done_ in
    if total <= 0 || d <= 0 || d >= total then 0.
    else
      let e = elapsed t /. float_of_int d *. float_of_int (total - d) in
      if Float.is_finite e && e > 0. then e else 0.

let to_snapshot t =
  let gauges, pulls =
    Mutex.protect t.lock (fun () -> (t.gauges, t.pulls))
  in
  let series name help v =
    { Metrics.s_name = name; s_labels = []; s_help = help; s_value = v }
  in
  let phase_series =
    [
      series (t.phase_name ^ "_points_done")
        "work items completed so far"
        (Metrics.Counter_v (Atomic.get t.done_));
      series (t.phase_name ^ "_points_total")
        "work items planned for this run"
        (Metrics.Gauge_v (float_of_int (Atomic.get t.total_)));
      series "pool_workers" "domains the work pool was configured with"
        (Metrics.Gauge_v (float_of_int (Atomic.get t.workers)));
      series "pool_busy_domains" "pool domains currently executing work"
        (Metrics.Gauge_v (float_of_int (Atomic.get t.busy)));
      series "pool_queue_depth" "work items not yet claimed by any domain"
        (Metrics.Gauge_v (float_of_int (Atomic.get t.queue_depth)));
    ]
  in
  let ns s = int_of_float (s *. 1e9) in
  let worker_series =
    List.concat_map
      (fun (w, busy_s, idle_s) ->
        let labels = [ ("worker", string_of_int w) ] in
        [
          {
            Metrics.s_name = "pool_worker_busy_ns";
            s_labels = labels;
            s_help = "cumulative time this worker spent executing tasks";
            s_value = Metrics.Counter_v (ns busy_s);
          };
          {
            Metrics.s_name = "pool_worker_idle_ns";
            s_labels = labels;
            s_help = "cumulative time this worker waited for work";
            s_value = Metrics.Counter_v (ns idle_s);
          };
        ])
      (worker_times t)
  in
  let tail_series =
    [
      series "elapsed_seconds" "wall-clock time since the run started"
        (Metrics.Gauge_v (elapsed t));
      series "eta_seconds"
        "estimated wall-clock time to completion (linear extrapolation)"
        (Metrics.Gauge_v (eta t));
    ]
  in
  let gauge_series =
    List.map (fun (name, v) -> series name "" (Metrics.Gauge_v v)) gauges
  in
  let pull_series =
    List.map
      (fun (name, kind, f) ->
        let v = f () in
        match kind with
        | `Counter -> series name "" (Metrics.Counter_v (int_of_float v))
        | `Gauge -> series name "" (Metrics.Gauge_v v))
      pulls
  in
  phase_series @ worker_series @ tail_series @ gauge_series @ pull_series
