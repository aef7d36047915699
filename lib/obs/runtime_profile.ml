(* Live consumer for the OCaml runtime's own tracing ring buffers.

   [Runtime_events] gives every domain a ring into which the runtime
   writes GC phase begin/end marks, allocation counters and lifecycle
   events.  This module (a) defines the user events written into those
   same rings — task and worker-loop spans and queue depth, from the
   profiler's pool monitor, and the profiling-window marker — so pool
   activity and GC activity share one clock with no calibration, and
   (b) runs a sampler domain that
   polls a self-monitoring cursor, feeding everything into the pure
   [Attribution] fold, a bounded trace-span buffer for the Chrome
   timeline, and atomic live counters the exporter can scrape mid-run.

   The producer half ([task_begin] & co.) is free when profiling is off:
   [Runtime_events.User.write] is a no-op until the ring collection is
   started, so calling these never breaks determinism or pays for clock
   reads. *)

module RE = Runtime_events

(* ------------------------------------------------------------------ *)
(* User events: the producer side, called from the profiler's pool
   monitor. *)

type RE.User.tag +=
  | Pool_task
  | Pool_worker
  | Pool_queue_depth
  | Prof_window

let task_ev = RE.User.register "lattol.pool.task" Pool_task RE.Type.span
let worker_ev = RE.User.register "lattol.pool.worker" Pool_worker RE.Type.span

let queue_depth_ev =
  RE.User.register "lattol.pool.queue_depth" Pool_queue_depth RE.Type.int

let window_ev = RE.User.register "lattol.prof" Prof_window RE.Type.span

let task_begin () = RE.User.write task_ev RE.Type.Begin
let task_end () = RE.User.write task_ev RE.Type.End
let worker_begin () = RE.User.write worker_ev RE.Type.Begin
let worker_end () = RE.User.write worker_ev RE.Type.End
let queue_depth n = RE.User.write queue_depth_ev n

(* ------------------------------------------------------------------ *)
(* Consumer state. *)

type live = {
  gc_pauses : int Atomic.t;
  gc_pause_ns : int Atomic.t;
  minor_allocated : int Atomic.t; (* words *)
  minor_promoted : int Atomic.t; (* words *)
  lost_events : int Atomic.t;
  live_queue_depth : int Atomic.t;
  events_read : int Atomic.t;
}

type trace_span = {
  ring : int;
  name : string;
  cat : string; (* "gc" | "runtime" | "task" | "worker" *)
  t0_ns : int64;
  t1_ns : int64;
}

type consumer = {
  attr : Attribution.state;
  mutable spans : trace_span list; (* newest first *)
  mutable n_spans : int;
  max_spans : int;
  mutable dropped_spans : int;
  (* per-ring stacks of open runtime phases, for trace spans and for
     outermost-pause detection *)
  phase_open : (int, (RE.runtime_phase * int64) list) Hashtbl.t;
  gc_depth : (int, int ref) Hashtbl.t;
  gc_since : (int, int64) Hashtbl.t;
  task_since : (int, int64) Hashtbl.t;
  worker_since : (int, int64) Hashtbl.t;
  mutable pauses : (int * int64) list; (* ring, outermost pause ns *)
  mutable n_pauses : int;
  mutable t_min : int64;
  mutable t_max : int64;
  mutable window_t0 : int64 option;
  mutable window_t1 : int64 option;
}

let make_consumer max_spans =
  {
    attr = Attribution.create ();
    spans = [];
    n_spans = 0;
    max_spans;
    dropped_spans = 0;
    phase_open = Hashtbl.create 8;
    gc_depth = Hashtbl.create 8;
    gc_since = Hashtbl.create 8;
    task_since = Hashtbl.create 8;
    worker_since = Hashtbl.create 8;
    pauses = [];
    n_pauses = 0;
    t_min = Int64.max_int;
    t_max = Int64.min_int;
    window_t0 = None;
    window_t1 = None;
  }

let push_span c span =
  if c.n_spans < c.max_spans then begin
    c.spans <- span :: c.spans;
    c.n_spans <- c.n_spans + 1
  end
  else c.dropped_spans <- c.dropped_spans + 1

let saw c ts =
  if Int64.compare ts c.t_min < 0 then c.t_min <- ts;
  if Int64.compare ts c.t_max > 0 then c.t_max <- ts

(* Phases that represent the domain doing GC/STW work.  Condition waits
   and heap-reservation resizes are runtime bookkeeping, not collection:
   counting a blocking wait as GC would misattribute idle time. *)
let counts_as_gc = function
  | RE.EV_DOMAIN_CONDITION_WAIT | RE.EV_DOMAIN_RESIZE_HEAP_RESERVATION ->
    false
  | _ -> true

let ring_depth c ring =
  match Hashtbl.find_opt c.gc_depth ring with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace c.gc_depth ring r;
    r

let max_pause_records = 100_000

let make_callbacks live c =
  let ts_ns ts = RE.Timestamp.to_int64 ts in
  let runtime_begin ring ts phase =
    let t = ts_ns ts in
    saw c t;
    Hashtbl.replace c.phase_open ring
      ((phase, t)
      :: Option.value (Hashtbl.find_opt c.phase_open ring) ~default:[]);
    if counts_as_gc phase then begin
      let d = ring_depth c ring in
      if !d = 0 then begin
        Hashtbl.replace c.gc_since ring t;
        Attribution.feed c.attr { ring; at_ns = t; kind = Gc_begin }
      end;
      incr d
    end
  in
  let runtime_end ring ts phase =
    let t = ts_ns ts in
    saw c t;
    (match Hashtbl.find_opt c.phase_open ring with
    | Some ((p, t0) :: rest) when p = phase ->
      Hashtbl.replace c.phase_open ring rest;
      push_span c
        {
          ring;
          name = RE.runtime_phase_name phase;
          cat = (if counts_as_gc phase then "gc" else "runtime");
          t0_ns = t0;
          t1_ns = t;
        }
    | _ -> ());
    if counts_as_gc phase then begin
      let d = ring_depth c ring in
      if !d > 0 then begin
        decr d;
        if !d = 0 then begin
          Attribution.feed c.attr { ring; at_ns = t; kind = Gc_end };
          (match Hashtbl.find_opt c.gc_since ring with
          | Some t0 when Int64.compare t t0 >= 0 ->
            let dur = Int64.sub t t0 in
            Atomic.incr live.gc_pauses;
            ignore
              (Atomic.fetch_and_add live.gc_pause_ns (Int64.to_int dur));
            if c.n_pauses < max_pause_records then begin
              c.pauses <- (ring, dur) :: c.pauses;
              c.n_pauses <- c.n_pauses + 1
            end
          | _ -> ())
        end
      end
    end
  in
  let runtime_counter _ring ts counter v =
    saw c (ts_ns ts);
    match counter with
    | RE.EV_C_MINOR_ALLOCATED ->
      ignore (Atomic.fetch_and_add live.minor_allocated v)
    | RE.EV_C_MINOR_PROMOTED ->
      ignore (Atomic.fetch_and_add live.minor_promoted v)
    | _ -> ()
  in
  let lifecycle _ring ts _ev _arg = saw c (ts_ns ts) in
  let lost_events _ring n =
    ignore (Atomic.fetch_and_add live.lost_events n)
  in
  let on_span ring ts (ev : RE.Type.span RE.User.t) (v : RE.Type.span) =
    let t = ts_ns ts in
    saw c t;
    match RE.User.tag ev, v with
    | Pool_task, RE.Type.Begin ->
      Hashtbl.replace c.task_since ring t;
      Attribution.feed c.attr { ring; at_ns = t; kind = Task_begin }
    | Pool_task, RE.Type.End ->
      Attribution.feed c.attr { ring; at_ns = t; kind = Task_end };
      (match Hashtbl.find_opt c.task_since ring with
      | Some t0 ->
        Hashtbl.remove c.task_since ring;
        push_span c { ring; name = "task"; cat = "task"; t0_ns = t0; t1_ns = t }
      | None -> ())
    | Pool_worker, RE.Type.Begin ->
      Hashtbl.replace c.worker_since ring t;
      Attribution.feed c.attr { ring; at_ns = t; kind = Worker_begin }
    | Pool_worker, RE.Type.End ->
      Attribution.feed c.attr { ring; at_ns = t; kind = Worker_end };
      (match Hashtbl.find_opt c.worker_since ring with
      | Some t0 ->
        Hashtbl.remove c.worker_since ring;
        push_span c
          { ring; name = "worker"; cat = "worker"; t0_ns = t0; t1_ns = t }
      | None -> ())
    | Prof_window, RE.Type.Begin ->
      if c.window_t0 = None then c.window_t0 <- Some t
    | Prof_window, RE.Type.End -> c.window_t1 <- Some t
    | _ -> ()
  in
  let on_int ring ts (ev : int RE.User.t) (v : int) =
    saw c (ts_ns ts);
    ignore ring;
    match RE.User.tag ev with
    | Pool_queue_depth -> Atomic.set live.live_queue_depth v
    | _ -> ()
  in
  RE.Callbacks.create ~runtime_begin ~runtime_end ~runtime_counter ~lifecycle
    ~lost_events ()
  |> RE.Callbacks.add_user_event RE.Type.span on_span
  |> RE.Callbacks.add_user_event RE.Type.int on_int

(* ------------------------------------------------------------------ *)
(* Session: sampler domain + cursor lifecycle. *)

type session = {
  live : live;
  mu : Mutex.t;
  con : consumer;
  cursor : RE.cursor;
  callbacks : RE.Callbacks.t;
  stop_flag : bool Atomic.t;
  sampler : unit Domain.t;
}

type profile = {
  report : Attribution.report;
  trace_spans : trace_span list; (* oldest first *)
  dropped_spans : int;
  pauses : (int * int64) list; (* ring, outermost pause ns *)
  minor_allocated_words : int;
  minor_promoted_words : int;
  lost_events : int;
  base_ns : int64; (* timestamp origin for trace export *)
}

let poll_interval_s = 0.001

(* Timeline spans kept per session; the excess is counted, not stored. *)
let max_trace_spans = 200_000

let start () =
  RE.start ();
  let live =
    {
      gc_pauses = Atomic.make 0;
      gc_pause_ns = Atomic.make 0;
      minor_allocated = Atomic.make 0;
      minor_promoted = Atomic.make 0;
      lost_events = Atomic.make 0;
      live_queue_depth = Atomic.make 0;
      events_read = Atomic.make 0;
    }
  in
  let con = make_consumer max_trace_spans in
  let cursor = RE.create_cursor None in
  let callbacks = make_callbacks live con in
  let mu = Mutex.create () in
  let stop_flag = Atomic.make false in
  let poll () =
    Mutex.protect mu (fun () ->
        let n = RE.read_poll cursor callbacks None in
        ignore (Atomic.fetch_and_add live.events_read n))
  in
  let sampler =
    Domain.spawn (fun () ->
        while not (Atomic.get stop_flag) do
          poll ();
          Unix.sleepf poll_interval_s
        done)
  in
  let t = { live; mu; con; cursor; callbacks; stop_flag; sampler } in
  RE.User.write window_ev RE.Type.Begin;
  t

let stop t =
  RE.User.write window_ev RE.Type.End;
  Atomic.set t.stop_flag true;
  Domain.join t.sampler;
  (* Final drain on this domain: the window-end mark above is already in
     our ring, so one more poll observes a complete stream. *)
  Mutex.protect t.mu (fun () ->
      let n = RE.read_poll t.cursor t.callbacks None in
      ignore (Atomic.fetch_and_add t.live.events_read n));
  RE.free_cursor t.cursor;
  let c = t.con in
  let t0 =
    match c.window_t0 with
    | Some v -> v
    | None -> if Int64.compare c.t_min Int64.max_int < 0 then c.t_min else 0L
  in
  let t1 =
    match c.window_t1 with
    | Some v -> v
    | None -> if Int64.compare c.t_max Int64.min_int > 0 then c.t_max else t0
  in
  let report = Attribution.finish c.attr ~t0 ~t1 in
  {
    report;
    trace_spans = List.rev c.spans;
    dropped_spans = c.dropped_spans;
    pauses = List.rev c.pauses;
    minor_allocated_words = Atomic.get t.live.minor_allocated;
    minor_promoted_words = Atomic.get t.live.minor_promoted;
    lost_events = Atomic.get t.live.lost_events;
    base_ns = t0;
  }

(* ------------------------------------------------------------------ *)
(* Live scrape: a tiny JSON object rendered from the atomics, cheap
   enough to serve on every poll of /runtime.json. *)

let live_json t =
  let l = t.live in
  Printf.sprintf
    "{\"profiling\":true,\"gc_pauses\":%d,\"gc_pause_ns\":%d,\
     \"minor_allocated_words\":%d,\"minor_promoted_words\":%d,\
     \"lost_events\":%d,\"queue_depth\":%d,\"events_read\":%d}"
    (Atomic.get l.gc_pauses) (Atomic.get l.gc_pause_ns)
    (Atomic.get l.minor_allocated) (Atomic.get l.minor_promoted)
    (Atomic.get l.lost_events)
    (Atomic.get l.live_queue_depth)
    (Atomic.get l.events_read)

let live_counters t =
  let l = t.live in
  [
    ("runtime_gc_pauses_total", float_of_int (Atomic.get l.gc_pauses));
    ("runtime_gc_pause_ns_total", float_of_int (Atomic.get l.gc_pause_ns));
    ( "runtime_minor_allocated_words_total",
      float_of_int (Atomic.get l.minor_allocated) );
    ( "runtime_minor_promoted_words_total",
      float_of_int (Atomic.get l.minor_promoted) );
    ("runtime_lost_events_total", float_of_int (Atomic.get l.lost_events));
    ("runtime_queue_depth", float_of_int (Atomic.get l.live_queue_depth));
  ]

(* ------------------------------------------------------------------ *)
(* Exports: merged Chrome timeline and a metrics registry. *)

let runtime_pid = 99

let to_events p =
  let ev = Events.create () in
  Events.name_process ev runtime_pid "ocaml-runtime";
  let tracks = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem tracks s.ring) then begin
        Hashtbl.replace tracks s.ring ();
        Events.name_track ev ~pid:runtime_pid s.ring
          (Printf.sprintf "domain %d" s.ring)
      end;
      let us_of ns = Int64.to_float (Int64.sub ns p.base_ns) /. 1e3 in
      let t0 = us_of s.t0_ns in
      let dur = us_of s.t1_ns -. t0 in
      Events.emit ev ~pid:runtime_pid ~cat:s.cat ~track:s.ring ~name:s.name
        ~t0 dur)
    p.trace_spans;
  ev

let register_metrics p m =
  let dom s = [ ("domain", string_of_int s.Attribution.ring) ] in
  List.iter
    (fun (s : Attribution.split) ->
      let g name help v =
        Metrics.set_gauge (Metrics.gauge m ~labels:(dom s) ~help name) v
      in
      g "runtime_domain_wall_ns" "profiled wall time of this domain"
        (Int64.to_float s.wall_ns);
      g "runtime_domain_compute_fraction" "fraction of wall in pool tasks"
        (Attribution.compute_fraction s);
      g "runtime_domain_gc_fraction" "fraction of wall in GC pauses"
        (Attribution.gc_fraction s);
      g "runtime_domain_idle_fraction" "fraction of wall starved for work"
        (Attribution.idle_fraction s);
      g "runtime_domain_spawn_fraction" "fraction of wall outside the worker"
        (Attribution.spawn_fraction s);
      let cnt name help v =
        Metrics.incr ~by:v (Metrics.counter m ~labels:(dom s) ~help name)
      in
      cnt "runtime_domain_tasks_total" "pool tasks executed" s.tasks;
      cnt "runtime_domain_gc_pauses_total" "outermost GC pauses" s.gc_pauses)
    p.report.Attribution.domains;
  let pause_hist =
    Metrics.histogram m ~help:"outermost GC pause durations (ms)" ~lo:0.
      ~hi:50. ~bins:25 "runtime_gc_pause_ms"
  in
  List.iter
    (fun (_ring, ns) -> Metrics.record pause_hist (Int64.to_float ns /. 1e6))
    p.pauses;
  Metrics.incr
    ~by:p.minor_allocated_words
    (Metrics.counter m ~help:"words allocated in minor heaps"
       "runtime_minor_allocated_words_total");
  Metrics.incr ~by:p.minor_promoted_words
    (Metrics.counter m ~help:"words promoted to the major heap"
       "runtime_minor_promoted_words_total");
  Metrics.incr ~by:p.lost_events
    (Metrics.counter m ~help:"ring-buffer events overwritten before reading"
       "runtime_lost_events_total");
  Metrics.set_gauge
    (Metrics.gauge m ~help:"achieved compute fraction of total domain time"
       "runtime_tolerance")
    p.report.Attribution.tolerance;
  Metrics.set_gauge
    (Metrics.gauge m
       ~labels:
         [ ("verdict", Attribution.verdict_string p.report.Attribution.verdict) ]
       ~help:"dominant scaling limiter" "runtime_verdict")
    1.
