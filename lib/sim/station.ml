open Lattol_stats

(* One priority level's FCFS queue: a ring of waiting jobs kept as
   parallel arrays, so that queueing a job allocates nothing.  [work] is
   the job's own service demand, negative when the station draws it.
   The capacity is a power of two, so positions wrap with a mask. *)
type ring = {
  mutable arrived : Float.Array.t;
  mutable work : Float.Array.t;
  mutable on_start : (unit -> unit) array;
  mutable on_complete : (unit -> unit) array;
  mutable head : int;
  mutable length : int;
}

(* Every float the station updates per event, stored unboxed. *)
type clocks = {
  mutable speed : float; (* service-rate multiplier; durations divide by it *)
  mutable stats_start : float;
  mutable busy_area : float; (* integral of occupied servers over time *)
  mutable busy_last_change : float;
  mutable queue_area : float;
  mutable queue_last_change : float;
}

type t = {
  engine : Engine.t;
  rng : Prng.t;
  name : string;
  service : Variate.t;
  servers : int;
  queues : ring array; (* index = priority level, 0 first *)
  mutable waiting : int;
  mutable in_service : int; (* occupied servers *)
  (* One slot per server: the job in service's arrival time and
     continuation, and the slot's completion event, made once here. *)
  slot_arrived : Float.Array.t;
  slot_k : (unit -> unit) array;
  slot_done : (unit -> unit) array;
  free : int array; (* free slots, a stack of [n_free] *)
  mutable n_free : int;
  clocks : clocks;
  mutable completed : int;
  mutable response : Moments.t;
}

let ring_create () =
  {
    arrived = Float.Array.make 8 0.;
    work = Float.Array.make 8 0.;
    on_start = Array.make 8 ignore;
    on_complete = Array.make 8 ignore;
    head = 0;
    length = 0;
  }

(* Doubling, unrolling the ring to start at 0: a ring reallocates log2
   (its peak queue) times per run, not per job. *)
let[@lattol.allow "hot-alloc"] ring_grow r =
  let cap = Array.length r.on_complete in
  let arrived = Float.Array.make (2 * cap) 0.
  and work = Float.Array.make (2 * cap) 0.
  and on_start = Array.make (2 * cap) ignore
  and on_complete = Array.make (2 * cap) ignore in
  for i = 0 to r.length - 1 do
    let j = (r.head + i) land (cap - 1) in
    Float.Array.set arrived i (Float.Array.get r.arrived j);
    Float.Array.set work i (Float.Array.get r.work j);
    on_start.(i) <- r.on_start.(j);
    on_complete.(i) <- r.on_complete.(j)
  done;
  r.arrived <- arrived;
  r.work <- work;
  r.on_start <- on_start;
  r.on_complete <- on_complete;
  r.head <- 0

let rec complete t slot =
  note_queue_change t;
  note_busy_change t;
  t.in_service <- t.in_service - 1;
  t.completed <- t.completed + 1;
  Moments.add t.response
    (Engine.now t.engine -. Float.Array.get t.slot_arrived slot);
  let k = t.slot_k.(slot) in
  t.slot_k.(slot) <- ignore;
  t.free.(t.n_free) <- slot;
  t.n_free <- t.n_free + 1;
  start_service t;
  k ()

and note_queue_change t =
  let now = Engine.now t.engine and c = t.clocks in
  c.queue_area <-
    c.queue_area
    +. float_of_int (t.waiting + t.in_service)
       *. (now -. c.queue_last_change);
  c.queue_last_change <- now

and note_busy_change t =
  let now = Engine.now t.engine and c = t.clocks in
  c.busy_area <-
    c.busy_area +. (float_of_int t.in_service *. (now -. c.busy_last_change));
  c.busy_last_change <- now

(* The highest-priority level with a waiting job; [waiting > 0]. *)
and first_level t level =
  if t.queues.(level).length > 0 then level else first_level t (level + 1)

(* Fill free servers from the queues.  A job's start keeps a fixed
   order, which every seed's sample path depends on: busy bookkeeping,
   the service draw, [on_start], then the completion's [schedule]. *)
and start_service t =
  if t.in_service < t.servers && t.waiting > 0 then begin
    let r = t.queues.(first_level t 0) in
    let h = r.head in
    let arrived = Float.Array.get r.arrived h
    and work = Float.Array.get r.work h
    and on_start = r.on_start.(h)
    and k = r.on_complete.(h) in
    r.on_start.(h) <- ignore;
    r.on_complete.(h) <- ignore;
    r.head <- (h + 1) land (Array.length r.on_complete - 1);
    r.length <- r.length - 1;
    t.waiting <- t.waiting - 1;
    note_busy_change t;
    t.in_service <- t.in_service + 1;
    let work = if work < 0. then Variate.draw t.service t.rng else work in
    on_start ();
    t.n_free <- t.n_free - 1;
    let slot = t.free.(t.n_free) in
    Float.Array.set t.slot_arrived slot arrived;
    t.slot_k.(slot) <- k;
    (* [work] is nominal service demand; a degraded station (speed < 1)
       stretches it.  Jobs already in service keep the speed they started
       with (non-preemptive degradation). *)
    Engine.schedule t.engine ~delay:(work /. t.clocks.speed) t.slot_done.(slot);
    start_service t
  end

let create ?(servers = 1) ?(priority_levels = 1) engine ~rng ~name ~service =
  if servers < 1 then invalid_arg "Station.create: servers >= 1";
  if priority_levels < 1 then invalid_arg "Station.create: priority_levels >= 1";
  (match Variate.validate service with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Station.create: " ^ msg));
  let now = Engine.now engine in
  let t =
    {
      engine;
      rng;
      name;
      service;
      servers;
      queues = Array.init priority_levels (fun _ -> ring_create ());
      waiting = 0;
      in_service = 0;
      slot_arrived = Float.Array.make servers 0.;
      slot_k = Array.make servers ignore;
      slot_done = Array.make servers ignore;
      free = Array.init servers (fun i -> servers - 1 - i);
      n_free = servers;
      clocks =
        {
          speed = 1.;
          stats_start = now;
          busy_area = 0.;
          busy_last_change = now;
          queue_area = 0.;
          queue_last_change = now;
        };
      completed = 0;
      response = Moments.create ();
    }
  in
  for slot = 0 to servers - 1 do
    t.slot_done.(slot) <- (fun () -> complete t slot)
  done;
  t

let name t = t.name

let servers t = t.servers

let queue_length t = t.waiting + t.in_service

let submit ?(priority = 0) ?duration ?on_start t on_complete =
  let work =
    match duration with
    | None -> -1.
    | Some d ->
      if not (Float.is_finite d && d >= 0.) then
        invalid_arg "Station.submit: duration must be finite and >= 0";
      d
  in
  note_queue_change t;
  let r = t.queues.(Int.max 0 (Int.min priority (Array.length t.queues - 1))) in
  if r.length = Array.length r.on_complete then ring_grow r;
  let tail = (r.head + r.length) land (Array.length r.on_complete - 1) in
  Float.Array.set r.arrived tail (Engine.now t.engine);
  Float.Array.set r.work tail work;
  r.on_start.(tail) <- Option.value on_start ~default:ignore;
  r.on_complete.(tail) <- on_complete;
  r.length <- r.length + 1;
  t.waiting <- t.waiting + 1;
  start_service t

let set_speed t s =
  if s <= 0. || not (Float.is_finite s) then
    invalid_arg "Station.set_speed: speed must be positive and finite";
  t.clocks.speed <- s;
  (* A speed-up may not retroactively shorten jobs in service, but waiting
     jobs should start under the new speed as servers free up; nothing to
     do — [start_service] reads the speed at dispatch time. *)
  start_service t

let elapsed t = Engine.now t.engine -. t.clocks.stats_start

let completed t = t.completed

let utilization t =
  let span = elapsed t in
  if span <= 0. then 0.
  else begin
    let now = Engine.now t.engine and c = t.clocks in
    let area =
      c.busy_area +. (float_of_int t.in_service *. (now -. c.busy_last_change))
    in
    area /. span /. float_of_int t.servers
  end

let mean_queue_length t =
  let span = elapsed t in
  if span <= 0. then 0.
  else begin
    let now = Engine.now t.engine and c = t.clocks in
    let area =
      c.queue_area
      +. (float_of_int (queue_length t) *. (now -. c.queue_last_change))
    in
    area /. span
  end

let response_times t = t.response

let reset_stats t =
  let now = Engine.now t.engine and c = t.clocks in
  c.stats_start <- now;
  c.busy_area <- 0.;
  c.busy_last_change <- now;
  c.queue_area <- 0.;
  c.queue_last_change <- now;
  t.completed <- 0;
  t.response <- Moments.create ()
