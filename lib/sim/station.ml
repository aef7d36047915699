open Lattol_stats

type 'a job = {
  payload : 'a;
  arrived : float;
  duration : float option; (* per-job override of the service distribution *)
  on_start : (unit -> unit) option; (* fires when service begins *)
  on_complete : 'a -> unit;
}

type 'a t = {
  engine : Engine.t;
  rng : Prng.t;
  name : string;
  service : Variate.t;
  servers : int;
  queues : 'a job Queue.t array; (* index = priority level, 0 first *)
  mutable in_service : int; (* occupied servers *)
  mutable speed : float; (* service-rate multiplier; durations divide by it *)
  (* statistics *)
  mutable stats_start : float;
  mutable busy_area : float; (* integral of occupied servers over time *)
  mutable busy_last_change : float;
  mutable queue_area : float;
  mutable queue_last_change : float;
  mutable completed : int;
  mutable response : Moments.t;
}

let create ?(servers = 1) ?(priority_levels = 1) engine ~rng ~name ~service =
  if servers < 1 then invalid_arg "Station.create: servers >= 1";
  if priority_levels < 1 then invalid_arg "Station.create: priority_levels >= 1";
  (match Variate.validate service with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Station.create: " ^ msg));
  {
    engine;
    rng;
    name;
    service;
    servers;
    queues = Array.init priority_levels (fun _ -> Queue.create ());
    in_service = 0;
    speed = 1.;
    stats_start = Engine.now engine;
    busy_area = 0.;
    busy_last_change = Engine.now engine;
    queue_area = 0.;
    queue_last_change = Engine.now engine;
    completed = 0;
    response = Moments.create ();
  }

let name t = t.name

let servers t = t.servers

let waiting t =
  Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.queues

let queue_length t = waiting t + t.in_service

let note_queue_change t =
  let now = Engine.now t.engine in
  t.queue_area <-
    t.queue_area +. (float_of_int (queue_length t) *. (now -. t.queue_last_change));
  t.queue_last_change <- now

let note_busy_change t =
  let now = Engine.now t.engine in
  t.busy_area <-
    t.busy_area +. (float_of_int t.in_service *. (now -. t.busy_last_change));
  t.busy_last_change <- now

let take_next t =
  let rec go level =
    if level >= Array.length t.queues then None
    else
      match Queue.take_opt t.queues.(level) with
      | Some job -> Some job
      | None -> go (level + 1)
  in
  go 0

let rec start_service t =
  if t.in_service < t.servers then
    match take_next t with
    | None -> ()
    | Some job ->
      note_busy_change t;
      t.in_service <- t.in_service + 1;
      let work =
        match job.duration with
        | Some d -> d
        | None -> Variate.draw t.service t.rng
      in
      (match job.on_start with Some f -> f () | None -> ());
      (* [work] is nominal service demand; a degraded station (speed < 1)
         stretches it.  Jobs already in service keep the speed they started
         with (non-preemptive degradation). *)
      Engine.schedule t.engine ~delay:(work /. t.speed) (fun () ->
          complete t job);
      start_service t

and complete t job =
  note_queue_change t;
  note_busy_change t;
  t.in_service <- t.in_service - 1;
  t.completed <- t.completed + 1;
  Moments.add t.response (Engine.now t.engine -. job.arrived);
  start_service t;
  job.on_complete job.payload

let submit ?(priority = 0) ?duration ?on_start t payload on_complete =
  (match duration with
  | Some d when d < 0. -> invalid_arg "Station.submit: negative duration"
  | Some _ | None -> ());
  note_queue_change t;
  let level = max 0 (min priority (Array.length t.queues - 1)) in
  Queue.add
    { payload; arrived = Engine.now t.engine; duration; on_start; on_complete }
    t.queues.(level);
  start_service t

let set_speed t s =
  if s <= 0. || not (Float.is_finite s) then
    invalid_arg "Station.set_speed: speed must be positive and finite";
  t.speed <- s;
  (* A speed-up may not retroactively shorten jobs in service, but waiting
     jobs should start under the new speed as servers free up; nothing to
     do — [start_service] reads [t.speed] at dispatch time. *)
  start_service t

let elapsed t = Engine.now t.engine -. t.stats_start

let completed t = t.completed

let utilization t =
  let span = elapsed t in
  if span <= 0. then 0.
  else begin
    let now = Engine.now t.engine in
    let area =
      t.busy_area +. (float_of_int t.in_service *. (now -. t.busy_last_change))
    in
    area /. span /. float_of_int t.servers
  end

let mean_queue_length t =
  let span = elapsed t in
  if span <= 0. then 0.
  else begin
    let now = Engine.now t.engine in
    let area =
      t.queue_area
      +. (float_of_int (queue_length t) *. (now -. t.queue_last_change))
    in
    area /. span
  end

let response_times t = t.response

let reset_stats t =
  let now = Engine.now t.engine in
  t.stats_start <- now;
  t.busy_area <- 0.;
  t.busy_last_change <- now;
  t.queue_area <- 0.;
  t.queue_last_change <- now;
  t.completed <- 0;
  t.response <- Moments.create ()
