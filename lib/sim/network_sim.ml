open Lattol_stats
open Lattol_queueing
module Ev = Lattol_obs.Events

type result = {
  solution : Solution.t;
  events : int;
  sim_time : float;
}

type state = {
  engine : Engine.t;
  rng : Prng.t;
  network : Network.t;
  stations : Station.t option array; (* None for delay stations *)
  (* per-class visit CDF support: visits and their totals *)
  visit_totals : float array;
  (* statistics: per (class, station) occupancy with time integrals *)
  occupancy : int array array;
  area : float array array;
  last : float array array;
  completions : int array array;
  mutable measuring : bool;
  trace : Ev.t option; (* spans: pid = class, track = customer *)
}

let note st c m =
  let now = Engine.now st.engine in
  st.area.(c).(m) <-
    st.area.(c).(m)
    +. (float_of_int st.occupancy.(c).(m) *. (now -. st.last.(c).(m)));
  st.last.(c).(m) <- now

let next_station st c =
  (* Independent routing proportional to the visit ratios. *)
  let x = Prng.float st.rng *. st.visit_totals.(c) in
  let num_st = Network.num_stations st.network in
  let rec go m acc =
    if m = num_st - 1 then m
    else begin
      let acc = acc +. Network.visit st.network ~cls:c ~station:m in
      if x < acc then m else go (m + 1) acc
    end
  in
  go 0 0.

(* Emit a span on customer [cust]'s lane of class [c]; suppressed during
   warm-up and without a tracer. *)
let span st ~c ~cust ~name ~cat ~t0 dur =
  match st.trace with
  | Some tr when st.measuring ->
    Ev.emit tr ~pid:c ~cat ~track:cust ~name ~t0 dur
  | Some _ | None -> ()

let rec visit st c cust m =
  note st c m;
  st.occupancy.(c).(m) <- st.occupancy.(c).(m) + 1;
  let mean = Network.service_time st.network ~cls:c ~station:m in
  let sname = Network.station_name st.network m in
  let finish () =
    note st c m;
    st.occupancy.(c).(m) <- st.occupancy.(c).(m) - 1;
    if st.measuring then
      st.completions.(c).(m) <- st.completions.(c).(m) + 1;
    visit st c cust (next_station st c)
  in
  match st.stations.(m) with
  | None ->
    (* Delay station: every customer progresses independently. *)
    let delay = Variate.exponential st.rng ~mean in
    let t0 = Engine.now st.engine in
    Engine.schedule st.engine ~delay (fun () ->
        span st ~c ~cust ~name:sname ~cat:"delay" ~t0 delay;
        finish ())
  | Some station ->
    let duration = Variate.exponential st.rng ~mean in
    let arrived = Engine.now st.engine in
    let started = ref arrived in
    Station.submit ~duration
      ~on_start:(fun () ->
        let now = Engine.now st.engine in
        started := now;
        if now > arrived then
          span st ~c ~cust ~name:(sname ^ ":queue") ~cat:"queue" ~t0:arrived
            (now -. arrived))
      station
      (fun () ->
        let now = Engine.now st.engine in
        span st ~c ~cust ~name:sname ~cat:"service" ~t0:!started
          (now -. !started);
        finish ())

let run ?(warmup = 1_000.) ?(horizon = 100_000.) ?trace network =
  if warmup < 0. || horizon <= 0. then
    invalid_arg "Network_sim.run: warmup >= 0 and horizon > 0";
  let num_cls = Network.num_classes network in
  let num_st = Network.num_stations network in
  let engine = Engine.create () in
  let rng = Prng.create ~seed:1 () in
  let stations =
    Array.init num_st (fun m ->
        match Network.station_kind network m with
        | Network.Delay -> None
        | Network.Queueing ->
          Some
            (Station.create engine ~rng:(Prng.split rng)
               ~name:(Network.station_name network m)
               ~service:(Variate.Exponential 1.))
        | Network.Multi_server c ->
          Some
            (Station.create ~servers:c engine ~rng:(Prng.split rng)
               ~name:(Network.station_name network m)
               ~service:(Variate.Exponential 1.)))
  in
  let visit_totals =
    Array.init num_cls (fun c ->
        let acc = ref 0. in
        for m = 0 to num_st - 1 do
          acc := !acc +. Network.visit network ~cls:c ~station:m
        done;
        !acc)
  in
  let st =
    {
      engine;
      rng;
      network;
      stations;
      visit_totals;
      occupancy = Array.make_matrix num_cls num_st 0;
      area = Array.make_matrix num_cls num_st 0.;
      last = Array.make_matrix num_cls num_st 0.;
      completions = Array.make_matrix num_cls num_st 0;
      measuring = false;
      trace;
    }
  in
  for c = 0 to num_cls - 1 do
    Option.iter
      (fun tr -> Ev.name_process tr c (Printf.sprintf "class%d" c))
      trace;
    for cust = 0 to Network.population network c - 1 do
      Option.iter
        (fun tr ->
          Ev.name_track tr ~pid:c cust (Printf.sprintf "customer%d" cust))
        trace;
      visit st c cust (next_station st c)
    done
  done;
  Engine.run ~until:warmup engine;
  (* reset the areas at the measurement start *)
  for c = 0 to num_cls - 1 do
    for m = 0 to num_st - 1 do
      st.area.(c).(m) <- 0.;
      st.last.(c).(m) <- Engine.now engine
    done
  done;
  st.measuring <- true;
  Engine.run ~until:(warmup +. horizon) engine;
  for c = 0 to num_cls - 1 do
    for m = 0 to num_st - 1 do
      note st c m
    done
  done;
  let throughput =
    Array.init num_cls (fun c ->
        if Float.equal visit_totals.(c) 0. then 0.
        else begin
          let total =
            Array.fold_left ( + ) 0 st.completions.(c)
          in
          float_of_int total /. visit_totals.(c) /. horizon
        end)
  in
  let queue =
    Array.init num_cls (fun c ->
        Array.init num_st (fun m -> st.area.(c).(m) /. horizon))
  in
  let residence =
    Array.init num_cls (fun c ->
        Array.init num_st (fun m ->
            if Float.equal throughput.(c) 0. then 0. else queue.(c).(m) /. throughput.(c)))
  in
  {
    solution =
      {
        Solution.network;
        throughput;
        residence;
        queue;
        iterations = Engine.events_processed engine;
        converged = true;
      };
    events = Engine.events_processed engine;
    sim_time = horizon;
  }
