type station_kind = Queueing | Delay | Multi_server of int

type job_class = {
  class_name : string;
  population : int;
  visits : float array;
  service : float array;
}

type t = {
  station_names : string array;
  station_kinds : station_kind array;
  classes : job_class array;
  demands : float array array; (* demands.(c).(m) *)
}

let invalid fmt = Format.kasprintf invalid_arg fmt

let make ~stations ~classes =
  let m = Array.length stations in
  if m = 0 then invalid "Network.make: no stations";
  Array.iteri
    (fun i (_, kind) ->
      match kind with
      | Multi_server c when c < 1 ->
        invalid "Network.make: station %d has %d servers" i c
      | Multi_server _ | Queueing | Delay -> ())
    stations;
  if Array.length classes = 0 then invalid "Network.make: no classes";
  Array.iteri
    (fun c cls ->
      if Array.length cls.visits <> m then
        invalid "Network.make: class %s has %d visit entries for %d stations"
          cls.class_name (Array.length cls.visits) m;
      if Array.length cls.service <> m then
        invalid "Network.make: class %s has %d service entries for %d stations"
          cls.class_name (Array.length cls.service) m;
      if cls.population < 0 then
        invalid "Network.make: class %s has negative population" cls.class_name;
      Array.iteri
        (fun s v ->
          if v < 0. || not (Float.is_finite v) then
            invalid "Network.make: class %s visit ratio %g at station %d"
              cls.class_name v s)
        cls.visits;
      Array.iteri
        (fun s v ->
          if v < 0. || not (Float.is_finite v) then
            invalid "Network.make: class %s service time %g at station %d"
              cls.class_name v s)
        cls.service;
      let demand = ref 0. in
      Array.iteri (fun s v -> demand := !demand +. (v *. cls.service.(s))) cls.visits;
      if cls.population > 0 && !demand <= 0. then
        invalid "Network.make: class %s has population but zero total demand"
          cls.class_name;
      ignore c)
    classes;
  let demands =
    Array.map
      (fun cls -> Array.mapi (fun s v -> v *. cls.service.(s)) cls.visits)
      classes
  in
  {
    station_names = Array.map fst stations;
    station_kinds = Array.map snd stations;
    classes;
    demands;
  }

let num_stations t = Array.length t.station_names

let num_classes t = Array.length t.classes

let station_name t m = t.station_names.(m)

let station_kind t m = t.station_kinds.(m)

let class_name t c = t.classes.(c).class_name

let population t c = t.classes.(c).population

(* Defensive copy by design; solvers call it once per solve, outside
   their per-state loops. *)
let[@lattol.allow "hot-alloc"] populations t =
  Array.map (fun c -> c.population) t.classes

let total_population t =
  Array.fold_left (fun acc c -> acc + c.population) 0 t.classes

let visit t ~cls ~station = t.classes.(cls).visits.(station)

let service_time t ~cls ~station = t.classes.(cls).service.(station)

let demand t ~cls ~station = t.demands.(cls).(station)

let total_demand t ~cls = Array.fold_left ( +. ) 0. t.demands.(cls)

let bottleneck t ~cls =
  let best = ref 0 in
  Array.iteri
    (fun m d -> if d > t.demands.(cls).(!best) then best := m)
    t.demands.(cls);
  !best

let with_population t pops =
  if Array.length pops <> num_classes t then
    invalid "Network.with_population: %d populations for %d classes"
      (Array.length pops) (num_classes t);
  let classes =
    Array.mapi (fun c cls -> { cls with population = pops.(c) }) t.classes
  in
  { t with classes }
