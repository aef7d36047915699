type t = {
  network : Network.t;
  throughput : float array;
  residence : float array array;
  queue : float array array;
  iterations : int;
  converged : bool;
}

let cycle_time t ~cls =
  Array.fold_left ( +. ) 0. t.residence.(cls)

let class_utilization t ~cls ~station =
  t.throughput.(cls) *. Network.demand t.network ~cls ~station

let utilization t ~station =
  let acc = ref 0. in
  for c = 0 to Network.num_classes t.network - 1 do
    acc := !acc +. class_utilization t ~cls:c ~station
  done;
  !acc

let queue_total t ~station =
  let acc = ref 0. in
  for c = 0 to Network.num_classes t.network - 1 do
    acc := !acc +. t.queue.(c).(station)
  done;
  !acc

let littles_law_residual t =
  let worst = ref 0. in
  for c = 0 to Network.num_classes t.network - 1 do
    let n = float_of_int (Network.population t.network c) in
    let via_little = t.throughput.(c) *. cycle_time t ~cls:c in
    let residual = abs_float (n -. via_little) /. Float.max 1. n in
    if residual > !worst then worst := residual
  done;
  !worst
