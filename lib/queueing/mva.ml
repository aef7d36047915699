(* Called once per solve, never per state vector: the fold closure and
   the defensive populations copy are amortized over the whole run. *)
let[@lattol.allow "hot-alloc"] num_states network =
  Array.fold_left
    (fun acc n -> acc * (n + 1))
    1
    (Network.populations network)

let max_states = 2_000_000

(* The exact-MVA recursion is the hottest solver loop in the repo
   (ROADMAP item 3): the lint's hot-alloc rule audits it — and everything
   it calls — for per-iteration allocation. *)
let[@lattol.hot] solve network =
  let num_cls = Network.num_classes network in
  let num_st = Network.num_stations network in
  let pops = Network.populations network in
  let nvec = num_states network in
  if nvec > max_states then
    Format.kasprintf invalid_arg
      "Mva.solve: %d population vectors exceed the %d cap; use Amva.solve"
      nvec max_states;
  (* Mixed-radix encoding of population vectors: digit c has radix
     pops.(c) + 1 and stride strides.(c).  Counting order visits n - e_c
     before n, so a single forward pass satisfies the recursion. *)
  let strides = Array.make num_cls 1 in
  for c = 1 to num_cls - 1 do
    strides.(c) <- strides.(c - 1) * (pops.(c - 1) + 1)
  done;
  (* One preallocated slab holds q_{c,m} of every population vector: the
     vector encoded by idx owns the [width] cells from [idx * width],
     q_{c,m} at offset [c * num_st + m].  Each block is written once, by
     its own iteration, and cells of a class with no population there
     keep their initial 0. *)
  let width = num_cls * num_st in
  let queues = Float.Array.make (nvec * width) 0. in
  let throughput = Array.make num_cls 0. in
  let residence = Array.make_matrix num_cls num_st 0. in
  (* Per-vector scratch is allocated once and reused across all [nvec]
     iterations (hot-alloc diet, ROADMAP item 3).  Reuse without
     clearing is sound: every cell read below was written in the same
     iteration, or is a (c, m) slot with zero visits / zero population
     that no iteration ever writes, so it keeps its initial 0. *)
  let n = Array.make num_cls 0 in
  let res = Array.make_matrix num_cls num_st 0. in
  let lambda = Array.make num_cls 0. in
  let cycle = ref 0. in
  let backlog = ref 0. in
  for idx = 0 to nvec - 1 do
    for c = 0 to num_cls - 1 do
      n.(c) <- idx / strides.(c) mod (pops.(c) + 1)
    done;
    let q = idx * width in
    for c = 0 to num_cls - 1 do
      if n.(c) > 0 then begin
        let q_minus = (idx - strides.(c)) * width in
        (* Residence times by the arrival theorem. *)
        cycle := 0.;
        for m = 0 to num_st - 1 do
          let v = Network.visit network ~cls:c ~station:m in
          if v > 0. then begin
            let s = Network.service_time network ~cls:c ~station:m in
            (* Arrival-theorem waiting time; Multi_server stations use
               the Seidmann decomposition (queueing part with service s/c
               plus a fixed delay s (c-1)/c).  The backlog sum is inlined
               per station kind with its scale factor so the inner loop
               allocates neither a closure nor an accumulator. *)
            let w =
              match Network.station_kind network m with
              | Network.Delay -> s
              | Network.Queueing ->
                backlog := 0.;
                for j = 0 to num_cls - 1 do
                  backlog :=
                    !backlog
                    +. Network.service_time network ~cls:j ~station:m
                       *. Float.Array.get queues (q_minus + (j * num_st) + m)
                done;
                s +. !backlog
              | Network.Multi_server servers ->
                (* An arrival occupies a free server immediately unless all
                   [c] are busy; the queueing excess beyond [c - 1] waiting
                   customers is served at the pooled rate [c / s]. *)
                let scale = 1. /. s in
                backlog := 0.;
                for j = 0 to num_cls - 1 do
                  backlog :=
                    !backlog
                    +. Network.service_time network ~cls:j ~station:m
                       *. scale
                       *. Float.Array.get queues (q_minus + (j * num_st) + m)
                done;
                let cf = float_of_int servers in
                let excess = Float.max 0. (!backlog -. (cf -. 1.)) in
                s +. (s /. cf *. excess)
            in
            res.(c).(m) <- v *. w;
            cycle := !cycle +. res.(c).(m)
          end
        done;
        lambda.(c) <- float_of_int n.(c) /. !cycle;
        for m = 0 to num_st - 1 do
          Float.Array.set queues
            (q + (c * num_st) + m)
            (lambda.(c) *. res.(c).(m))
        done
      end
    done;
    if idx = nvec - 1 then begin
      Array.blit lambda 0 throughput 0 num_cls;
      for c = 0 to num_cls - 1 do
        Array.blit res.(c) 0 residence.(c) 0 num_st
      done
    end
  done;
  let final_q = (nvec - 1) * width in
  (* Result assembly, once per solve: the per-class rows here are the
     returned solution, not per-state scratch. *)
  let[@lattol.allow "hot-alloc"] queue =
    Array.init num_cls (fun c ->
        Array.init num_st (fun m ->
            Float.Array.get queues (final_q + (c * num_st) + m)))
  in
  {
    Solution.network;
    throughput;
    residence;
    queue;
    iterations = 1;
    converged = true;
  }
