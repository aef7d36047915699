open Lattol_stats
open Lattol_topology
open Lattol_core

type layout = {
  net : Petri.t;
  params : Params.t;
  exec : Petri.transition array;
  ready : Petri.place array;
  route_remote : Petri.transition list;
  thread_places : Petri.place list array;
  mem_idle : Petri.place array;
  out_idle : Petri.place array;
  in_idle : Petri.place array;
  req_stage_places : Petri.place list;
  resp_stage_places : Petri.place list;
  mem_queue_places : Petri.place list;
}

type memory_distribution = Exponential_memory | Deterministic_memory

let build ?(memory = Exponential_memory) ?faults p =
  (* The token game has no native failure-repair transitions; mirror the
     DES fault plan quasi-statically by inflating the affected service
     times to their availability-weighted means. *)
  let p =
    match faults with
    | None -> p
    | Some plan -> Lattol_robust.Fault_plan.degrade_params plan p
  in
  let p = Params.validate_exn p in
  if p.Params.n_t < 1 then invalid_arg "Mms_stpn.build: n_t >= 1";
  if p.Params.l_mem <= 0. || p.Params.s_switch <= 0. then
    invalid_arg "Mms_stpn.build: L and S must be positive";
  if p.Params.sync_unit > 0. then
    invalid_arg
      "Mms_stpn.build: synchronization units are not modelled in the STPN \
       (use the analytical model or the DES)";
  let topo = Params.make_topology p in
  let access = Params.make_access p in
  let n = Params.num_processors p in
  let b = Petri.Builder.create () in
  let exp_t mean = Petri.Timed (Variate.Exponential mean) in
  let memory_variate mean =
    match memory with
    | Exponential_memory -> Variate.Exponential mean
    | Deterministic_memory -> Variate.Deterministic mean
  in
  (* Per-node foundations. *)
  let ready =
    Array.init n (fun i ->
        Petri.Builder.add_place b ~initial:p.Params.n_t (Printf.sprintf "ready%d" i))
  in
  let issued =
    Array.init n (fun i -> Petri.Builder.add_place b (Printf.sprintf "issued%d" i))
  in
  let mem_idle =
    Array.init n (fun i ->
        Petri.Builder.add_place b ~initial:p.Params.mem_ports
          (Printf.sprintf "mem_idle%d" i))
  in
  let out_idle =
    Array.init n (fun i ->
        Petri.Builder.add_place b ~initial:p.Params.switch_pipeline
          (Printf.sprintf "out_idle%d" i))
  in
  let in_idle =
    Array.init n (fun i ->
        Petri.Builder.add_place b ~initial:p.Params.switch_pipeline
          (Printf.sprintf "in_idle%d" i))
  in
  let exec =
    Array.init n (fun i ->
        Petri.Builder.add_transition b
          (Printf.sprintf "exec%d" i)
          (exp_t (Params.processor_occupancy p))
          ~inputs:[ (ready.(i), 1) ]
          ~outputs:[ (issued.(i), 1) ])
  in
  let thread_places = Array.init n (fun i -> [ issued.(i); ready.(i) ]) in
  let req_stages = ref [] and resp_stages = ref [] and mem_stages = ref [] in
  let route_remote = ref [] in
  let note_thread i pl = thread_places.(i) <- pl :: thread_places.(i) in
  (* A shared single server: immediate grab (queue + idle -> in-service),
     timed serve (in-service -> continuation + idle). *)
  let server ?variate ~who ~idle ~service ~queue_place ~next i =
    let q = queue_place in
    let s = Petri.Builder.add_place b (who ^ ".s") in
    note_thread i s;
    let _grab =
      Petri.Builder.add_transition b (who ^ ".grab") (Petri.Immediate 1.)
        ~inputs:[ (q, 1); (idle, 1) ]
        ~outputs:[ (s, 1) ]
    in
    (* Infinite-server semantics: with [c] idle tokens a flow can hold up
       to [c] concurrent services, each progressing independently. *)
    let dist =
      match variate with Some v -> v | None -> Variate.Exponential service
    in
    let _serve =
      Petri.Builder.add_transition b (who ^ ".serve")
        (Petri.Timed_infinite dist)
        ~inputs:[ (s, 1) ]
        ~outputs:((idle, 1) :: next)
    in
    s
  in
  for i = 0 to n - 1 do
    for dst = 0 to n - 1 do
      let em = Access.prob access ~src:i ~dst in
      if em > 0. then begin
        if dst = i then begin
          (* Local access: issued -> memory -> ready. *)
          let mq = Petri.Builder.add_place b (Printf.sprintf "mq%d_%d" i dst) in
          note_thread i mq;
          let tr =
            Petri.Builder.add_transition b
              (Printf.sprintf "loc%d" i)
              (Petri.Immediate em)
              ~inputs:[ (issued.(i), 1) ]
              ~outputs:[ (mq, 1) ]
          in
          ignore tr;
          let ms =
            server
              ~variate:(memory_variate p.Params.l_mem)
              ~who:(Printf.sprintf "mem%d<%d" dst i)
              ~idle:mem_idle.(dst) ~service:p.Params.l_mem ~queue_place:mq
              ~next:[ (ready.(i), 1) ]
              i
          in
          mem_stages := ms :: mq :: !mem_stages
        end
        else begin
          (* Remote access: out switch, inbound hops, memory, and back. *)
          let flow = Printf.sprintf "f%d_%d" i dst in
          let oq = Petri.Builder.add_place b (flow ^ ".oq") in
          note_thread i oq;
          let tr =
            Petri.Builder.add_transition b
              (Printf.sprintf "rt%d_%d" i dst)
              (Petri.Immediate em)
              ~inputs:[ (issued.(i), 1) ]
              ~outputs:[ (oq, 1) ]
          in
          route_remote := tr :: !route_remote;
          (* Build the chain back-to-front: final continuation is ready_i. *)
          let request_route = Topology.route topo ~src:i ~dst in
          let response_route = Topology.route topo ~src:dst ~dst:i in
          (* Response inbound hops. *)
          let final = (ready.(i), 1) in
          let resp_entry, resp_places =
            List.fold_right
              (fun hop (next, places) ->
                let q =
                  Petri.Builder.add_place b
                    (Printf.sprintf "%s.rq@%d" flow hop)
                in
                note_thread i q;
                let s =
                  server
                    ~who:(Printf.sprintf "in%d<%s.r" hop flow)
                    ~idle:in_idle.(hop) ~service:p.Params.s_switch
                    ~queue_place:q ~next:[ next ] i
                in
                ((q, 1), s :: q :: places))
              response_route (final, [])
          in
          (* Response outbound switch at dst. *)
          let orq = Petri.Builder.add_place b (flow ^ ".orq") in
          note_thread i orq;
          let ors =
            server
              ~who:(Printf.sprintf "out%d<%s.r" dst flow)
              ~idle:out_idle.(dst) ~service:p.Params.s_switch ~queue_place:orq
              ~next:[ resp_entry ] i
          in
          resp_stages := ors :: orq :: resp_places @ !resp_stages;
          (* Memory at dst. *)
          let mq = Petri.Builder.add_place b (flow ^ ".mq") in
          note_thread i mq;
          let ms =
            server
              ~variate:(memory_variate p.Params.l_mem)
              ~who:(Printf.sprintf "mem%d<%s" dst flow)
              ~idle:mem_idle.(dst) ~service:p.Params.l_mem ~queue_place:mq
              ~next:[ (orq, 1) ]
              i
          in
          mem_stages := ms :: mq :: !mem_stages;
          (* Request inbound hops, ending at the memory queue. *)
          let req_entry, req_places =
            List.fold_right
              (fun hop (next, places) ->
                let q =
                  Petri.Builder.add_place b
                    (Printf.sprintf "%s.q@%d" flow hop)
                in
                note_thread i q;
                let s =
                  server
                    ~who:(Printf.sprintf "in%d<%s" hop flow)
                    ~idle:in_idle.(hop) ~service:p.Params.s_switch
                    ~queue_place:q ~next:[ next ] i
                in
                ((q, 1), s :: q :: places))
              request_route
              ((mq, 1), [])
          in
          (* Request outbound switch at the source. *)
          let os =
            server
              ~who:(Printf.sprintf "out%d<%s" i flow)
              ~idle:out_idle.(i) ~service:p.Params.s_switch ~queue_place:oq
              ~next:[ req_entry ] i
          in
          req_stages := os :: oq :: req_places @ !req_stages
        end
      end
    done
  done;
  {
    net = Petri.Builder.build b;
    params = p;
    exec;
    ready;
    route_remote = !route_remote;
    thread_places;
    mem_idle;
    out_idle;
    in_idle;
    req_stage_places = !req_stages;
    resp_stage_places = !resp_stages;
    mem_queue_places = !mem_stages;
  }

let sum_places values places =
  List.fold_left (fun acc pl -> acc +. values.(pl)) 0. places

let measures_of ~layout ~place_mean ~exec_rate ~exec_busy ~remote_rate =
  let p = layout.params in
  let n = float_of_int (Params.num_processors p) in
  let lambda = exec_rate /. n in
  let lambda_net = remote_rate /. n in
  let switch_tokens =
    sum_places place_mean layout.req_stage_places
    +. sum_places place_mean layout.resp_stage_places
  in
  let mem_tokens = sum_places place_mean layout.mem_queue_places in
  let s_obs =
    if remote_rate > 0. then switch_tokens /. (2. *. remote_rate) else nan
  in
  let l_obs = if exec_rate > 0. then mem_tokens /. exec_rate else 0. in
  let idle_mean places =
    Array.fold_left (fun acc pl -> acc +. place_mean.(pl)) 0. places
    /. float_of_int (Array.length places)
  in
  {
    Measures.u_p = exec_busy /. n;
    lambda;
    lambda_net;
    s_obs;
    l_obs;
    cycle_time = (if lambda > 0. then float_of_int p.Params.n_t /. lambda else 0.);
    util_memory = 1. -. idle_mean layout.mem_idle;
    util_sync = 0.;
    su_obs = 0.;
    util_switch_in = 1. -. idle_mean layout.in_idle;
    util_switch_out = 1. -. idle_mean layout.out_idle;
    queue_processor = 0.;
    queue_memory = mem_tokens /. n;
    queue_network = switch_tokens /. n;
    iterations = 0;
    converged = true;
  }

type result = {
  measures : Measures.t;
  stats : Simulation.stats;
  layout : layout;
}

let run_layout ?(seed = 1) ?(warmup = 1_000.) ?(horizon = 100_000.) layout =
  let stats = Simulation.simulate ~seed ~warmup ~horizon layout.net in
  let exec_rate =
    Array.fold_left (fun acc tr -> acc +. stats.Simulation.rates.(tr)) 0. layout.exec
  in
  let exec_busy =
    Array.fold_left (fun acc tr -> acc +. stats.Simulation.busy.(tr)) 0. layout.exec
  in
  let remote_rate =
    List.fold_left
      (fun acc tr -> acc +. stats.Simulation.rates.(tr))
      0. layout.route_remote
  in
  let measures =
    measures_of ~layout ~place_mean:stats.Simulation.place_mean ~exec_rate
      ~exec_busy ~remote_rate
    |> fun m ->
    {
      m with
      Measures.queue_processor =
        Array.fold_left
          (fun acc pl -> acc +. stats.Simulation.place_mean.(pl))
          0. layout.ready
        /. float_of_int (Array.length layout.ready);
      iterations = stats.Simulation.events;
    }
  in
  { measures; stats; layout }

let run ?seed ?warmup ?horizon ?memory ?faults p =
  run_layout ?seed ?warmup ?horizon (build ?memory ?faults p)

let exact p =
  let layout = build p in
  let graph = Reachability.explore ~max_states:200_000 layout.net in
  let pi = Reachability.steady_state graph in
  let place_mean =
    Array.init (Petri.num_places layout.net) (fun pl ->
        Reachability.place_mean graph ~pi pl)
  in
  let exec_rate =
    Array.fold_left
      (fun acc tr -> acc +. Reachability.throughput graph ~pi tr)
      0. layout.exec
  in
  let exec_busy =
    (* The processor works whenever its ready pool is non-empty. *)
    Array.fold_left
      (fun acc ready_place ->
        acc +. Reachability.probability_nonempty graph ~pi ready_place)
      0. layout.ready
  in
  (* Remote rate: flux through timed exec is split by immediate routing; the
     remote fraction equals p_remote by construction. *)
  let remote_rate = exec_rate *. layout.params.Params.p_remote in
  measures_of ~layout ~place_mean ~exec_rate ~exec_busy ~remote_rate
