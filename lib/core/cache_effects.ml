type t = {
  cache_lines : int;
  working_set : int;
  miss_rate_floor : float;
  cycles_per_access : float;
}

let default =
  {
    cache_lines = 1024;
    working_set = 256;
    miss_rate_floor = 0.05;
    cycles_per_access = 1.;
  }

let validate t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  if t.cache_lines < 1 then err "cache_lines %d must be >= 1" t.cache_lines
  else if t.working_set < 1 then err "working_set %d must be >= 1" t.working_set
  else if t.miss_rate_floor <= 0. || t.miss_rate_floor > 1. then
    err "miss_rate_floor %g must lie in (0, 1]" t.miss_rate_floor
  else if t.cycles_per_access <= 0. then
    err "cycles_per_access %g must be > 0" t.cycles_per_access
  else Ok t

let validate_exn t =
  match validate t with Ok t -> t | Error msg -> invalid_arg ("Cache_effects: " ^ msg)

let hit_rate t ~n_t =
  let t = validate_exn t in
  if n_t < 1 then invalid_arg "Cache_effects.hit_rate: n_t >= 1";
  let resident =
    Float.min 1.
      (float_of_int t.cache_lines /. float_of_int (n_t * t.working_set))
  in
  (* A thread hits when the line is resident and the access is not an
     irreducible miss. *)
  resident *. (1. -. t.miss_rate_floor)

let runlength t ~n_t =
  let miss = 1. -. hit_rate t ~n_t in
  t.cycles_per_access /. miss

let apply t ~base ~n_t =
  Params.validate_exn
    { base with Params.n_t; runlength = runlength t ~n_t }

type point = {
  n_t : int;
  effective_runlength : float;
  hit_rate : float;
  measures : Measures.t;
  tol_network : float;
}

let evaluate t ~base ~n_t =
  let p = apply t ~base ~n_t in
  let report = Tolerance.network p in
  {
    n_t;
    effective_runlength = p.Params.runlength;
    hit_rate = hit_rate t ~n_t;
    measures = report.Tolerance.real;
    tol_network = report.Tolerance.tol;
  }

let sweep t ~base ~n_ts = List.map (fun n_t -> evaluate t ~base ~n_t) n_ts

let best_thread_count t ~base ~max_threads =
  if max_threads < 1 then
    invalid_arg "Cache_effects.best_thread_count: max_threads >= 1";
  let points = sweep t ~base ~n_ts:(List.init max_threads succ) in
  match points with
  | [] -> assert false
  | first :: rest ->
    List.fold_left
      (fun acc pt ->
        if pt.measures.Measures.u_p > acc.measures.Measures.u_p then pt else acc)
      first rest

let pp_point ppf pt =
  Fmt.pf ppf
    "@[n_t=%2d hit=%.3f R_eff=%6.2f U_p=%.4f tol_net=%.4f@]" pt.n_t
    pt.hit_rate pt.effective_runlength pt.measures.Measures.u_p pt.tol_network
