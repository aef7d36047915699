type point = {
  n_t : int;
  runlength : float;
  work : float;
  measures : Measures.t;
  tol_network : float;
  tol_memory : float;
}

let evaluate base ~n_t ~runlength =
  if n_t < 1 then invalid_arg "Partitioning.evaluate: n_t >= 1";
  if runlength <= 0. then invalid_arg "Partitioning.evaluate: runlength > 0";
  let p = { base with Params.n_t; runlength } in
  let net = Tolerance.network p in
  let mem = Tolerance.memory p in
  {
    n_t;
    runlength;
    work = float_of_int n_t *. runlength;
    measures = net.Tolerance.real;
    tol_network = net.Tolerance.tol;
    tol_memory = mem.Tolerance.tol;
  }

let sweep base ~work ~n_ts =
  if work <= 0. then invalid_arg "Partitioning.sweep: work > 0";
  List.map
    (fun n_t -> evaluate base ~n_t ~runlength:(work /. float_of_int n_t))
    n_ts

let best = function
  | [] -> invalid_arg "Partitioning.best: empty sweep"
  | first :: rest ->
    List.fold_left
      (fun acc p ->
        if
          p.measures.Measures.u_p > acc.measures.Measures.u_p
          || (Float.equal p.measures.Measures.u_p acc.measures.Measures.u_p
              && p.n_t < acc.n_t)
        then p
        else acc)
      first rest

let pp_point ppf p =
  Fmt.pf ppf
    "@[n_t=%2d R=%6.3g (work %g): U_p=%.4f tol_net=%.4f tol_mem=%.4f \
     S_obs=%.2f L_obs=%.2f@]"
    p.n_t p.runlength p.work p.measures.Measures.u_p p.tol_network
    p.tol_memory p.measures.Measures.s_obs p.measures.Measures.l_obs
