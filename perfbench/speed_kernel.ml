(* Host speed probe, run as its own process by speed.ml.

   Usage: speed_kernel DOMAINS REPS

   Runs a fixed kernel — plain OCaml list building and sorting, no
   repository code — on DOMAINS domains at once, REPS times, and prints
   the median wall time of one kernel and the median process CPU time of
   one kernel (every domain), in seconds.  It shares no heap and no GC
   state with the benchmark, so a change to the code under test cannot
   change its speed. *)

let work () =
  let acc = ref 0. in
  for r = 1 to 20 do
    let l = List.init 5000 (fun i -> float_of_int (((i * 7919) + r) mod 5003)) in
    acc := !acc +. List.fold_left ( +. ) 0. (List.sort Float.compare l)
  done;
  Sys.opaque_identity !acc

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let once domains =
  let c0 = cpu_now () in
  let t0 = Unix.gettimeofday () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn work) in
  ignore (work ());
  List.iter (fun d -> ignore (Domain.join d)) others;
  (Unix.gettimeofday () -. t0, cpu_now () -. c0)

let median a =
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let () =
  match Array.map int_of_string_opt Sys.argv with
  | [| _; Some domains; Some reps |] when domains >= 1 && reps >= 1 ->
    let runs = Array.init reps (fun _ -> once domains) in
    Printf.printf "%.9f %.9f\n" (median (Array.map fst runs)) (median (Array.map snd runs))
  | _ ->
    prerr_endline "usage: speed_kernel DOMAINS REPS";
    exit 2
