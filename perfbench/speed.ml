(* Host speed calibration.

   On a shared host the same batch can take twice as long ten minutes
   later, while a run of tens of seconds sees a steadier speed.  The
   benchmark therefore samples a fixed kernel every two seconds of each
   run and reports every time in reference-host units:

     reported = measured * reference_s / median kernel wall of the run

   (rates the other way round).  Scaling each batch by the samples taken
   nearest to it instead was no steadier: one sample is too short and too
   noisy to stand for the host's speed over a batch.  The warm sweep waits
   mostly on journal fsyncs, which the kernel does not exercise, and raw
   walls were tried for it: they spread less over seeds while the host
   held still, but followed its drift (the raw batch_s.p50 fell by a
   quarter over five minutes of one set), while the scaled spread of
   batch_s.p90 stayed under 0.10 in all six sets of five to ten seeds.

   CPU time is scaled by the kernel's CPU time instead of its wall: when
   the host takes a core away from the benchmark, walls stretch but CPU
   time does not, and a wall factor then distorts CPU time.  Over ten
   seeds of replicate_sim, during which the kernel wall rose by up to
   47%, the wall factor tripled the spread of cpu_ms_per_point (IQR/median
   0.07 raw, 0.19 scaled).

   The kernel runs in a separate process, speed_kernel.exe beside the
   benchmark executable (see speed_kernel.ml), so neither the live heap
   nor the GC settings of the code under test change its speed: a change
   to that code moves the measured times but not the kernel, while drift
   of the host moves both.  The raw values are kept in the result file. *)

let reference_s = 0.025

(* Process CPU time of one reference kernel, on both domains. *)
let reference_cpu_s = 0.05

(* Kernels per sample; the sample is their median. *)
let reps = 3

let exe () = Filename.concat (Filename.dirname Sys.executable_name) "speed_kernel.exe"

(* One sample: the kernel's median wall and CPU time. *)
let run_kernel () =
  let exe = exe () in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; string_of_int Inputs.jobs; string_of_int reps |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  let parsed =
    match String.split_on_char ' ' (String.trim out) with
    | [ wall; cpu ] -> (float_of_string_opt wall, float_of_string_opt cpu)
    | _ -> (None, None)
  in
  match (Unix.waitpid [] pid, parsed) with
  | (_, Unix.WEXITED 0), (Some wall, Some cpu) when wall > 0. && cpu > 0. -> (wall, cpu)
  | _ -> failwith ("speed kernel failed: " ^ exe)

(* (time taken, wall, CPU time), newest first. *)
let samples = ref []
let last = ref neg_infinity

let sample_every period =
  if Unix.gettimeofday () -. !last >= period then begin
    let wall, cpu = run_kernel () in
    last := Unix.gettimeofday ();
    samples := (!last, wall, cpu) :: !samples
  end

let kernel_s () =
  match !samples with [] -> reference_s | s -> Sample.median (List.map (fun (_, w, _) -> w) s)

let kernel_cpu_s () =
  match !samples with
  | [] -> reference_cpu_s
  | s -> Sample.median (List.map (fun (_, _, c) -> c) s)

let wall_factor () = reference_s /. kernel_s ()
let cpu_factor () = reference_cpu_s /. kernel_cpu_s ()

(* The scaling of a metric measured in wall time. *)
let normalize ~unit v =
  let factor = wall_factor () in
  match unit with
  | "s" | "ms" | "us" -> v *. factor
  | "1/s" -> v /. factor
  | _ -> v
