(* Correctness accounting for one benchmark run.

   Every unit of work the benchmark asks for counts as one attempt: a grid
   point, a replication, or an oracle check on an output.  A point that
   came back as an error row, a replication that is missing, and a check
   that does not hold each count as one failure.  The ratio of failures to
   attempts is the run's failed ratio; the benchmark reports its
   complement, [pass_ratio], because a metric that is 0 on a healthy run
   cannot carry a relative regression bound. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failures : string list;  (* newest first, capped *)
}

let create () = { attempted = 0; failed = 0; first_failures = [] }

let keep = 20

let note t what =
  if List.length t.first_failures < keep then
    t.first_failures <- what :: t.first_failures

let check t ~ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    note t what
  end

let work t ~attempted ~failed what =
  if attempted < 0 || failed < 0 || failed > attempted then
    invalid_arg "Tally.work: need 0 <= failed <= attempted";
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed;
  if failed > 0 then note t (Printf.sprintf "%s: %d of %d failed" what failed attempted)

let attempted t = t.attempted
let failed t = t.failed
let correct t = t.attempted > 0 && t.failed = 0

let failed_ratio t =
  if t.attempted = 0 then 1. else float_of_int t.failed /. float_of_int t.attempted

let pass_ratio t = 1. -. failed_ratio t

let failures t = List.rev t.first_failures
