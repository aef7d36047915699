(* Bounded retry with exponential backoff, and per-task deadlines.

   This module owns the wall-clock reads the execution engine needs:
   lib/exec is scoped deterministic (see the det-wallclock lint rule), so
   its retry timers and deadline checks live here with the supervisor's
   other time machinery.  Results never depend on these clocks — they
   only decide when to try again and when to give up. *)

type classification = Transient | Fatal

exception Deadline_exceeded

type policy = {
  max_attempts : int;
  base_delay : float;
  max_delay : float;
  jitter : float;
}

(* Transient: the environment misbehaved (injected chaos, an expired
   deadline, a flaky filesystem call) — the same computation may well
   succeed on a fresh attempt.  Everything else is treated as a
   deterministic error that retrying can only repeat. *)
let default_classify = function
  | Chaos.Injected_fault _ | Deadline_exceeded -> Transient
  | Sys_error _ | Unix.Unix_error (_, _, _) -> Transient
  | _ -> Fatal

let policy ?(max_attempts = 3) ?(base_delay = 0.05) ?(max_delay = 1.)
    ?(jitter = 0.5) () =
  if max_attempts < 1 then
    invalid_arg "Retry.policy: max_attempts must be at least 1";
  if base_delay < 0. then
    invalid_arg "Retry.policy: base_delay must be non-negative";
  if max_delay < base_delay then
    invalid_arg "Retry.policy: max_delay must be at least base_delay";
  if jitter < 0. then invalid_arg "Retry.policy: jitter must be non-negative";
  { max_attempts; base_delay; max_delay; jitter }

(* Deterministic jitter: a hash of (salt, attempt) desynchronizes workers
   retrying the same backoff rung without drawing from an ambient PRNG
   (which replay and the solve cache could never see). *)
let frac h = float_of_int (h land 0xFFFF) /. 65536.

let delay p ~attempt ~salt =
  let rung =
    Float.min p.max_delay
      (p.base_delay *. Float.pow 2. (float_of_int (attempt - 1)))
  in
  rung *. (1. +. (p.jitter *. frac (Hashtbl.hash (salt, attempt, "retry"))))

let sleep seconds = if seconds > 0. then Unix.sleepf seconds

let now = Unix.gettimeofday

type deadline = { expires : float }

let start ~timeout = { expires = now () +. timeout }

let expired d = now () > d.expires

let check d = if expired d then raise Deadline_exceeded
