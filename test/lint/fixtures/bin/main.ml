(* Fixture: the executable that links the fixture libraries, so their
   interfaces export nothing dead-export could flag. *)
let () =
  let started = Good_retry.now () in
  ignore (Good_clock.stamp () +. Good_profiler.sample ());
  Log.emit "started";
  Good_serve.announce (string_of_float (Good_serve.heartbeat ()));
  ignore (Good_retry.deadline_expired ~started ~timeout:1.)
