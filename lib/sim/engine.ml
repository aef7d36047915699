type event = {
  time : float;
  seq : int;
  action : unit -> unit;
  mutable cancelled : bool;
}

type handle = event

(* Array-based binary min-heap ordered by (time, seq). *)
type t = {
  mutable heap : event array;
  mutable size : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable processed : int;
  mutable cancelled_pending : int;
}

let dummy_event =
  { time = 0.; seq = -1; action = (fun () -> ()); cancelled = true }

let create () =
  {
    heap = Array.make 64 dummy_event;
    size = 0;
    clock = 0.;
    next_seq = 0;
    processed = 0;
    cancelled_pending = 0;
  }

let now t = t.clock

let precedes a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* Doubling: the heap reallocates log2 (peak pending events) times per
   run, not per event. *)
let[@lattol.allow "hot-alloc"] grow t =
  let heap = Array.make (2 * Array.length t.heap) dummy_event in
  Array.blit t.heap 0 heap 0 t.size;
  t.heap <- heap

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if precedes t.heap.(i) t.heap.(parent) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(parent);
      t.heap.(parent) <- tmp;
      sift_up t parent
    end
  end

(* Runs once per drained event (from the [@lattol.hot] loop in [run]),
   so the candidate index threads through plain int bindings instead of a
   ref cell that would be a per-event minor allocation. *)
let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.size && precedes t.heap.(l) t.heap.(i) then l else i in
  let smallest =
    if r < t.size && precedes t.heap.(r) t.heap.(smallest) then r else smallest
  in
  if smallest <> i then begin
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(smallest);
    t.heap.(smallest) <- tmp;
    sift_down t smallest
  end

let push t ev =
  if t.size = Array.length t.heap then grow t;
  t.heap.(t.size) <- ev;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  t.heap.(0) <- t.heap.(t.size);
  t.heap.(t.size) <- dummy_event;
  if t.size > 0 then sift_down t 0;
  top

let schedule_at t ~time action =
  if not (Float.is_finite time) then invalid_arg "Engine.schedule_at: time not finite";
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  let ev = { time; seq = t.next_seq; action; cancelled = false } in
  t.next_seq <- t.next_seq + 1;
  push t ev

let schedule t ~delay action =
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) action

(* The event record is the handle the caller keeps for [cancel], so each
   call allocates one; reusing records would need handles that can tell
   a recycled record from the event they named. *)
let[@lattol.allow "hot-alloc"] schedule_cancellable t ~delay action =
  if delay < 0. then invalid_arg "Engine.schedule_cancellable: negative delay";
  let ev =
    { time = t.clock +. delay; seq = t.next_seq; action; cancelled = false }
  in
  t.next_seq <- t.next_seq + 1;
  push t ev;
  ev

let cancel t ev =
  if not ev.cancelled then begin
    ev.cancelled <- true;
    t.cancelled_pending <- t.cancelled_pending + 1
  end

(* Tail-recursive directly (not via an inner closure, which would be
   allocated on every call from the hot event loop). *)
let rec step t =
  if t.size = 0 then false
  else begin
    let ev = pop t in
    if ev.cancelled then begin
      t.cancelled_pending <- t.cancelled_pending - 1;
      step t
    end
    else begin
      t.clock <- ev.time;
      t.processed <- t.processed + 1;
      ev.action ();
      true
    end
  end

(* The event loop is the DES hot path; [@lattol.hot] keeps it (and the
   heap operations it reaches) allocation-flat under lattol-lint. *)
let[@lattol.hot] run ?until t =
  match until with
  | None -> while step t do () done
  | Some horizon ->
    (* Peek past cancelled events.  Defined outside the drain loop: a
       closure literal inside [while] would be allocated per event. *)
    let rec peek () =
      if t.size = 0 then None
      else if t.heap.(0).cancelled then begin
        let ev = pop t in
        ignore ev;
        t.cancelled_pending <- t.cancelled_pending - 1;
        peek ()
      end
      else Some t.heap.(0).time
    in
    let continue = ref true in
    while !continue do
      match peek () with
      | None -> continue := false
      | Some next_time ->
        if next_time > horizon then continue := false
        else ignore (step t)
    done;
    if t.clock < horizon then t.clock <- horizon

let events_processed t = t.processed

let pending t = t.size - t.cancelled_pending
