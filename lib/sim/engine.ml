type status = Pending | Fired | Cancelled

type handle = { mutable status : status }

(* Array-based binary min-heap ordered by (time, seq), kept as parallel
   arrays so that scheduling an event allocates nothing.  The heap holds
   only unboxed times, sequence numbers and slot numbers, so reordering
   it writes no pointer; an event's action and cancellation handle sit in
   its slot, which stays put until the event leaves the heap.  Events
   scheduled without a handle share the engine's [plain] one, which
   nothing can cancel.  Heap index [capacity] is scratch: [push] parks
   the new event there while its hole rises. *)
type t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;
  mutable actions : (unit -> unit) array; (* by slot *)
  mutable handles : handle array;         (* by slot *)
  mutable free : int array; (* free slots, a stack of [n_free] *)
  mutable n_free : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable processed : int;
  mutable cancelled_pending : int;
  plain : handle;
}

let initial_capacity = 64

let create () =
  let plain = { status = Pending } and cap = initial_capacity in
  {
    times = Float.Array.make (cap + 1) 0.;
    seqs = Array.make (cap + 1) 0;
    slots = Array.make (cap + 1) 0;
    size = 0;
    actions = Array.make cap ignore;
    handles = Array.make cap plain;
    free = Array.init cap (fun i -> i);
    n_free = cap;
    clock = 0.;
    next_seq = 0;
    processed = 0;
    cancelled_pending = 0;
    plain;
  }

let now t = t.clock

let capacity t = Array.length t.actions

(* Heap entry [i] fires before entry [j]. *)
let precedes t i j =
  let ti = Float.Array.unsafe_get t.times i
  and tj = Float.Array.unsafe_get t.times j in
  ti < tj || (Float.equal ti tj && t.seqs.(i) < t.seqs.(j))

let move t ~src ~dst =
  Float.Array.unsafe_set t.times dst (Float.Array.unsafe_get t.times src);
  t.seqs.(dst) <- t.seqs.(src);
  t.slots.(dst) <- t.slots.(src)

(* Doubling: the heap reallocates log2 (peak pending events) times per
   run, not per event.  It is full, so every old slot is taken and the
   new ones are free. *)
let[@lattol.allow "hot-alloc"] grow t =
  let cap = capacity t in
  let cap' = 2 * cap in
  let times = Float.Array.make (cap' + 1) 0. in
  Float.Array.blit t.times 0 times 0 t.size;
  let seqs = Array.make (cap' + 1) 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  let slots = Array.make (cap' + 1) 0 in
  Array.blit t.slots 0 slots 0 t.size;
  let actions = Array.make cap' ignore in
  Array.blit t.actions 0 actions 0 cap;
  let handles = Array.make cap' t.plain in
  Array.blit t.handles 0 handles 0 cap;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.actions <- actions;
  t.handles <- handles;
  t.free <- Array.init cap' (fun i -> cap' - 1 - i);
  t.n_free <- cap

(* The hole at [i] rises while the event in entry [src] precedes its
   parent; the event then fills it.  Plain int arguments: a ref cell
   would be a per-event minor allocation. *)
let rec sift_up t ~src i =
  let parent = (i - 1) / 2 in
  if i > 0 && precedes t src parent then begin
    move t ~src:parent ~dst:i;
    sift_up t ~src parent
  end
  else move t ~src ~dst:i

(* The hole at [i] sinks while a child precedes the event in entry [src]
   (the former last entry, outside the heap once [size] dropped). *)
let rec sift_down t ~src i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.size && precedes t l src then l else src in
  let smallest =
    if r < t.size && precedes t r smallest then r else smallest
  in
  if smallest = src then move t ~src ~dst:i
  else begin
    move t ~src:smallest ~dst:i;
    sift_down t ~src smallest
  end

(* Park an event's time in the scratch entry, growing first if the heap
   is full.  Inlined, so the time stays unboxed on its way in. *)
let[@inline] park t time =
  if t.size = capacity t then grow t;
  Float.Array.unsafe_set t.times (capacity t) time

(* Enter the event whose time [park] left in the scratch entry. *)
let push t action h =
  let scratch = capacity t in
  t.n_free <- t.n_free - 1;
  let slot = t.free.(t.n_free) in
  t.actions.(slot) <- action;
  t.handles.(slot) <- h;
  t.seqs.(scratch) <- t.next_seq;
  t.slots.(scratch) <- slot;
  t.next_seq <- t.next_seq + 1;
  sift_up t ~src:scratch t.size;
  t.size <- t.size + 1

(* Drop the root and free its slot; the caller has read what it needs
   from them.  The slot lets go of its action and handle. *)
let pop t =
  let slot = t.slots.(0) in
  t.actions.(slot) <- ignore;
  t.handles.(slot) <- t.plain;
  t.free.(t.n_free) <- slot;
  t.n_free <- t.n_free + 1;
  t.size <- t.size - 1;
  if t.size > 0 then sift_down t ~src:t.size 0

(* A time must be finite and not in the past: a NaN would order
   nowhere in the heap and drag the clock to NaN when it fired. *)
let[@inline] check_time t time ~not_finite ~past =
  if not (Float.is_finite time) then invalid_arg not_finite;
  if time < t.clock then invalid_arg past

let schedule_at t ~time action =
  check_time t time ~not_finite:"Engine.schedule_at: time not finite"
    ~past:"Engine.schedule_at: time in the past";
  park t time;
  push t action t.plain

let schedule t ~delay action =
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  let time = t.clock +. delay in
  check_time t time ~not_finite:"Engine.schedule: delay not finite"
    ~past:"Engine.schedule: negative delay";
  park t time;
  push t action t.plain

(* The handle is the one allocation: the caller keeps it for [cancel]. *)
let[@lattol.allow "hot-alloc"] schedule_cancellable t ~delay action =
  if delay < 0. then invalid_arg "Engine.schedule_cancellable: negative delay";
  let time = t.clock +. delay in
  check_time t time
    ~not_finite:"Engine.schedule_cancellable: delay not finite"
    ~past:"Engine.schedule_cancellable: negative delay";
  let h = { status = Pending } in
  park t time;
  push t action h;
  h

let cancel t h =
  match h.status with
  | Pending ->
    h.status <- Cancelled;
    t.cancelled_pending <- t.cancelled_pending + 1
  | Fired | Cancelled -> ()

(* Fire the root event, or drop it if it was cancelled. *)
let step t =
  let slot = t.slots.(0) in
  let h = t.handles.(slot) in
  match h.status with
  | Cancelled ->
    pop t;
    t.cancelled_pending <- t.cancelled_pending - 1
  | Pending | Fired ->
    let time = Float.Array.unsafe_get t.times 0 and action = t.actions.(slot) in
    pop t;
    h.status <- Fired;
    t.clock <- time;
    t.processed <- t.processed + 1;
    action ()

(* The event loop is the DES hot path; [@lattol.hot] keeps it (and the
   heap operations it reaches) allocation-flat under lattol-lint.  With a
   horizon it peeks at the root's time in place; a cancelled root is
   dropped without the horizon test, as it would never fire. *)
let[@lattol.hot] run ?until t =
  match until with
  | None -> while t.size > 0 do step t done
  | Some horizon ->
    while
      t.size > 0
      && (t.handles.(t.slots.(0)).status = Cancelled
         || Float.Array.unsafe_get t.times 0 <= horizon)
    do
      step t
    done;
    if t.clock < horizon then t.clock <- horizon

let events_processed t = t.processed

let pending t = t.size - t.cancelled_pending
