open Lattol_stats
module Engine = Lattol_sim.Engine

type stats = {
  time : float;
  events : int;
  firings : int array;
  rates : float array;
  place_mean : float array;
  busy : float array;
}

type state = {
  net : Petri.t;
  engine : Engine.t;
  rng : Prng.t;
  marking : int array;
  (* Timed-transition services in progress: [active.(tr)] pending engine
     events, oldest first in [handles.(tr)], with their completion times
     at the same index of [due.(tr)].  Both arrays grow on demand and
     single-server transitions never hold more than one. *)
  handles : Engine.handle array array;
  due : float array array;
  active : int array;
  (* One completion callback per transition, shared by all its services:
     the completing service is the earliest due one. *)
  complete : (unit -> unit) array;
  (* Consumers refreshed during the current firing carry its number. *)
  stamp : int array;
  mutable firing : int;
  (* Enabled immediates, a stack lazily maintained (flags are exact): an
     entry whose flag dropped is removed at the next compaction.  Picks
     walk it from the top, [n_imms - 1]. *)
  imms : int array;
  mutable n_imms : int;
  imm_flag : bool array;
  (* statistics *)
  firings : int array;
  place_area : float array;
  place_last : float array;
  busy_area : float array; (* integral of in-progress services over time *)
  busy_last : float array;
  mutable stats_start : float;
  mutable events : int;
}

let note_place st p =
  let now = Engine.now st.engine in
  st.place_area.(p) <-
    st.place_area.(p)
    +. (float_of_int st.marking.(p) *. (now -. st.place_last.(p)));
  st.place_last.(p) <- now

let note_busy st tr =
  let now = Engine.now st.engine in
  st.busy_area.(tr) <-
    st.busy_area.(tr)
    +. (float_of_int st.active.(tr) *. (now -. st.busy_last.(tr)));
  st.busy_last.(tr) <- now

(* Arrays double when full, so growth is amortized over the run: a
   transition reallocates at most log2 (its peak degree) times. *)
let[@lattol.allow "hot-alloc"] add_service st tr h ~delay =
  let n = st.active.(tr) in
  let due = Engine.now st.engine +. delay in
  if n = Array.length st.handles.(tr) then begin
    let cap = max 1 (2 * n) in
    let handles = Array.make cap h and dues = Array.make cap due in
    Array.blit st.handles.(tr) 0 handles 0 n;
    Array.blit st.due.(tr) 0 dues 0 n;
    st.handles.(tr) <- handles;
    st.due.(tr) <- dues
  end;
  st.handles.(tr).(n) <- h;
  st.due.(tr).(n) <- due;
  st.active.(tr) <- n + 1

(* Drop the service whose completion event is firing.  The engine fires
   in (time, schedule order), and the arrays keep schedule order, so it
   is the first of the earliest due services. *)
let remove_completed st tr =
  let handles = st.handles.(tr) and due = st.due.(tr) in
  let n = st.active.(tr) in
  let first = ref 0 in
  for i = 1 to n - 1 do
    if due.(i) < due.(!first) then first := i
  done;
  for i = !first to n - 2 do
    handles.(i) <- handles.(i + 1);
    due.(i) <- due.(i + 1)
  done;
  st.active.(tr) <- n - 1

(* Start or cancel services until [tr] has [target] in progress. *)
let reschedule st tr dist target =
  let active = st.active.(tr) in
  if active <> target then begin
    note_busy st tr;
    if active < target then
      for _ = active + 1 to target do
        let delay = Variate.draw dist st.rng in
        let h = Engine.schedule_cancellable st.engine ~delay st.complete.(tr) in
        add_service st tr h ~delay
      done
    else begin
      (* Cancel the most recently started services (any choice is
         equivalent for exponential timings; for others this is the
         documented resampling approximation). *)
      for i = active - 1 downto target do
        Engine.cancel st.engine st.handles.(tr).(i)
      done;
      st.active.(tr) <- target
    end
  end

(* Bring one transition's scheduling in line with the current marking. *)
let[@lattol.hot] refresh st tr =
  match Petri.timing st.net tr with
  | Petri.Immediate _ ->
    if Petri.enabled st.net ~marking:st.marking tr then begin
      if not st.imm_flag.(tr) then begin
        st.imm_flag.(tr) <- true;
        st.imms.(st.n_imms) <- tr;
        st.n_imms <- st.n_imms + 1
      end
    end
    else st.imm_flag.(tr) <- false
  | Petri.Timed dist ->
    reschedule st tr dist
      (if Petri.enabled st.net ~marking:st.marking tr then 1 else 0)
  | Petri.Timed_infinite dist ->
    reschedule st tr dist (Petri.enabling_degree st.net ~marking:st.marking tr)

let refresh_consumers st p =
  let consumers = Petri.consumers st.net p in
  for i = 0 to Array.length consumers - 1 do
    let tr = consumers.(i) in
    if st.stamp.(tr) <> st.firing then begin
      st.stamp.(tr) <- st.firing;
      refresh st tr
    end
  done

(* Apply one firing: mutate the marking (with token-time accounting) and
   refresh, once each, the transitions that consume a changed place —
   outputs in reverse arc order, then inputs in reverse.  A timed
   transition consumes its own inputs, so this also reschedules it.
   Does not drain immediates — callers decide. *)
let[@lattol.hot] apply_firing_no_drain st tr =
  st.events <- st.events + 1;
  st.firings.(tr) <- st.firings.(tr) + 1;
  let inputs = Petri.inputs st.net tr and outputs = Petri.outputs st.net tr in
  for i = 0 to Array.length inputs - 1 do
    let p, mult = inputs.(i) in
    note_place st p;
    st.marking.(p) <- st.marking.(p) - mult
  done;
  for i = 0 to Array.length outputs - 1 do
    let p, mult = outputs.(i) in
    note_place st p;
    st.marking.(p) <- st.marking.(p) + mult
  done;
  st.firing <- st.firing + 1;
  for i = Array.length outputs - 1 downto 0 do
    refresh_consumers st (fst outputs.(i))
  done;
  for i = Array.length inputs - 1 downto 0 do
    refresh_consumers st (fst inputs.(i))
  done

let weight st tr =
  match Petri.timing st.net tr with
  | Petri.Immediate w -> w
  | Petri.Timed _ | Petri.Timed_infinite _ -> assert false

(* Fire enabled immediates, one random pick (proportional to weight) at a
   time, until none is enabled.  The picked transition keeps its flag and
   its entry: the refresh after its firing clears the flag if the firing
   disabled it, so a still-enabled immediate is counted once. *)
let[@lattol.hot] drain_immediates st =
  (* All loop state is bound here: lattol-lint counts a [ref] made in a
     loop body as a per-iteration allocation. *)
  let budget = ref 1_000_000 and draining = ref true in
  let live = ref 0 and total = ref 0. in
  let i = ref 0 and acc = ref 0. and picked = ref 0 in
  while !draining do
    (* Compact: reverse the entries and keep those whose flag is up,
       summing their weights in their pick order before the reversal.
       Picks walk from the top, so immediates enabled since the last
       compaction come first, newest first, and the survivors follow in
       the reverse of their previous pick order.  Each seed's sample path
       depends on this order. *)
    let imms = st.imms and n = st.n_imms in
    for j = 0 to (n / 2) - 1 do
      let tr = imms.(j) in
      imms.(j) <- imms.(n - 1 - j);
      imms.(n - 1 - j) <- tr
    done;
    live := 0;
    total := 0.;
    for j = 0 to n - 1 do
      let tr = imms.(j) in
      if st.imm_flag.(tr) then begin
        imms.(!live) <- tr;
        incr live;
        total := !total +. weight st tr
      end
    done;
    st.n_imms <- !live;
    if !live = 0 then draining := false
    else begin
      decr budget;
      if !budget <= 0 then
        failwith
          "Simulation: immediate-transition livelock (1e6 firings at one \
           instant)";
      (* The first entry whose cumulative weight exceeds the draw, else
         the last one. *)
      let x = Prng.float st.rng *. !total in
      i := !live - 1;
      acc := 0.;
      picked := -1;
      while !picked < 0 do
        let tr = imms.(!i) in
        let w = weight st tr in
        if !i = 0 || x < !acc +. w then picked := tr
        else begin
          acc := !acc +. w;
          decr i
        end
      done;
      apply_firing_no_drain st !picked
    end
  done

(* A timed service completed. *)
let complete st tr () =
  (* Integrate the busy interval before dropping the service, or the
     completed service would be accounted at degree zero. *)
  note_busy st tr;
  remove_completed st tr;
  apply_firing_no_drain st tr;
  drain_immediates st

let reset_stats st =
  let now = Engine.now st.engine in
  st.stats_start <- now;
  Array.fill st.firings 0 (Array.length st.firings) 0;
  Array.fill st.place_area 0 (Array.length st.place_area) 0.;
  Array.fill st.place_last 0 (Array.length st.place_last) now;
  Array.fill st.busy_area 0 (Array.length st.busy_area) 0.;
  Array.fill st.busy_last 0 (Array.length st.busy_last) now;
  st.events <- 0

let simulate ?(seed = 1) ?(warmup = 0.) ~horizon net =
  if warmup < 0. || horizon <= 0. then
    invalid_arg "Simulation.simulate: warmup >= 0, horizon > 0";
  let engine = Engine.create () in
  let np = Petri.num_places net and nt = Petri.num_transitions net in
  let st =
    {
      net;
      engine;
      rng = Prng.create ~seed ();
      marking = Petri.initial_marking net;
      handles = Array.make nt [||];
      due = Array.make nt [||];
      active = Array.make nt 0;
      complete = Array.make nt ignore;
      stamp = Array.make nt 0;
      firing = 0;
      imms = Array.make nt 0;
      n_imms = 0;
      imm_flag = Array.make nt false;
      firings = Array.make nt 0;
      place_area = Array.make np 0.;
      place_last = Array.make np 0.;
      busy_area = Array.make nt 0.;
      busy_last = Array.make nt 0.;
      stats_start = 0.;
      events = 0;
    }
  in
  for tr = 0 to nt - 1 do
    st.complete.(tr) <- complete st tr;
    refresh st tr
  done;
  drain_immediates st;
  Engine.run ~until:warmup engine;
  reset_stats st;
  Engine.run ~until:(warmup +. horizon) engine;
  (* Flush running accumulators to the final clock. *)
  for p = 0 to np - 1 do
    note_place st p
  done;
  for tr = 0 to nt - 1 do
    note_busy st tr
  done;
  {
    time = horizon;
    events = st.events;
    firings = Array.copy st.firings;
    rates = Array.map (fun f -> float_of_int f /. horizon) st.firings;
    place_mean = Array.map (fun a -> a /. horizon) st.place_area;
    busy = Array.map (fun a -> a /. horizon) st.busy_area;
  }
