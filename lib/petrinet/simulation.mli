(** Token-game simulation of stochastic timed Petri nets.

    Semantics:
    - {e timed} transitions are single servers with race policy and
      enabling memory: a newly enabled transition samples a service delay
      and keeps it while it stays enabled; losing its tokens cancels the
      service, and a transition that remains enabled after firing starts a
      fresh service;
    - {e timed infinite-server} transitions keep one independent service
      per unit of enabling degree; when the degree drops, the most recently
      started services are cancelled (exact for exponential timings, a
      resampling approximation otherwise);
    - {e immediate} transitions fire in zero time with priority over timed
      ones; conflicts among simultaneously enabled immediates are resolved
      at random, proportionally to their weights.  Each pick weighs every
      enabled immediate once, including one that is still enabled after
      its own firing.

    A firing refreshes only the transitions that consume a place it
    changed, each once: the places' consumers, outputs in reverse arc
    order, then inputs in reverse.  Enabling depends only on input
    places, so every other transition is already in line with the
    marking; a timed transition consumes its own inputs, so its firing
    reschedules it too.  Service delays are drawn, and newly enabled
    immediates queued, in this refresh order.  On the MMS nets of
    {!Mms_stpn} a transition whose enabling rises is always reached first
    through a place it consumes, so the order matches refreshing every
    transition on a touched place, inputs and outputs alike.  On other
    nets it can differ when such a transition also produces into a place
    visited earlier: a seed then draws a different sample path from the
    same distribution.

    The firing path allocates nothing per event of its own: enabling
    tests are plain loops, services in progress live in per-transition
    arrays that double when full, and each transition has one completion
    callback shared by its services.  What remains per service is the
    engine's cancellation handle and the delay draw.

    The stationary estimates this produces (time-averaged markings, firing
    rates, busy fractions) are what the paper reports from its STPN runs. *)

type stats = {
  time : float;           (** measured (post-warm-up) simulated time *)
  events : int;
  firings : int array;    (** per transition, during measurement *)
  rates : float array;    (** firings / time *)
  place_mean : float array;  (** time-averaged token counts *)
  busy : float array;
      (** per timed transition: time-average number of services in progress
          (for single-server transitions this is the busy fraction; 0 for
          immediates) *)
}

val simulate :
  ?seed:int -> ?warmup:float -> horizon:float -> Petri.t -> stats
(** Simulate from the initial marking.  [warmup] (default 0) time units are
    discarded before statistics accumulate over [horizon] time units.
    Raises [Failure] if an unbounded cascade of immediate firings occurs
    (more than 1e6 at one instant). *)
