(** Dependency-free HTTP/1.0 metrics exporter.

    One background [Domain] owns a listening socket — TCP on loopback or a
    Unix-domain path — and answers:

    - [GET /metrics]: Prometheus text exposition ({!Prom.render}) of the
      snapshot callback;
    - [GET /metrics.json]: the registry JSON document, byte-identical to
      what {!Lattol_obs.Metrics.write_json_snapshot} flushes to
      [--metrics-out], so a final scrape equals the written file;
    - [GET /healthz]: ["ok\n"] (200) while the health callback reports
      nothing, ["degraded: <reason>\n"] (503) once it does — e.g.
      ["degraded: 1 corrupt cache records"] once the solve cache has met
      a record that fails its checksum;
    - [GET /runtime.json]: the live runtime-profiler counters when a
      [runtime] callback was supplied (typically
      [Lattol_obs.Runtime_profile.live_json]), or
      [{"profiling":false}] (404) when profiling is off;
    - [GET /trace.json]: the live causal-trace report when a [trace]
      callback was supplied (typically {!Lattol_obs.Trace_report.to_json}
      over the run's recorder), or [{"tracing":false}] (404) when tracing
      is off.

    Every request re-samples the snapshot callback, so scrapes observe the
    live run.  Connections are serial (scrape traffic, not serving
    traffic): one request per connection, [Connection: close].  {!stop} is
    graceful — the accept loop drains its current request, the domain is
    joined, the socket closed (and unlinked for Unix paths). *)

type endpoint =
  | Tcp of int  (** bind 127.0.0.1:port; 0 picks an ephemeral port *)
  | Unix_path of string  (** bind a Unix-domain socket at this path *)

type t

val start :
  ?health:(unit -> string option) ->
  ?runtime:(unit -> string) ->
  ?trace:(unit -> string) ->
  snapshot:(unit -> Lattol_obs.Metrics.snapshot) ->
  endpoint ->
  (t, string) result
(** Bind, listen and spawn the serving domain.  [snapshot] is called on
    the serving domain at every scrape: it must be domain-safe (registry
    snapshots and {!Progress.to_snapshot} are).  [health] is sampled on
    every [/healthz] probe, also on the serving domain: [None] keeps the
    probe ["ok"], [Some reason] turns it 503 degraded (a raising callback
    reads as degraded too, never as a wedged endpoint).  Default: always
    healthy.  [Error] carries the bind failure ([EADDRINUSE], a bad
    path...); nothing is spawned then.  Starting an exporter ignores
    [SIGPIPE] process-wide — a scraper hanging up mid-response must not
    kill the run. *)

val address : t -> string
(** Human-readable bound address: ["127.0.0.1:43017"] or the socket
    path. *)

val scrapes : t -> int
(** Requests answered so far (any route). *)

val stop : t -> unit
(** Graceful shutdown; idempotent.  Blocks until the serving domain has
    joined. *)
