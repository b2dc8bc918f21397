(** The sharding router behind [mrm2 route]: a JSONL front-end over N
    replica [mrm2 serve] backends.

    Clients speak to the router exactly as they would to a single
    server ({!Mrm_server.Protocol} wire format, lockstep one request
    line / one response line). Each request is placed on a consistent
    hash ring ({!Ring}) keyed by its {!Mrm_batch.Batch.digest}, so
    repeat jobs always land on the replica whose LRU cache already
    holds the answer — the per-replica caches compose into one sharded
    distributed cache.

    {2 Failover}

    A forward that fails in transport, or that the backend answers with
    the SRV004 drain error, marks the replica down ({!Replica}) and the
    request retries on the ring's next successor; solves are
    deterministic, so the retried answer is bit-for-bit identical. A
    prober thread health-checks every replica each [probe_interval];
    a downed replica rejoins after [readmit_after] consecutive healthy
    probes. When no healthy candidate remains (or [max_attempts]
    forwards all failed) the client receives SRV006.

    {2 Shedding}

    Admission is per-replica ({!Shed}): a request whose owner is at
    [max_inflight] in-flight forwards is rejected with the existing
    SRV002 backpressure error — overload does {e not} spill to other
    replicas.

    {2 Control requests}

    The router answers [{"cluster":"stats"}] itself with a snapshot of
    the [cluster.*] metrics and per-replica health, without touching a
    backend.

    {2 Metrics}

    Counters [cluster.connections], [cluster.requests],
    [cluster.parse_errors], [cluster.forwarded], [cluster.failovers],
    [cluster.shed], [cluster.unavailable], [cluster.probes],
    [cluster.probe_failures], [cluster.marked_down],
    [cluster.readmitted]; gauges [cluster.replicas_up] and
    [cluster.inflight_peak]. Each proxied request runs inside a
    [cluster.request] trace span carrying the job id, digest, the
    serving replica and the number of forward attempts. *)

type config = {
  listen : Mrm_server.Server.endpoint;
  backends : (string * Mrm_server.Server.endpoint) list;
      (** [(name, endpoint)]; names must be distinct — they are the
          ring member identities, so keep them stable across restarts
          to keep cache placement stable. *)
  vnodes : int;  (** virtual nodes per backend on the ring *)
  probe_interval : float;  (** seconds between health-probe rounds *)
  probe_timeout : float;  (** per-probe connect/read budget, seconds *)
  readmit_after : int;  (** consecutive healthy probes to rejoin *)
  max_inflight : int;  (** per-replica in-flight cap (shed above) *)
  max_attempts : int;  (** forwards per request before SRV006 *)
  io_timeout : float;  (** per-forward send/receive budget, seconds *)
  default_eps : float;  (** [eps] for jobs that do not set one *)
}

val default_config :
  listen:Mrm_server.Server.endpoint ->
  backends:(string * Mrm_server.Server.endpoint) list -> config
(** [vnodes = 64], [probe_interval = 1.0], [probe_timeout = 1.0],
    [readmit_after = 2], [max_inflight = 32], [max_attempts = 3],
    [io_timeout = 30.], [default_eps = 1e-9]. *)

type handle

val start : config -> handle
(** Start a {!Mrm_server.Listener} on the listen endpoint (the
    server's stale-socket rules) and spawn the prober thread.
    @raise Invalid_argument on an empty or duplicate-named backend
    list, [max_attempts < 1] or [readmit_after < 1].
    @raise Unix.Unix_error when the endpoint cannot be bound. *)

val listen_address : handle -> Unix.sockaddr
(** The bound address — for [`Tcp (host, 0)] this carries the port. *)

val drain : handle -> unit
(** Begin graceful shutdown (idempotent, signal-safe): stop accepting,
    half-close idle client connections, let in-flight forwards finish. *)

val wait : handle -> unit
(** Block until drained: acceptor, prober and every connection handler
    joined, replica pools closed, sockets closed (and a Unix listen
    path unlinked). *)

val run : ?on_ready:(Unix.sockaddr -> unit) -> config -> int
(** [mrm2 route] main loop: {!start} under
    {!Mrm_server.Listener.with_shutdown_signals} (SIGTERM/SIGINT trigger
    {!drain}), call [on_ready] with the bound address, {!wait}. Returns
    0 on graceful shutdown. *)
