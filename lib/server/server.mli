(** The resident solver service behind [mrm2 serve].

    A server listens on a Unix-domain socket or a TCP address, speaks
    the {!Protocol} JSONL wire format over any number of concurrent
    connections, and answers each request one of two ways:

    - a cache hit — an unexpired request whose
      {!Mrm_batch.Batch.digest} keys an entry of the {!Lru_cache} — is
      answered bit-for-bit from the response bytes stored when the job
      was first solved ({!Protocol.cached_body}), with only the
      requester's id spliced in. It skips validation: only jobs that
      passed it and solved are cached, and the digest covers every
      input {!Protocol.validate} reads;
    - every other request goes through server-side model validation
      ({!Protocol.validate}, [SRV005] with MRM0xx diagnostics over the
      wire instead of a crashed connection), a bounded {!Rqueue}
      (explicit [SRV002] backpressure when full), and solver worker
      threads that run cache misses as one-job {!Mrm_batch.Batch.run}s
      on the shared {!Mrm_engine.Pool}.

    {2 Threading model}

    The sockets belong to a {!Listener}: one acceptor thread and one
    handler thread per connection, which parses each request line,
    answers a cache hit itself, and validates and enqueues the rest, so
    a hit never waits behind a solve or a full queue. Beside them run
    [workers] solver threads, and [pool_jobs - 1] pool domains shared by
    all solves ({!Mrm_engine.Pool} serializes concurrent runs, so extra
    workers overlap deadline rejections with a running solve rather
    than oversubscribing cores). With [workers = 1] the per-request
    trace spans ([server.request]) of queued requests nest correctly; a
    hit's span is a {!Mrm_obs.Trace.with_root_span}, which leaves that
    nesting alone. More workers keep metrics exact but interleave span
    emission.

    {2 Graceful drain}

    {!drain} (hooked to SIGTERM/SIGINT by {!run}) drains the
    {!Listener} — stop accepting, half-close idle connections — while
    in-flight solves finish and every pending response is flushed; only
    then does {!wait} return, and the [mrm2 serve] process exits 0.

    {2 Metrics}

    [server.connections], [server.requests], [server.parse_errors],
    [server.validation_failures], [server.rejected] (queue-full
    backpressure), [server.timeouts] (deadline expiries),
    [server.cache_hits], [server.cache_misses],
    [server.cache_evictions], [server.drains]; gauges
    [server.queue_peak] (high-watermark queue depth) and
    [server.cache_entries]. *)

type endpoint = [ `Unix of string | `Tcp of string * int ]

type config = {
  endpoint : endpoint;
  queue_capacity : int;  (** bounded request queue (backpressure point) *)
  cache_entries : int;  (** LRU result-cache entry cap *)
  cache_bytes : int;  (** LRU result-cache cap on the stored response bytes *)
  workers : int;  (** solver worker threads *)
  pool_jobs : int;  (** domains of the shared solve pool (1 = sequential) *)
  default_eps : float;  (** [eps] for jobs that do not set one *)
  validate : bool;  (** run {!Protocol.validate} before solving *)
}

val default_config : endpoint -> config
(** [queue_capacity = 64], [cache_entries = 256], [cache_bytes =
    64 MiB], [workers = 1], [pool_jobs = 1], [default_eps = 1e-9],
    [validate = true]. *)

type handle

val start : config -> handle
(** Start a {!Listener} on the endpoint (same stale-socket rules) and
    spawn the worker threads, then return.
    @raise Unix.Unix_error when the endpoint cannot be bound. *)

val listen_address : handle -> Unix.sockaddr
(** The bound address — for [`Tcp (host, 0)] this carries the actual
    port. *)

val drain : handle -> unit
(** Begin graceful shutdown (idempotent, callable from any thread or
    from a signal context): stop accepting, finish accepted work, wake
    {!wait}. *)

val wait : handle -> unit
(** Block until the server has fully drained: acceptor and every
    connection handler joined, queue empty, workers joined, sockets
    closed (and the Unix socket path unlinked). *)

val run : ?on_ready:(Unix.sockaddr -> unit) -> config -> int
(** {!start} under {!Listener.with_shutdown_signals} (SIGTERM/SIGINT
    trigger {!drain}), call [on_ready] with the bound address, and
    {!wait}. Returns 0 — the [mrm2 serve] exit code for a graceful
    shutdown. *)
