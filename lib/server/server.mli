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
      wire instead of a crashed connection), then waits for the solve
      slot (explicit [SRV002] backpressure when [queue_capacity] misses
      already wait), and is solved as a one-job
      {!Mrm_batch.Batch.run} on the shared {!Mrm_engine.Pool}.

    {2 Threading model}

    The sockets belong to a {!Listener}: one acceptor thread and one
    handler thread per connection, which parses each request line and
    answers it itself. A cache hit is answered at once, so it never
    waits behind a solve or a full queue. A miss takes a ticket for
    the solve slot, a FIFO lock that lets one solve run at a time —
    the systhreads of one domain never run in parallel, and the pool
    runs a second concurrent solve sequentially anyway — and is solved
    on its own handler thread once its turn comes. The pool's
    [pool_jobs - 1] domains parallelize that one solve. Only the slot
    holder opens nested trace spans ([server.request] and the solver's
    spans under it); a hit's span is a {!Mrm_obs.Trace.with_root_span},
    which leaves that nesting alone.

    {2 Graceful drain}

    {!drain} (hooked to SIGTERM/SIGINT by {!run}) drains the
    {!Listener} — stop accepting, half-close idle connections — while
    every accepted request, waiting or solving, is answered and its
    response flushed; only then does {!wait} return, and the
    [mrm2 serve] process exits 0.

    {2 Metrics}

    [server.connections], [server.requests], [server.parse_errors],
    [server.validation_failures], [server.rejected] (queue-full
    backpressure), [server.timeouts] (deadline expiries),
    [server.cache_hits], [server.cache_misses],
    [server.cache_evictions], [server.drains]; gauges
    [server.queue_peak] (high-watermark depth of the solve-slot queue:
    an arriving miss plus the misses waiting ahead of it) and
    [server.cache_entries]. *)

type endpoint = [ `Unix of string | `Tcp of string * int ]

type config = {
  endpoint : endpoint;
  queue_capacity : int;
      (** cache misses that may wait for the running solve (>= 1); one
          more is answered [SRV002] (backpressure) *)
  cache_entries : int;  (** LRU result-cache entry cap *)
  cache_bytes : int;  (** LRU result-cache cap on the stored response bytes *)
  pool_jobs : int;  (** domains of the shared solve pool (1 = sequential) *)
  default_eps : float;  (** [eps] for jobs that do not set one *)
  validate : bool;  (** run {!Protocol.validate} before solving *)
}

val default_config : endpoint -> config
(** [queue_capacity = 64], [cache_entries = 256], [cache_bytes =
    64 MiB], [pool_jobs = 1], [default_eps = 1e-9], [validate = true]. *)

type handle

val start : config -> handle
(** Start a {!Listener} on the endpoint (same stale-socket rules),
    then create the pool and return.
    @raise Invalid_argument when [queue_capacity], [cache_entries] or
    [cache_bytes] is below 1, before anything is bound.
    @raise Unix.Unix_error when the endpoint cannot be bound. *)

val listen_address : handle -> Unix.sockaddr
(** The bound address — for [`Tcp (host, 0)] this carries the actual
    port. *)

val drain : handle -> unit
(** Begin graceful shutdown (idempotent, callable from any thread or
    from a signal context): stop accepting, finish accepted work, wake
    {!wait}. *)

val wait : handle -> unit
(** Block until the server has fully drained: acceptor joined, every
    connection handler exited with its requests answered (so no solve
    is in flight), sockets closed (and the Unix socket path unlinked),
    pool shut down. *)

val run : ?on_ready:(Unix.sockaddr -> unit) -> config -> int
(** {!start} under {!Listener.with_shutdown_signals} (SIGTERM/SIGINT
    trigger {!drain}), call [on_ready] with the bound address, and
    {!wait}. Returns 0 — the [mrm2 serve] exit code for a graceful
    shutdown. *)
