(** Closed-loop load generator behind [mrm2 loadgen].

    [workers] threads each hold one persistent connection to the target
    — the {!Router} or a single [mrm2 serve] replica, both speak the
    same JSONL protocol — and replay [mrm2 call]-style lockstep
    sessions drawn from a skewed key distribution over [keys] distinct
    job specs. The workload (who sends which key when) is a pure
    function of [seed]; only timing varies between runs.

    {!run} returns the benchmark record: request counts by outcome
    (ok/cached/shed/error/disconnect), elapsed wall-clock, throughput,
    ok-latency percentiles (p50/p95/p99/mean/max, milliseconds), cache
    hit rate and shed rate — plus, when the target is a router, its
    [{"cluster":"stats"}] snapshot (failover and probe counters,
    per-replica health) under a ["router"] key. *)

type config = {
  endpoint : Mrm_server.Server.endpoint;
  requests : int;  (** total requests across all workers *)
  workers : int;  (** concurrent closed-loop sessions *)
  keys : int;  (** distinct job specs in the key pool *)
  skew : float;  (** 0 = uniform; larger = hotter head keys *)
  size : int;  (** model size of every job ([onoff] built-in) *)
  order : int;  (** highest moment order per job *)
  seed : int64;  (** workload RNG seed *)
  io_timeout : float;  (** per-exchange send/receive budget, seconds *)
}

val default_config : Mrm_server.Server.endpoint -> config
(** [requests = 1000], [workers = 8], [keys = 50], [skew = 1.0],
    [size = 6], [order = 3], [seed = 42L], [io_timeout = 60.]. *)

val key_weights : keys:int -> skew:float -> float array
(** Zipf-like weights [1/(k+1)^skew] for keys [0 .. keys-1].
    @raise Invalid_argument when [keys < 1] or [skew < 0]. *)

val key_sampler :
  keys:int -> skew:float -> Mrm_util.Rng.t -> unit -> int
(** A sampling closure over the {!key_weights} distribution;
    deterministic for a given generator state. *)

val percentile : float array -> float -> float
(** [percentile sorted q] is the nearest-rank [q]-th percentile of an
    ascending-sorted sample: the element at 1-based rank
    [ceil (q * n)], clamped to the array — an observed value, never an
    interpolation. [q] is clamped to [[0, 1]]; [q = 0] returns the
    minimum, the empty array gives [nan]. Exposed for the unit tests
    pinning the small-sample behaviour (p99 of fewer than 100 samples
    is the maximum, and never aliases p95 through fractional-index
    rounding). *)

val job_line : config -> int -> string
(** The JSONL job spec for key [k]: a deterministic point on a
    (reward-variance × horizon) parameter grid, so distinct keys have
    distinct {!Mrm_batch.Batch.digest}s. *)

val run : config -> Mrm_util.Json.t
(** Execute the workload and return the benchmark record. Workers that
    cannot reach the target count their requests as [dropped] rather
    than blocking forever.
    @raise Invalid_argument when [requests < 1] or [workers < 1]. *)
