(** Named monotonic counters and gauges for the solver stack.

    Counters and gauges are process-global, created on first use and
    registered by name; repeated {!counter}/{!gauge} calls with the same
    name return the same underlying cell. Updates are atomic, so pool
    workers (OCaml 5 domains) can record concurrently; creation and
    {!snapshot}/{!reset} serialize on an internal lock.

    {!reset} zeroes values but keeps every registered cell alive, so
    handles held at module-initialization time stay valid for the whole
    process.

    Metric names recorded by the instrumented stack:
    - [randomization.solves], [randomization.iterations] (total Poisson
      terms, i.e. summed truncation points [G]),
      [randomization.terms_skipped] (zero-weight fast path),
      [randomization.truncation_point] (gauge: last [G]);
    - [ode.solves], [ode.steps];
    - [bounds.prepare], [bounds.hankel_order] (gauge: Gauss nodes
      accepted by {!Mrm_core.Moment_bounds.prepare}),
      [bounds.orders_rejected];
    - [pool.runs], [pool.jobs] (tasks executed by the domain pool),
      [partition.imbalance] (gauge: worst observed
      [parts * max_part_nnz / total_nnz], 1.0 = perfectly balanced);
    - [batch.jobs], [batch.dedup_hits];
    - the solver service ([mrm2 serve]): [server.connections],
      [server.requests], [server.parse_errors],
      [server.validation_failures], [server.rejected] (queue-full
      backpressure), [server.timeouts] (deadline expiries),
      [server.cache_hits], [server.cache_misses],
      [server.cache_evictions], [server.drains]; gauges
      [server.queue_peak] (high-watermark depth of the solve-slot
      queue: an arriving cache miss plus the misses waiting ahead of
      it) and
      [server.cache_entries];
    - the sharding router ([mrm2 route]): [cluster.connections],
      [cluster.requests], [cluster.parse_errors], [cluster.forwarded],
      [cluster.failovers] (failed forward attempts retried on the next
      ring successor), [cluster.shed] (SRV002 per-replica in-flight cap),
      [cluster.unavailable] (SRV006: no healthy replica),
      [cluster.probes], [cluster.probe_failures], [cluster.marked_down]
      (up->down transitions, passive or probe-detected),
      [cluster.readmitted]; gauges [cluster.replicas_up] and
      [cluster.inflight_peak] (high-watermark forwarded requests in
      flight across all replicas). *)

type counter
type gauge

val counter : string -> counter
(** Find or create the monotonic counter with this name (initially 0). *)

val incr : ?by:int -> counter -> unit
(** Atomically add [by] (default 1; must be [>= 0]). *)

val count : counter -> int

val gauge : string -> gauge
(** Find or create the gauge with this name (initially [nan] = unset). *)

val set : gauge -> float -> unit
(** Record the latest value. *)

val observe_max : gauge -> float -> unit
(** Keep the running maximum of the observed values. *)

val gauge_value : gauge -> float
(** Current value; [nan] when never set since creation or {!reset}. *)

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;  (** sorted by name; unset gauges omitted *)
}

val snapshot : unit -> snapshot

val reset : unit -> unit
(** Zero all counters and unset all gauges, keeping every cell
    registered (existing handles remain valid). *)

val pp_report : Format.formatter -> unit -> unit
(** Human-readable table of the current snapshot. *)

val to_json : unit -> Mrm_util.Json.t
(** [{"counters": {...}, "gauges": {...}}] of the current snapshot. *)
