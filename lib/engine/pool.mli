(** Fixed-size domain pool — the execution layer the randomization
    sweep ({!Kernel.sweep} over {!run_pinned}) and the batch front-end
    ({!map_array}) run on.

    On OCaml 5 a pool owns [jobs - 1] worker domains plus the calling
    domain; work is handed out dynamically (an atomic index counter),
    so uneven tasks self-balance. On OCaml 4.14 the same API executes
    in the caller (see {!Pool_backend}); code written against this
    module never needs a version guard.

    Sizing: [create ()] uses [MRM2_JOBS] when set, otherwise
    [Domain.recommended_domain_count ()]. A pool with [jobs = 1] never
    spawns domains and adds zero overhead — sequential behaviour is the
    safe default everywhere a pool is optional. *)

type t

val parallelism_available : bool
(** False when the backend cannot run domains in parallel (OCaml
    4.14); pools still work, sequentially. *)

val default_jobs : unit -> int
(** [MRM2_JOBS] when it holds an integer >= 1, else
    [Domain.recommended_domain_count ()] (1 on the sequential
    backend). *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] on OCaml 5, [1] on the
    sequential backend — the machine's usable core count, ignoring
    [MRM2_JOBS]. Lets callers (benchmarks, smoke tests) distinguish "the
    user asked for N domains" from "the hardware can actually run N". *)

val create : ?jobs:int -> unit -> t
(** [jobs] defaults to {!default_jobs}.
    @raise Invalid_argument when [jobs < 1]. *)

val jobs : t -> int

val shutdown : t -> unit
(** Join the worker domains. Idempotent. Do not call concurrently with
    {!run} on the same pool. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], apply, [shutdown] (also on exception). *)

val run : t -> int -> (int -> unit) -> unit
(** [run pool n body] executes the tasks [body 0 .. body (n-1)] across
    the pool and returns when all have finished. Tasks must only write
    to disjoint state (distinct array slices, distinct result slots).
    Every task runs even if some raise; the first exception is
    re-raised afterwards and the pool survives. Re-entrant use —
    [body] calling [run] on the same pool — degrades to
    sequential execution instead of deadlocking. *)

val run_pinned :
  t -> parties:int -> rounds:int -> (round:int -> int -> unit) -> bool
(** Persistent-chunk execution (see {!Pool_backend.run_pinned}): task
    [k] runs [body ~round k] for [round = 0 .. rounds-1] pinned to one
    domain, with a barrier between rounds — one synchronization per
    round instead of a batch publish per kernel call. Returns [false]
    without running anything when the pool cannot hold the protocol
    (1 job, [parties < 2], [parties > jobs], busy, or the sequential
    backend); callers fall back to an in-caller loop, which computes
    bit-for-bit the same result when round bodies write disjoint
    slices. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map]; the independent-jobs primitive behind the
    batch runner. Result order matches input order. *)
