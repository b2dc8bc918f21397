(** Partitioned (multi-domain) kernels of the randomization sweep.

    One randomization round ({!round}) runs row slices of a
    {!Partition} across a {!Pool}, through {!sweep}. Results are
    deterministic: ranges write disjoint row slices and each row keeps
    its operation order regardless of the execution schedule — so a
    parallel randomization sweep reproduces the sequential one bit for
    bit.

    Under [MRM2_RACECHECK=1] every kernel call first validates its
    write ranges (disjointness and full coverage) with
    {!Racecheck.check_ranges} and aborts with {!Racecheck.Race} on
    violation; the check is observational — it never changes what the
    kernels compute. *)

type structure
(** A matrix together with its detected storage structure: the
    tridiagonal band form for birth–death generators (the paper's
    ON–OFF family), plain CSR otherwise. *)

val detect : Mrm_linalg.Sparse.t -> structure
(** One O(nnz) pass ({!Mrm_linalg.Sparse.as_tridiagonal}); run once per
    solve, at setup time. *)

val structure_kind : structure -> string
(** ["tridiagonal"] or ["csr"] — for traces and benchmark records. *)

val mv_fused :
  structure -> Mrm_linalg.Vec.t array -> Mrm_linalg.Vec.t array ->
  lo:int -> hi:int -> unit
(** [mv_fused st xs ys ~lo ~hi] writes rows [lo .. hi-1] of [A xs.(k)]
    into [ys.(k)] for every [k], walking each matrix row once,
    dispatching on the detected structure. Bit-for-bit equal to
    repeated {!Mrm_linalg.Sparse.mv_into_range} calls. The sweep does
    not use it ({!round} walks each row once per iteration); it times
    the bare mat-vec in benchmarks and tests. *)

val round :
  structure -> Mrm_linalg.Sparse.rewards -> cur:Mrm_linalg.Sparse.block ->
  next:Mrm_linalg.Sparse.block -> weights:float array ->
  accs:Mrm_linalg.Sparse.block array -> lo:int -> hi:int -> unit
(** [round st rw ~cur ~next ~weights ~accs ~lo ~hi] runs rows
    [lo .. hi-1] of one randomization round, one pass per row
    ({!Mrm_linalg.Sparse.round_into_range}), dispatching on the
    detected structure. *)

val sweep :
  Pool.t option -> Partition.t -> rounds:int ->
  (round:int -> lo:int -> hi:int -> unit) -> unit
(** [sweep pool partition ~rounds body] runs [body ~round ~lo ~hi] for
    every partition range and every [round = 0 .. rounds-1], with all
    ranges of round [r] complete before any range of round [r+1]
    starts. On a multi-domain pool this uses {!Pool.run_pinned}: each
    range is pinned to one domain for the whole sweep and consecutive
    rounds are separated by a single barrier — the execution model of
    the fused randomization recursion (one barrier per iteration
    instead of a batch publish per kernel call). Whenever the pinned
    protocol is unavailable ([None], 1 job, busy pool, sequential
    backend) the same bodies run in the caller, in range order, which
    is bit-for-bit identical because bodies write disjoint row slices.
    Empty ranges are skipped (their parties still meet every barrier).
    Under [MRM2_RACECHECK=1] the ranges are validated once per sweep
    with {!Racecheck.check_ranges}. *)

val for_ranges : Pool.t -> Partition.t -> (int -> int -> unit) -> unit
(** [for_ranges pool partition f] runs [f lo hi] for every non-empty
    range, once; the one-shot counterpart of {!sweep}. Same exception
    guarantees as {!Pool.run}. *)
