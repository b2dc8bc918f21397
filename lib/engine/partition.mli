(** Row partitions for the randomization sweep.

    A partition splits [0 .. rows-1] into contiguous ranges, one unit
    of work each. The three constructors below are the only way to
    build one, and each tiles [0 .. rows-1] exactly: in row order,
    pairwise disjoint, every row covered. {!ranges} hands out a copy,
    so no caller can edit a partition into an overlap — which is what
    lets a parallel {!Kernel.sweep} reproduce the sequential one bit for
    bit. For the pinned sweep the ranges are balanced by nonzero count
    — on the paper's birth–death generators rows are near-uniform, but
    nothing in the engine assumes that — so every domain streams a
    comparable number of multiply-adds per iteration. Built once per
    solve and reused for all [G = O(qt)] iterations. *)

type t

val ranges : t -> (int * int) array
(** A fresh copy of the [[lo, hi)] ranges, in row order; they tile
    [0 .. rows-1] exactly. Ranges may be empty when [parts > rows]. *)

val uniform : parts:int -> rows:int -> t
(** Equal-width ranges. The sequential solve runs over
    [uniform ~parts:1 ~rows], one full-width range.
    @raise Invalid_argument when [parts < 1] or [rows < 0]. *)

val by_nnz : parts:int -> Mrm_linalg.Sparse.t -> t
(** Ranges holding approximately equal nonzero counts, computed from
    the CSR row offsets: part [k] starts at the first row whose
    cumulative nnz reaches [k/parts] of the total. Empty and dense
    rows are both handled; for an empty matrix this degrades to
    {!uniform}. @raise Invalid_argument when [parts < 1]. *)

val pinned : jobs:int -> Mrm_linalg.Sparse.t -> t
(** The partition the pinned sweep uses: {!by_nnz} with {e exactly}
    [jobs] parts, one per pool party, even when [jobs > rows] (the
    surplus ranges are empty but their parties still take part in every
    barrier). A pinned range is never rescheduled, so balance comes
    entirely from the nnz split; its load ratio
    [parts * max_part_nnz / total_nnz] is kept as a running maximum in
    the [partition.imbalance] gauge (when [jobs > 1] and the matrix has
    entries). @raise Invalid_argument when [jobs < 1]. *)
