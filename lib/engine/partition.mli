(** Precomputed row partitions for the sharded kernels.

    A partition splits [0 .. rows-1] into contiguous ranges, one unit
    of work each. For sparse mat-vec the ranges are balanced by
    nonzero count — on the paper's birth–death generators rows are
    near-uniform, but nothing in the engine assumes that — so every
    domain streams a comparable number of multiply-adds per region.
    Built once per solve and reused for all [G = O(qt)] iterations. *)

type t

val ranges : t -> (int * int) array
(** The [[lo, hi)] ranges, in row order; they tile [0 .. rows-1]
    exactly. Ranges may be empty when [parts > rows]. *)

val parts : t -> int
val rows : t -> int

val uniform : parts:int -> rows:int -> t
(** Equal-width ranges; for elementwise/reduction kernels with no
    matrix in sight. @raise Invalid_argument when [parts < 1] or
    [rows < 0]. *)

val by_nnz : parts:int -> Mrm_linalg.Sparse.t -> t
(** Ranges holding approximately equal nonzero counts, computed from
    the CSR row offsets: part [k] starts at the first row whose
    cumulative nnz reaches [k/parts] of the total. Empty and dense
    rows are both handled; for an empty matrix this degrades to
    {!uniform}. @raise Invalid_argument when [parts < 1]. *)

val of_ranges : rows:int -> (int * int) array -> t
(** Wrap explicit ranges with {e no} validation — for custom layouts
    and for exercising the dynamic race checker. The kernels verify
    disjointness and coverage under [MRM2_RACECHECK=1]
    ({!Racecheck.check_ranges}); without the checker, overlapping
    ranges silently race. @raise Invalid_argument when [rows < 0]. *)

val pinned : jobs:int -> Mrm_linalg.Sparse.t -> t
(** The partition the persistent-chunk sweep uses: {!by_nnz} with
    {e exactly} [jobs] parts, one per pool party, even when
    [jobs > rows] (the surplus ranges are empty but their parties still
    take part in every barrier). No 4x slack — a pinned range is never
    rescheduled, so balance comes entirely from the nnz split.
    @raise Invalid_argument when [jobs < 1]. *)

val pp : Format.formatter -> t -> unit
