(** Compressed-sparse-row matrices.

    The randomization solver's inner loop is a sequence of CSR
    matrix–vector products with the uniformized generator; the paper's
    large example ([|S| = 200,001]) only fits with this representation. *)

type t

val rows : t -> int
val cols : t -> int
val nnz : t -> int

val of_triplets : rows:int -> cols:int -> (int * int * float) list -> t
(** Build from (row, col, value) triplets. Duplicate entries are summed;
    exact zeros are dropped. @raise Invalid_argument on out-of-range
    indices. *)

val of_dense : Dense.t -> t
val to_dense : t -> Dense.t

val identity : int -> t
val diagonal : float array -> t

val get : t -> int -> int -> float
(** O(log nnz-in-row) lookup; 0. for absent entries. *)

val mv : t -> Vec.t -> Vec.t
(** [mv a x] is [A x]. *)

val mv_into : t -> Vec.t -> Vec.t -> unit
(** [mv_into a x y] writes [A x] into pre-allocated [y] (no allocation in
    the hot loop). [x] and [y] must be distinct arrays. *)

val mv_into_range : t -> Vec.t -> Vec.t -> lo:int -> hi:int -> unit
(** [mv_into_range a x y ~lo ~hi] writes rows [lo .. hi-1] of [A x] into
    the same rows of [y], leaving the rest of [y] untouched — the
    row-slice kernel behind the partitioned (multi-domain) mat-vec of
    {!Mrm_engine.Kernel}. Requires [0 <= lo <= hi <= rows]; [x] and [y]
    must be distinct. [mv_into] is the [lo = 0, hi = rows] case. *)

val row_offsets : t -> int array
(** A fresh copy of the CSR row-start offsets (length [rows + 1]):
    row [i]'s entries occupy positions [offsets.(i) .. offsets.(i+1) - 1],
    so [offsets.(i+1) - offsets.(i)] is the nnz of row [i] and
    [offsets.(rows)] is {!nnz}. Used to balance row partitions by nnz. *)

val mv_multi_into_range :
  t -> Vec.t array -> Vec.t array -> lo:int -> hi:int -> unit
(** [mv_multi_into_range a xs ys ~lo ~hi] writes rows [lo .. hi-1] of
    [A xs.(k)] into [ys.(k)] for every [k], walking each CSR row once
    and touching [values]/[col_index] a single time — the randomization
    recursion multiplies [Q'] into [order] vectors per iteration.
    Dispatches to specialized 1/2/3-vector kernels when they apply.
    Bit-for-bit equal to [Array.length xs] independent
    {!mv_into_range} calls: each output accumulates the same operation
    sequence. No output may alias an input or another output. *)

type tridiag
(** A matrix proven tridiagonal: the three central diagonals stored as
    flat arrays, absent entries encoded as [0.] (sound because
    canonically built matrices never store exact zeros — see
    {!of_triplets}). Birth–death generators, e.g. the paper's ON–OFF
    family, always take this form after uniformization. *)

val tridiag_dim : tridiag -> int

val as_tridiagonal : t -> tridiag option
(** [Some] iff the matrix is square, every entry satisfies
    [|i - j| <= 1], and no stored value is exactly [0.] (a stored zero
    would be indistinguishable from an absent entry). O(nnz). *)

val tridiag_mv_multi_into_range :
  tridiag -> Vec.t array -> Vec.t array -> lo:int -> hi:int -> unit
(** Structure-specialized {!mv_multi_into_range}: three streaming
    array reads per row, no column indirection; the 1- and 3-vector
    cases are hand-specialized. Bit-for-bit equal to {!mv_into_range}
    on the originating matrix (entries are visited in the same
    increasing-column order, absent entries skipped exactly as the CSR
    walk skips them). Same distinctness contract. *)

(** {1 One randomization round per row}

    Round [k] of the randomization recursion (paper eq. 9, Appendix B)
    advances [U(k)] to [U(k+1)],
    [U^(j)(k+1) = Q' U^(j)(k) + R' U^(j-1)(k) + (1/2) S' U^(j-2)(k)],
    plus [sum_{m=1..j} (1/m!) P^(m) U^(j-m)(k)] when the model has
    impulse rewards, with [U^(0) = 1], and adds [w U(k+1)] to the
    accumulator block of each Poisson term the round contributes. The
    row kernels do all of that in one pass per row, in the operation
    order of a fused mat-vec followed by element-wise passes, so they
    equal that multi-pass form bit for bit over any row range. *)

type block
(** The order-[1 .. n] vectors of one quantity (a [U] buffer or an
    accumulator): row-interleaved at stride 3 when [n = 3], so a row's
    three orders share a cache line, and one vector per order
    otherwise. [U^(0) = 1] is never stored. *)

val block : order:int -> dim:int -> block
(** Zeros. @raise Invalid_argument on a negative size. *)

val block_of_vectors : Vec.t array -> block
(** [block_of_vectors vs] copies [vs.(j-1)] in as order [j]. *)

val block_get : block -> int -> int -> float
(** [block_get b j i] is order [j] at row [i]. *)

val block_scaled : float -> block -> int -> Vec.t
(** [block_scaled c b j] is a fresh [Vec.scale c] of order [j]. *)

type rewards = {
  r' : Vec.t;  (** [R'], the signed drift diagonal *)
  s' : Vec.t;  (** [S'], the variance diagonal *)
  coupling : (float * t) array;
      (** [(1/m!, P^(m))] for [m = 1 .. order]; empty without impulse
          rewards. A matrix with no entries adds nothing. *)
}
(** The per-row terms of a round besides the matrix. *)

val round_into_range :
  t -> rewards -> cur:block -> next:block -> weights:float array ->
  accs:block array -> lo:int -> hi:int -> unit
(** [round_into_range q' rw ~cur ~next ~weights ~accs ~lo ~hi] writes
    rows [lo .. hi-1] of [U(k+1)] into [next] from [U(k)] in [cur] and
    adds [weights.(t) U(k+1)] to those rows of [accs.(t)], walking each
    CSR row of [q'] once for every order. Other rows are untouched, so
    disjoint ranges may run in parallel. @raise Invalid_argument unless
    the blocks share one order and [q']'s dimension, [cur], [next] and
    the accumulators are distinct, and [0 <= lo <= hi <= rows]. *)

val tridiag_round_into_range :
  tridiag -> rewards -> cur:block -> next:block -> weights:float array ->
  accs:block array -> lo:int -> hi:int -> unit
(** {!round_into_range} on the band form: three streaming reads per row
    and order. Bit-for-bit equal to {!round_into_range} on the
    originating matrix. *)

val vm : Vec.t -> t -> Vec.t
(** [vm x a] is [x^T A]. *)

val scale : float -> t -> t
val add : t -> t -> t
val add_scaled_identity : float -> t -> t
(** [add_scaled_identity c a] is [A + cI] (square only). *)

val transpose : t -> t
val row_sums : t -> Vec.t
val map_values : (float -> float) -> t -> t
val iter : t -> (int -> int -> float -> unit) -> unit
val mean_nnz_per_row : t -> float
val pp : Format.formatter -> t -> unit
