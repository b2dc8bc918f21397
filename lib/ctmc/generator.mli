(** Validated CTMC generators (infinitesimal generator matrices [Q]). *)

type t
(** A square matrix with non-negative off-diagonal entries and (numerically)
    zero row sums. *)

val of_sparse : Mrm_linalg.Sparse.t -> t
(** @raise Invalid_argument if the matrix is not square, has a
    non-finite entry, a negative off-diagonal or positive diagonal entry,
    or a row sum exceeding [1e-9 * max |q_ii|] in magnitude. *)

val of_dense : Mrm_linalg.Dense.t -> t

val of_triplets : states:int -> (int * int * float) list -> t
(** Build from off-diagonal rate triplets; the diagonal is filled in as
    the negated row sums (any diagonal entries supplied are ignored).
    @raise Invalid_argument on an index out of range or a negative or
    non-finite rate, then as {!of_sparse}. *)

val birth_death :
  states:int -> birth:(int -> float) -> death:(int -> float) -> t
(** Birth–death chain on [0 .. states-1]: [birth i] is the rate i -> i+1
    (i < states-1) and [death i] the rate i -> i-1 (i > 0). The paper's
    ON–OFF multiplexer background process has this shape. The CSR
    arrays are built directly (rows are already in column order) and
    zero rates are dropped; the result is then checked as by
    {!of_sparse}. @raise Invalid_argument on [states <= 0] or a negative
    or non-finite rate. *)

val matrix : t -> Mrm_linalg.Sparse.t
val dim : t -> int

val uniformization_rate : t -> float
(** [q = max_i |q_ii|] (paper, Section 6). *)

val uniformized : t -> rate:float -> Mrm_linalg.Sparse.t
(** [Q' = Q/rate + I]; requires [rate >= uniformization_rate t] so the
    result is (sub)stochastic. Built in one pass over [Q]'s rows
    ({!Mrm_linalg.Sparse.uniformize}); a diagonal that rounds to [<= 0]
    is dropped. *)

val exit_rates : t -> float array
(** [-q_ii] per state. *)

val embedded_jump_distribution : t -> int -> (int * float) array
(** For state [i], the (target, probability) rows of the embedded jump
    chain, in increasing target order; the empty array for absorbing
    states. O(nnz of row [i]). *)
