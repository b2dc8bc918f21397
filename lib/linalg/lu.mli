(** LU factorization with partial pivoting, backing the Padé solve of
    {!Expm}, the cyclic-reduction stationary solver ([Mrm_mmbm]) and the
    Gaver–Stehfest transform-domain moments the tests keep as an
    oracle. *)

type t
(** A factorization [P A = L U] of a square matrix. *)

exception Singular of int
(** Raised (with the offending pivot column) when a pivot is exactly 0. *)

val factorize : Dense.t -> t
(** @raise Invalid_argument on non-square input.
    @raise Singular on exactly singular input. *)

val solve : t -> Vec.t -> Vec.t
(** Solve [A x = b] for [x]. *)

val solve_matrix : t -> Dense.t -> Dense.t
(** Solve [A X = B] column-by-column. *)

val det : t -> float
val inverse : t -> Dense.t

val solve_system : Dense.t -> Vec.t -> Vec.t
(** One-shot [factorize]+[solve]. *)
