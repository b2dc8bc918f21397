(** Complex dense matrices and LU solves.

    Needed by the spectral fluid oracle ({!Fluid}), whose quadratic
    pencil [z^2/2 S - z R + Q^T] and boundary system have complex
    entries at the complex eigenvalues [z]. Uses [Stdlib.Complex]. *)

type t

val zeros : rows:int -> cols:int -> t
val identity : int -> t
val init : rows:int -> cols:int -> (int -> int -> Complex.t) -> t
val of_real : Mrm_linalg.Dense.t -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> Complex.t
val set : t -> int -> int -> Complex.t -> unit
val add : t -> t -> t
val sub : t -> t -> t
val scale : Complex.t -> t -> t
val mv : t -> Complex.t array -> Complex.t array

val solve : t -> Complex.t array -> Complex.t array
(** Solve [A x = b] by LU with partial pivoting (by modulus).
    @raise Failure on singular systems. *)
