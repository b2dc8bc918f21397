(** Dense vectors as [float array] with the small algebra the solvers
    need. All binary operations require equal lengths. *)

type t = float array

val create : int -> float -> t
val zeros : int -> t
val ones : int -> t
val init : int -> (int -> float) -> t
val copy : t -> t
val dim : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val axpy : alpha:float -> x:t -> y:t -> unit
(** In-place [y := alpha * x + y]. *)

val add_inplace : t -> t -> unit
(** [add_inplace dst src] is [dst := dst + src]. *)

val dot : t -> t -> float

val norm_inf : t -> float
val norm1 : t -> float
val norm2 : t -> float

val sum : t -> float
val map : (float -> float) -> t -> t
val max_abs_diff : t -> t -> float

val approx_equal : ?tol:float -> t -> t -> bool
(** Component-wise comparison with absolute-plus-relative tolerance. *)

val pp : Format.formatter -> t -> unit
