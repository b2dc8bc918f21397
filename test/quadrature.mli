(** One-dimensional numerical integration for the test suites
    (density-mass checks, ccdf integrals). *)

val trapezoid : f:(float -> float) -> a:float -> b:float -> n:int -> float
(** Composite trapezoid with [n] panels. @raise Invalid_argument if
    [n <= 0] or [b < a]. *)

val simpson : f:(float -> float) -> a:float -> b:float -> n:int -> float
(** Composite Simpson; [n] is rounded up to even. *)

val midpoint : f:(float -> float) -> a:float -> b:float -> n:int -> float
(** Composite midpoint rule (never evaluates the endpoints — safe for
    integrands singular at the boundary). *)

val gauss_legendre : f:(float -> float) -> a:float -> b:float -> n:int -> float
(** Composite 5-point Gauss–Legendre over [n] panels: degree-9 exactness
    per panel. *)

val adaptive_simpson :
  ?max_depth:int -> f:(float -> float) -> a:float -> b:float -> tol:float ->
  unit -> float
(** Recursive adaptive Simpson with absolute tolerance [tol]
    (default [max_depth] 40; deeper subdivision stops with the current
    estimate). *)
