(** Test oracle, a third independent route to the moments: solve the
    moment recursion in Laplace ([s]) domain and invert numerically.

    Taking the (single-sided) Laplace transform of eq. (6) gives

    [V*^(0)(s) = (sI - Q)^{-1} h]
    [V*^(n)(s) = (sI - Q)^{-1} (n R V*^(n-1)(s) + n(n-1)/2 S V*^(n-2)(s))]

    which is evaluated with dense LU solves at the real abscissae of the
    Gaver–Stehfest inversion formula. This is the eq.-(5) "double
    transform domain" road of the paper restricted to moments; it is
    limited to small models (dense O(n^3) factorizations) and to moderate
    accuracy (Gaver–Stehfest loses roughly 0.9 digits per stage in
    binary64), and exists to cross-validate the other solvers. *)

val moments :
  ?stages:int -> Mrm_core.Model.t -> t:float -> order:int -> float array array
(** Same layout as {!Mrm_core.Randomization.moments}. [stages] is the (even)
    Gaver–Stehfest parameter, default 12; usable range 4–18.
    @raise Invalid_argument if [t <= 0], [order < 0] or [stages] odd/out of
    range. *)

val moment : ?stages:int -> Mrm_core.Model.t -> t:float -> order:int -> float

val stehfest_coefficients : int -> float array
(** The inversion weights [zeta_k], 1-indexed as [coefficients.(k-1)];
    exposed for testing (they satisfy [sum zeta_k = 0] for [stages >= 2]
    and reproduce [f(t)=1] from [F(s)=1/s]). *)
