(** Arithmetic on numbers represented by their natural logarithm.

    Used wherever quantities underflow binary64 (Poisson weights for
    [qt ~ 10^4..10^7], factorial-scaled error bounds). Log-space zero is
    [neg_infinity]. *)

val log_add : float -> float -> float
(** [log_add la lb = log (exp la +. exp lb)] without overflow. *)

val log_sub : float -> float -> float
(** [log_sub la lb = log (exp la -. exp lb)]; requires [la >= lb].
    @raise Invalid_argument if [la < lb]. *)

val log_sum_exp : float array -> float
(** Stable [log (sum_i exp a.(i))]; [neg_infinity] on the empty array. *)

val log1p : float -> float
(** Accurate [log (1. +. x)] for small [x]. *)

