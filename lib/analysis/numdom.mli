(** Numeric abstract domains for the forward abstract interpreter
    ({!Absint}): a product of

    - integer intervals whose bounds are symbolic linear expressions
      over interned symbols (so a kernel body analyzed under fresh
      symbols [lo]/[hi] can prove [lo + (hi - lo) = hi] exactly), and
    - float intervals extended with a "provably nonzero" bit, a
      may-be-NaN bit, and a provenance bit ([fknown]) telling the
      rules whether the value was actually computed from evidenced
      constants (havoc values never fire SRC021/023/024).

    Comparisons are decided under an assumption set: a list of linear
    expressions asserted [>= 0] ([hi - lo] and [lo] at a kernel site,
    plus the facts the guards on the current path established).
    Entailment subtracts a multiple of each assumption at most once
    under a node budget — enough for range proofs of the form
    [lo <= i < lo + (hi - lo)] and [3 i + 2 < length] from
    [length >= 3 n], [n >= hi] and [i <= hi - 1]. *)

(** {1 Symbolic linear expressions} *)

type lin = { c : int; terms : (int * int) list }
(** [c + sum (coeff * sym)] with [terms] sorted by symbol id and all
    coefficients nonzero. Symbols are interned integers owned by the
    caller. *)

val lin_const : int -> lin
val lin_sym : int -> lin
val lin_add : lin -> lin -> lin
val lin_sub : lin -> lin -> lin
val lin_scale : int -> lin -> lin
val lin_add_const : int -> lin -> lin
val lin_is_const : lin -> int option
val lin_equal : lin -> lin -> bool
val lin_to_string : names:(int -> string) -> lin -> string

val lin_nonneg : assume:lin list -> lin -> bool
(** [lin_nonneg ~assume l] — is [l >= 0] provable? True when the
    constant remainder is nonnegative after subtracting positive
    multiples of a subset of [assume], each used at most once. The
    multiples tried cancel a term of [l] (or are 1); the search is
    depth-first under a fixed node budget, past which the answer is
    [false]. *)

(** {1 Integer intervals} *)

type bound = Ninf | Pinf | Lin of lin

type iv = { ilo : bound; ihi : bound; iknown : bool }
(** Closed interval [ [ilo, ihi] ]; [iknown] is provenance: the value
    was computed from program constants/symbols rather than havoc. *)

val iv_top : iv
val iv_const : int -> iv
val iv_of_sym : int -> iv
val iv_range : bound -> bound -> iv

val bound_add_const : int -> bound -> bound
val bound_le : assume:lin list -> bound -> bound -> bool
(** [bound_le ~assume a b] — is [a <= b] provable? [Ninf <= _] and
    [_ <= Pinf] always hold; [Lin] pairs reduce to {!lin_nonneg}. *)

val iv_add : iv -> iv -> iv
val iv_sub : iv -> iv -> iv
val iv_neg : iv -> iv
val iv_mul : iv -> iv -> iv
val iv_min : iv -> iv -> iv
val iv_max : iv -> iv -> iv
val iv_join : iv -> iv -> iv
val iv_widen : old:iv -> iv -> iv
val iv_meet_upper : iv -> bound -> iv
(** Refine: intersect with [(-inf, b]]. *)

val iv_meet_lower : iv -> bound -> iv
(** Refine: intersect with [[b, +inf)]. *)

val iv_subset : assume:lin list -> iv -> lo:bound -> hi:bound -> bool
(** Is the interval provably contained in [[lo, hi]] (inclusive)? *)

val iv_contains_zero : iv -> bool
(** May the interval contain 0? (No assumption set: syntactic.) *)

val iv_to_string : names:(int -> string) -> iv -> string

(** {1 Float values} *)

type fv = {
  flo : float;
  fhi : float;
  nz : bool;  (** provably nonzero *)
  fnan : bool;  (** may be NaN (evidence-backed, see {!Absint}) *)
  fknown : bool;  (** computed from evidenced constants *)
}

val fv_top : fv
val fv_const : float -> fv
val fv_range : float -> float -> fv
val fv_nan : fv
(** The NaN literal / an unvalidated wire float: full range, may-NaN. *)

val fv_join : fv -> fv -> fv
val fv_widen : old:fv -> fv -> fv
val fv_add : fv -> fv -> fv
val fv_sub : fv -> fv -> fv
val fv_neg : fv -> fv
val fv_mul : fv -> fv -> fv
val fv_div : fv -> fv -> fv
val fv_abs : fv -> fv
val fv_min : fv -> fv -> fv
val fv_max : fv -> fv -> fv
val fv_sqrt : fv -> fv
val fv_log : fv -> fv
val fv_exp : fv -> fv
val fv_pow : fv -> fv -> fv
val fv_of_iv : iv -> fv

val fv_may_zero : fv -> bool
(** 0 is in the interval and [nz] is unset. *)

val fv_may_nonpos : fv -> bool
(** The interval reaches [<= 0] (0 itself excluded when [nz]). *)

val fv_may_neg : fv -> bool

val fv_to_string : fv -> string
