(* Numeric abstract domains for Absint. Integer interval bounds are
   symbolic linear expressions so that range-kernel proofs stay exact
   under arithmetic on the party's [lo]/[hi] symbols:
   [lo + (hi - lo) = hi] must cancel, or [Array.blit src lo dst lo
   (hi - lo)] could never be proven in-range. Floats are plain
   interval endpoints plus three bits (nonzero / may-NaN / evidenced)
   feeding SRC021-SRC024. *)

(* ------------------------------------------------------------------ *)
(* Linear expressions *)

type lin = { c : int; terms : (int * int) list }

let lin_const c = { c; terms = [] }
let lin_sym s = { c = 0; terms = [ (s, 1) ] }

(* merge two sorted term lists, dropping zero coefficients *)
let rec merge_terms a b =
  match (a, b) with
  | [], t | t, [] -> t
  | (sa, ca) :: ra, (sb, cb) :: rb ->
      if sa < sb then (sa, ca) :: merge_terms ra b
      else if sb < sa then (sb, cb) :: merge_terms a rb
      else
        let c = ca + cb in
        if c = 0 then merge_terms ra rb else (sa, c) :: merge_terms ra rb

let lin_add a b = { c = a.c + b.c; terms = merge_terms a.terms b.terms }

let lin_scale k l =
  if k = 0 then lin_const 0
  else { c = k * l.c; terms = List.map (fun (s, co) -> (s, k * co)) l.terms }

let lin_sub a b = lin_add a (lin_scale (-1) b)
let lin_add_const k l = { l with c = l.c + k }
let lin_is_const l = match l.terms with [] -> Some l.c | _ -> None
let lin_equal a b = a.c = b.c && a.terms = b.terms

let lin_to_string ~names l =
  let term (s, co) =
    if co = 1 then names s
    else if co = -1 then "-" ^ names s
    else Printf.sprintf "%d*%s" co (names s)
  in
  match l.terms with
  | [] -> string_of_int l.c
  | ts ->
      let body = String.concat "+" (List.map term ts) in
      if l.c = 0 then body
      else if l.c > 0 then Printf.sprintf "%s+%d" body l.c
      else Printf.sprintf "%s%d" body l.c

(* Entailment: [l >= 0] given a set of expressions each known [>= 0].
   A proof subtracts a positive multiple of each assumption at most
   once until a nonnegative constant remains. An assumption is worth
   subtracting only when it shares a symbol with [l] at the same sign
   (a proof [l = sum k_a a + r] always has one for any symbol left in
   [l]); the multiples tried cancel such a term ([3 s] against
   [s >= 0] takes 3), else 1. Guard facts make the sets larger than
   the two kernel-site assumptions, so the depth-first search runs
   under a node budget: past it the answer is "not provable", which is
   sound. *)
let rec pick = function
  | [] -> []
  | a :: rest ->
      (a, rest) :: List.map (fun (b, r) -> (b, a :: r)) (pick rest)

let multiples a l =
  let same =
    List.filter_map
      (fun (s, cl) ->
        match List.assoc_opt s a.terms with
        | Some ca when cl * ca > 0 ->
            Some (if cl mod ca = 0 then cl / ca else 1)
        | _ -> None)
      l.terms
  in
  List.sort_uniq (fun x y -> Int.compare y x) same

let entail_budget = 512

let lin_nonneg ~assume l =
  let budget = ref entail_budget in
  let rec go l avail =
    match l.terms with
    | [] -> l.c >= 0
    | _ ->
        decr budget;
        !budget > 0
        && List.exists
             (fun (a, rest) ->
               List.exists
                 (fun k -> go (lin_sub l (lin_scale k a)) rest)
                 (multiples a l))
             (pick avail)
  in
  go l assume

(* ------------------------------------------------------------------ *)
(* Integer intervals *)

type bound = Ninf | Pinf | Lin of lin

type iv = { ilo : bound; ihi : bound; iknown : bool }

let iv_top = { ilo = Ninf; ihi = Pinf; iknown = false }

let iv_const c =
  { ilo = Lin (lin_const c); ihi = Lin (lin_const c); iknown = true }

let iv_of_sym s =
  { ilo = Lin (lin_sym s); ihi = Lin (lin_sym s); iknown = true }

let iv_range lo hi = { ilo = lo; ihi = hi; iknown = true }

let bound_add_const k = function
  | Ninf -> Ninf
  | Pinf -> Pinf
  | Lin l -> Lin (lin_add_const k l)

let bound_neg = function Ninf -> Pinf | Pinf -> Ninf | Lin l -> Lin (lin_scale (-1) l)

let bound_le ~assume a b =
  match (a, b) with
  | Ninf, _ | _, Pinf -> true
  | Pinf, x -> x = Pinf
  | x, Ninf -> x = Ninf
  | Lin x, Lin y -> lin_nonneg ~assume (lin_sub y x)

(* lower-bound addition: anything involving Ninf is Ninf *)
let add_lo a b =
  match (a, b) with
  | Ninf, _ | _, Ninf -> Ninf
  | Pinf, _ | _, Pinf -> Pinf
  | Lin x, Lin y -> Lin (lin_add x y)

let add_hi a b =
  match (a, b) with
  | Pinf, _ | _, Pinf -> Pinf
  | Ninf, _ | _, Ninf -> Ninf
  | Lin x, Lin y -> Lin (lin_add x y)

let iv_add a b =
  { ilo = add_lo a.ilo b.ilo;
    ihi = add_hi a.ihi b.ihi;
    iknown = a.iknown && b.iknown }

let iv_neg a = { ilo = bound_neg a.ihi; ihi = bound_neg a.ilo; iknown = a.iknown }
let iv_sub a b = iv_add a (iv_neg b)

let bound_scale k = function
  | Lin l -> Lin (lin_scale k l)
  | b -> if k >= 0 then b else bound_neg b

let iv_point a =
  match (a.ilo, a.ihi) with
  | Lin x, Lin y when lin_equal x y -> lin_is_const x
  | _ -> None

let iv_mul a b =
  let known = a.iknown && b.iknown in
  let scale k v =
    if k = 0 then { (iv_const 0) with iknown = known }
    else if k > 0 then
      { ilo = bound_scale k v.ilo; ihi = bound_scale k v.ihi; iknown = known }
    else
      { ilo = bound_scale k v.ihi; ihi = bound_scale k v.ilo; iknown = known }
  in
  match (iv_point a, iv_point b) with
  | Some k, _ -> scale k b
  | _, Some k -> scale k a
  | None, None ->
      let nonneg v = bound_le ~assume:[] (Lin (lin_const 0)) v.ilo in
      if nonneg a && nonneg b then
        { ilo = Lin (lin_const 0); ihi = Pinf; iknown = known }
      else { iv_top with iknown = known }

(* min: the result is <= each argument, so either hi bound is sound;
   the lo bound needs a provable smaller-of-the-two or drops to Ninf. *)
let iv_min a b =
  let ilo =
    if bound_le ~assume:[] a.ilo b.ilo then a.ilo
    else if bound_le ~assume:[] b.ilo a.ilo then b.ilo
    else Ninf
  in
  let ihi = if bound_le ~assume:[] a.ihi b.ihi then a.ihi else b.ihi in
  { ilo; ihi; iknown = a.iknown && b.iknown }

let iv_max a b =
  let ihi =
    if bound_le ~assume:[] a.ihi b.ihi then b.ihi
    else if bound_le ~assume:[] b.ihi a.ihi then a.ihi
    else Pinf
  in
  let ilo = if bound_le ~assume:[] a.ilo b.ilo then b.ilo else a.ilo in
  { ilo; ihi; iknown = a.iknown && b.iknown }

let iv_join a b =
  let ilo =
    if bound_le ~assume:[] a.ilo b.ilo then a.ilo
    else if bound_le ~assume:[] b.ilo a.ilo then b.ilo
    else Ninf
  in
  let ihi =
    if bound_le ~assume:[] b.ihi a.ihi then a.ihi
    else if bound_le ~assume:[] a.ihi b.ihi then b.ihi
    else Pinf
  in
  { ilo; ihi; iknown = a.iknown && b.iknown }

let iv_widen ~old cur =
  { ilo = (if bound_le ~assume:[] old.ilo cur.ilo then old.ilo else Ninf);
    ihi = (if bound_le ~assume:[] cur.ihi old.ihi then old.ihi else Pinf);
    iknown = old.iknown && cur.iknown }

let iv_meet_upper v b =
  if bound_le ~assume:[] b v.ihi then { v with ihi = b } else v

let iv_meet_lower v b =
  if bound_le ~assume:[] v.ilo b then { v with ilo = b } else v

let iv_subset ~assume v ~lo ~hi =
  bound_le ~assume lo v.ilo && bound_le ~assume v.ihi hi

let iv_contains_zero v =
  (not (bound_le ~assume:[] (Lin (lin_const 1)) v.ilo))
  && not (bound_le ~assume:[] v.ihi (Lin (lin_const (-1))))

let bound_to_string ~names = function
  | Ninf -> "-oo"
  | Pinf -> "+oo"
  | Lin l -> lin_to_string ~names l

let iv_to_string ~names v =
  Printf.sprintf "[%s, %s]%s"
    (bound_to_string ~names v.ilo)
    (bound_to_string ~names v.ihi)
    (if v.iknown then "" else "?")

(* ------------------------------------------------------------------ *)
(* Float values *)

type fv = { flo : float; fhi : float; nz : bool; fnan : bool; fknown : bool }

let fv_top =
  { flo = neg_infinity; fhi = infinity; nz = false; fnan = false;
    fknown = false }

let mk ?(nz = false) ~fnan ~fknown flo fhi =
  { flo; fhi; nz = nz || flo > 0. || fhi < 0.; fnan; fknown }

let fv_nan = mk ~fnan:true ~fknown:true neg_infinity infinity

let fv_const x =
  if Float.is_nan x then fv_nan else mk ~fnan:false ~fknown:true x x

let fv_range a b = mk ~fnan:false ~fknown:true a b

let fv_join a b =
  mk ~nz:(a.nz && b.nz) ~fnan:(a.fnan || b.fnan)
    ~fknown:(a.fknown && b.fknown) (Float.min a.flo b.flo)
    (Float.max a.fhi b.fhi)

let fv_widen ~old cur =
  mk ~nz:(old.nz && cur.nz) ~fnan:(old.fnan || cur.fnan)
    ~fknown:(old.fknown && cur.fknown)
    (if cur.flo >= old.flo then old.flo else neg_infinity)
    (if cur.fhi <= old.fhi then old.fhi else infinity)

(* endpoint arithmetic with NaN swallowed toward the conservative side *)
let ep_lo v = if Float.is_nan v then neg_infinity else v
let ep_hi v = if Float.is_nan v then infinity else v

(* Infinite endpoints are exact sentinel values of the lattice, never
   the result of rounding — bit-equality is the intended test. *)
(* mrm:ignore SRC001 — infinite-endpoint sentinel *)
let is_pinf v = v = infinity

(* mrm:ignore SRC001 — infinite-endpoint sentinel *)
let is_ninf v = v = neg_infinity

let may_inf v = is_ninf v.flo || is_pinf v.fhi
let fv_may_zero v = (not v.nz) && v.flo <= 0. && v.fhi >= 0.
let fv_may_nonpos v = v.flo < 0. || (v.flo <= 0. && not v.nz)
let fv_may_neg v = v.flo < 0.

let fv_add a b =
  let fnan =
    a.fnan || b.fnan
    || (a.fknown && b.fknown
        && ((is_pinf a.fhi && is_ninf b.flo)
            || (is_ninf a.flo && is_pinf b.fhi)))
  in
  mk ~fnan ~fknown:(a.fknown && b.fknown) (ep_lo (a.flo +. b.flo))
    (ep_hi (a.fhi +. b.fhi))

let fv_neg a = { a with flo = -.a.fhi; fhi = -.a.flo }
let fv_sub a b = fv_add a (fv_neg b)

let corners op a b =
  let c1 = op a.flo b.flo and c2 = op a.flo b.fhi in
  let c3 = op a.fhi b.flo and c4 = op a.fhi b.fhi in
  if
    Float.is_nan c1 || Float.is_nan c2 || Float.is_nan c3 || Float.is_nan c4
  then (neg_infinity, infinity)
  else
    ( Float.min (Float.min c1 c2) (Float.min c3 c4),
      Float.max (Float.max c1 c2) (Float.max c3 c4) )

let fv_mul a b =
  let fnan =
    a.fnan || b.fnan
    || (a.fknown && b.fknown
        && ((fv_may_zero a && may_inf b) || (may_inf a && fv_may_zero b)))
  in
  let lo, hi = corners ( *. ) a b in
  mk ~nz:(a.nz && b.nz) ~fnan ~fknown:(a.fknown && b.fknown) lo hi

let fv_div a b =
  let fnan =
    a.fnan || b.fnan
    || (a.fknown && b.fknown && fv_may_zero a && fv_may_zero b)
  in
  let fknown = a.fknown && b.fknown in
  if fv_may_zero b then mk ~fnan ~fknown neg_infinity infinity
  else
    let lo, hi = corners ( /. ) a b in
    mk ~fnan ~fknown lo hi

let fv_abs a =
  if a.flo >= 0. then a
  else if a.fhi <= 0. then fv_neg a
  else
    { a with flo = 0.; fhi = Float.max (-.a.flo) a.fhi }

let fv_min a b =
  mk ~fnan:(a.fnan || b.fnan) ~fknown:(a.fknown && b.fknown)
    (Float.min a.flo b.flo) (Float.min a.fhi b.fhi)

let fv_max a b =
  mk ~fnan:(a.fnan || b.fnan) ~fknown:(a.fknown && b.fknown)
    (Float.max a.flo b.flo) (Float.max a.fhi b.fhi)

let fv_sqrt a =
  mk
    ~fnan:(a.fnan || (a.fknown && a.flo < 0.))
    ~fknown:a.fknown
    (sqrt (Float.max a.flo 0.))
    (sqrt (Float.max a.fhi 0.))

let fv_log a =
  let lo = if a.flo <= 0. then neg_infinity else log a.flo in
  let hi = if a.fhi <= 0. then neg_infinity else log a.fhi in
  mk ~fnan:(a.fnan || (a.fknown && a.flo < 0.)) ~fknown:a.fknown lo hi

let fv_exp a =
  mk
    ~nz:(a.flo > neg_infinity)
    ~fnan:a.fnan ~fknown:a.fknown (ep_lo (exp a.flo)) (ep_hi (exp a.fhi))

let fv_pow a b =
  let fnan = a.fnan || b.fnan || (a.fknown && a.flo < 0.) in
  let fknown = a.fknown && b.fknown in
  if a.flo >= 0. then
    let lo, hi = corners ( ** ) a b in
    mk ~fnan ~fknown lo hi
  else mk ~fnan ~fknown neg_infinity infinity

let fv_of_iv v =
  let lo =
    match v.ilo with
    | Ninf | Pinf -> neg_infinity
    | Lin l -> (
        match lin_is_const l with
        | Some c -> float_of_int c
        | None -> neg_infinity)
  in
  let hi =
    match v.ihi with
    | Ninf | Pinf -> infinity
    | Lin l -> (
        match lin_is_const l with Some c -> float_of_int c | None -> infinity)
  in
  mk ~fnan:false ~fknown:(v.iknown && lo > neg_infinity && hi < infinity) lo hi

let fv_to_string v =
  Printf.sprintf "[%g, %g]%s%s%s" v.flo v.fhi
    (if v.nz then " nz" else "")
    (if v.fnan then " nan?" else "")
    (if v.fknown then "" else " ?")
