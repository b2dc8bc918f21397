let log1p = Float.log1p

(* In log space, neg_infinity is the exact encoding of zero mass — the
   sentinel comparisons below are representation checks, not numeric
   tolerances. *)

let log_add la lb =
  (* mrm:ignore SRC001 — log-space zero sentinel *)
  if la = neg_infinity then lb
  else if lb = neg_infinity then la (* mrm:ignore SRC001 — zero sentinel *)
  else begin
    let hi = Float.max la lb and lo = Float.min la lb in
    hi +. log1p (exp (lo -. hi))
  end

let log_sub la lb =
  (* mrm:ignore SRC001 — log-space zero sentinel *)
  if lb = neg_infinity then la
  else if la < lb then invalid_arg "Logspace.log_sub: requires la >= lb"
  else if la = lb then neg_infinity
  else la +. log1p (-.exp (lb -. la))

let log_sum_exp a =
  let n = Array.length a in
  if n = 0 then neg_infinity
  else begin
    let hi = Array.fold_left Float.max neg_infinity a in
    (* mrm:ignore SRC001 — all-zero-mass sentinel: hi is -inf only when
       every input is exactly -inf *)
    if hi = neg_infinity then neg_infinity
    else begin
      let acc = ref 0. in
      for i = 0 to n - 1 do
        acc := !acc +. exp (a.(i) -. hi)
      done;
      hi +. log !acc
    end
  end
