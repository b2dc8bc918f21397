(* Order statistics for run reports and [ledger compare]. *)

(* A growable sample buffer. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.; len = 0 }

let add s x =
  if s.len >= Array.length s.data then begin
    let bigger = Array.make (2 * Array.length s.data) 0. in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let values s = Array.sub s.data 0 s.len

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: an observed value, never an interpolation. *)
let percentile xs q = Mrm_cluster.Loadgen.percentile (sorted xs) q

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), so the spreads printed here are
   the ones an outside check computes from the same values. One value
   is its own quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: no values";
  if n = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = n + 1 in
    let cut i =
      let j = min (n - 1) (max 1 (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (cut 1, cut 2, cut 3)
  end

(* Python's [statistics.median]: the mean of the middle pair for an even
   count. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if Float.abs q2 > 0. then (q3 -. q1) /. Float.abs q2 else 0.
