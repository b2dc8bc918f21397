module Dense = Mrm_linalg.Dense
module Eigen = Mrm_linalg.Eigen
module Lu = Mrm_linalg.Lu
module Expm = Mrm_linalg.Expm
module Vec = Mrm_linalg.Vec
module Sparse = Mrm_linalg.Sparse
module Generator = Mrm_ctmc.Generator
module Stationary = Mrm_ctmc.Stationary
module Model = Mrm_core.Model
module Diagnostics = Mrm_check.Diagnostics
module Trace = Mrm_obs.Trace
module Metrics = Mrm_obs.Metrics

exception Error of Diagnostics.t

let () =
  Printexc.register_printer (function
    | Error d -> Some (Format.asprintf "%a" Diagnostics.pp d)
    | _ -> None)

let m_solves = Metrics.counter "mmbm.solves"
let m_iterations = Metrics.counter "mmbm.cr_iterations"
let m_residual = Metrics.gauge "mmbm.residual"
let m_atom_mass = Metrics.gauge "mmbm.atom_mass"

(* ------------------------------------------------------------------ *)
(* Small dense helpers on [float array array] (row-major, n x n). The
   CR inner loop works on raw arrays so the subtraction-free structure
   stays explicit; [Dense.t] appears only at the API boundary. *)

let mat_mul n a b =
  let c = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    let ai = a.(i) and ci = c.(i) in
    for k = 0 to n - 1 do
      let aik = ai.(k) in
      (* mrm:ignore SRC001 — exact-zero skip: pure optimization, any
         nonzero (however small) still contributes *)
      if aik <> 0. then begin
        let bk = b.(k) in
        for j = 0 to n - 1 do
          ci.(j) <- ci.(j) +. (aik *. bk.(j))
        done
      end
    done
  done;
  c

let mat_norm_inf n a =
  let m = ref 0. in
  for i = 0 to n - 1 do
    let s = ref 0. in
    for j = 0 to n - 1 do
      s := !s +. Float.abs a.(i).(j)
    done;
    if !s > !m then m := !s
  done;
  !m

(* Column sums of [a + b], accumulated additively (both are >= 0 at
   every call site). *)
let col_sums2 n a b =
  let w = Array.make n 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      w.(j) <- w.(j) +. a.(i).(j) +. b.(i).(j)
    done
  done;
  w

(* ------------------------------------------------------------------ *)
(* GTH-style factorization of the M-matrix [M = -A0]:

   [offd.(i).(j) = |M_ij| >= 0] for [i <> j] (the off-diagonal of [A0],
   nonnegative throughout CR), and [w.(j) >= 0] the column sums of [M]
   (equal to the column sums of [A_{-1} + A_1] by the CR
   zero-column-sum invariant). Diagonals are never stored: each pivot
   is reconstructed additively as the active-submatrix column sum, the
   Schur updates add same-sign magnitudes, and the column-sum vector
   updates additively ([w'_j = w_j + |M_kj| w_k / M_kk]) — no
   subtraction happens anywhere in the factorization. *)

let gth_factorize n offd w =
  let o = Array.map Array.copy offd and wv = Array.copy w in
  let lu = Array.make_matrix n n 0. in
  for k = 0 to n - 1 do
    let piv = ref wv.(k) in
    for i = k + 1 to n - 1 do
      piv := !piv +. o.(i).(k)
    done;
    if not (!piv > 0.) then
      raise
        (Error
           (Diagnostics.error ~code:"MRM066"
              ~context:[ ("pivot_column", string_of_int k) ]
              "singular pivot in subtraction-free elimination"));
    lu.(k).(k) <- !piv;
    for i = k + 1 to n - 1 do
      lu.(i).(k) <- -.(o.(i).(k) /. !piv)
    done;
    for j = k + 1 to n - 1 do
      lu.(k).(j) <- -.o.(k).(j)
    done;
    for i = k + 1 to n - 1 do
      if o.(i).(k) > 0. then
        for j = k + 1 to n - 1 do
          if i <> j then
            o.(i).(j) <- o.(i).(j) +. (o.(i).(k) *. o.(k).(j) /. !piv)
        done
    done;
    for j = k + 1 to n - 1 do
      wv.(j) <- wv.(j) +. (o.(k).(j) *. wv.(k) /. !piv)
    done
  done;
  lu

(* Solve [M x = b] from the GTH factors; for [b >= 0] every update adds
   a nonnegative term (the stored L/U off-diagonals are <= 0). *)
let gth_solve n lu b =
  let x = Array.copy b in
  for k = 0 to n - 1 do
    let xk = x.(k) in
    (* mrm:ignore SRC001 — exact-zero skip: pure optimization *)
    if xk <> 0. then
      for i = k + 1 to n - 1 do
        x.(i) <- x.(i) -. (lu.(i).(k) *. xk)
      done
  done;
  for k = n - 1 downto 0 do
    let s = ref x.(k) in
    for j = k + 1 to n - 1 do
      s := !s -. (lu.(k).(j) *. x.(j))
    done;
    x.(k) <- !s /. lu.(k).(k)
  done;
  x

let gth_solve_matrix n lu b =
  let x = Array.make_matrix n n 0. in
  let col = Array.make n 0. in
  for j = 0 to n - 1 do
    for i = 0 to n - 1 do
      col.(i) <- b.(i).(j)
    done;
    let y = gth_solve n lu col in
    for i = 0 to n - 1 do
      x.(i).(j) <- y.(i)
    done
  done;
  x

(* ------------------------------------------------------------------ *)
(* Cyclic Reduction on [A_{-1} + A_0 G + A_1 G^2 = 0] where the triple
   has zero column sums, [A_{-1}, A_1 >= 0] and [A_0] has nonnegative
   off-diagonal (the transposed shifted quadratic built in [solve]).
   Returns the minimal nonnegative solvent G (spectral radius < 1) and
   the iteration count. [on_iterate] observes the down-coupling block
   norm after each step (the bench residual trajectory). *)

let cyclic_reduction ?on_iterate ~eps ~max_iterations n am0 a0_off0 ap0 =
  let am = ref (Array.map Array.copy am0) in
  let ap = ref (Array.map Array.copy ap0) in
  let a0_off = ref (Array.map Array.copy a0_off0) in
  let ahat = Array.make_matrix n n 0. in
  let scale = Float.max (mat_norm_inf n am0) 1e-300 in
  let rec loop k =
    if mat_norm_inf n !am <= eps *. scale then k
    else if k >= max_iterations then
      raise
        (Error
           (Diagnostics.error ~code:"MRM065"
              ~context:
                [
                  ("iterations", string_of_int k);
                  ( "down_block_norm",
                    Printf.sprintf "%.3e" (mat_norm_inf n !am /. scale) );
                ]
              "cyclic reduction did not converge"))
    else begin
      let w = col_sums2 n !am !ap in
      let lu = gth_factorize n !a0_off w in
      let x = gth_solve_matrix n lu !am in
      let y = gth_solve_matrix n lu !ap in
      let am' = mat_mul n !am x in
      let ap' = mat_mul n !ap y in
      let cross = mat_mul n !am y and cross' = mat_mul n !ap x in
      let off = Array.map Array.copy !a0_off in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then
            off.(i).(j) <- off.(i).(j) +. cross.(i).(j) +. cross'.(i).(j);
          ahat.(i).(j) <- ahat.(i).(j) +. cross'.(i).(j)
        done
      done;
      am := am';
      ap := ap';
      a0_off := off;
      (match on_iterate with
      | None -> ()
      | Some f -> f (k + 1) (mat_norm_inf n !am /. scale));
      loop (k + 1)
    end
  in
  let iters = loop 0 in
  (* Recovery: G = (-\hat A_0^(inf))^{-1} A_{-1}^(0), where
     \hat A_0^(k+1) = \hat A_0^(k) + A_1^(k) (-A_0^(k))^{-1} A_{-1}^(k)
     starting from A_0^(0) (whose diagonal is the negated initial
     column sums). The accumulated [ahat] holds the corrections; the
     assembled -\hat A_0 is an M-matrix whose off-diagonal stays
     nonpositive — only its diagonal mixes signs, the one place the
     recovery is not subtraction-free (DESIGN §12). *)
  let w0 = col_sums2 n am0 ap0 in
  let neg_ahat =
    Dense.init ~rows:n ~cols:n (fun i j ->
        let a0_init = if i = j then -.w0.(j) else a0_off0.(i).(j) in
        -.(a0_init +. ahat.(i).(j)))
  in
  let g =
    match Lu.factorize neg_ahat with
    | exception Lu.Singular k ->
        raise
          (Error
             (Diagnostics.error ~code:"MRM066"
                ~context:[ ("pivot_column", string_of_int k) ]
                "singular solvent-recovery system in cyclic reduction"))
    | f -> Lu.solve_matrix f (Dense.of_arrays am0)
  in
  (Dense.to_arrays g, iters)

(* ------------------------------------------------------------------ *)
(* Boundary vector: left null vector of K = 1/2 H Sigma - R (the zero
   net probability flux condition at the regulated boundary). K has
   rank n-1 when the solvent is simple, so a bordered system — one row
   of K^T replaced by the normalization row of ones — pins the
   direction. Row choices are tried in turn; the accepted solve must
   reproduce [nu K = 0] to working accuracy and be nonnegative. *)

let boundary_vector n k_mat =
  let kt = Dense.transpose k_mat in
  let k_norm = Float.max (Dense.norm_inf k_mat) 1e-300 in
  let try_row r =
    let bordered =
      Dense.init ~rows:n ~cols:n (fun i j ->
          if i = r then 1. else Dense.get kt i j)
    in
    let rhs = Array.init n (fun i -> if i = r then 1. else 0.) in
    match Lu.solve_system bordered rhs with
    | exception Lu.Singular _ -> None
    | nu ->
        let worst_neg = Array.fold_left (fun acc v -> Float.min acc v) 0. nu in
        let nu_norm = Vec.norm_inf nu in
        let residual = Vec.norm_inf (Dense.vm nu k_mat) in
        if
          Float.is_finite nu_norm && nu_norm > 0.
          && residual <= 1e-8 *. k_norm *. nu_norm
          && worst_neg >= -1e-8 *. nu_norm
        then Some (Array.map (fun v -> Float.max v 0.) nu)
        else None
  in
  let rec search r =
    if r < 0 then
      raise
        (Error
           (Diagnostics.error ~code:"MRM066"
              ~context:[ ("matrix", "boundary flux") ]
              "boundary system is singular or defective"))
    else match try_row r with Some nu -> nu | None -> search (r - 1)
  in
  search (n - 1)

(* ------------------------------------------------------------------ *)
(* Solver                                                               *)

type result = {
  nu : float array;
  h : Dense.t;
  atoms : float array;
  marginal : float array;
  mean_level : float;
  reward_rate : float;
  tau : float;
  iterations : int;
  residual : float;
  regularized : int;
  warnings : Diagnostics.t list;
}

let quadratic_residual n h sigma rates q_dense =
  (* || 1/2 H^2 Sigma - H R + Q || / (||1/2 H^2 Sigma|| + ||H R|| + ||Q||) *)
  let h2 = Dense.mul h h in
  let half_h2_sigma =
    Dense.init ~rows:n ~cols:n (fun i j ->
        0.5 *. Dense.get h2 i j *. sigma.(j))
  in
  let hr =
    Dense.init ~rows:n ~cols:n (fun i j -> Dense.get h i j *. rates.(j))
  in
  let res = Dense.add (Dense.sub half_h2_sigma hr) q_dense in
  let scale =
    Dense.norm_inf half_h2_sigma +. Dense.norm_inf hr
    +. Dense.norm_inf q_dense
  in
  Dense.norm_inf res /. Float.max scale 1e-300

let solve ?(drain = 0.) ?regularize ?(eps = 1e-14) ?(max_iterations = 200)
    ?(validate = false) ?on_iterate (model : Model.t) =
  let n = Model.dim model in
  Trace.with_span "mmbm.solve" ~attrs:[ ("states", Trace.Int n) ]
  @@ fun () ->
  Metrics.incr m_solves;
  let warnings = ref [] in
  (* Effective drift and variance vectors. *)
  let rates = Array.map (fun r -> r -. drain) model.Model.rates in
  let regularized = ref 0 in
  let sigma =
    match regularize with
    | None -> Array.copy model.Model.variances
    | Some floor ->
        if not (floor > 0. && Float.is_finite floor) then
          invalid_arg "Mmbm.solve: regularize must be > 0";
        Array.map
          (fun s ->
            if s < floor then begin
              incr regularized;
              floor
            end
            else s)
          model.Model.variances
  in
  if !regularized > 0 then
    warnings :=
      Diagnostics.warning ~code:"MRM067"
        ~context:
          [
            ("states", string_of_int !regularized);
            ("floor", Printf.sprintf "%g" (Option.get regularize));
          ]
        "variance floor applied to zero/near-zero variance states"
      :: !warnings;
  (let zero_var =
     Array.to_list
       (Array.of_seq
          (Seq.filter
             (fun i -> not (sigma.(i) > 0.))
             (Seq.init n (fun i -> i))))
   in
   if zero_var <> [] then
     raise
       (Error
          (Diagnostics.error ~code:"MRM062"
             ~context:
               [
                 ( "states",
                   String.concat ","
                     (List.map string_of_int
                        (List.filteri (fun k _ -> k < 8) zero_var)) );
                 ("count", string_of_int (List.length zero_var));
               ]
             "stationary analysis needs positive variance in every state \
              (use --regularize)")));
  (* Stability: mean drift under the stationary law must be < 0. *)
  let pi = Stationary.gth model.Model.generator in
  let mean_drift = ref 0. in
  for i = 0 to n - 1 do
    mean_drift := !mean_drift +. (pi.(i) *. rates.(i))
  done;
  let drift_scale =
    Array.fold_left (fun acc r -> Float.max acc (Float.abs r)) 1. rates
  in
  if Float.abs !mean_drift <= 1e-12 *. drift_scale then
    raise
      (Error
         (Diagnostics.error ~code:"MRM064"
            ~context:[ ("mean_drift", Printf.sprintf "%.6e" !mean_drift) ]
            "mean drift is zero: the regulated level is null recurrent"))
  else if !mean_drift > 0. then
    raise
      (Error
         (Diagnostics.error ~code:"MRM063"
            ~context:
              [
                ("mean_drift", Printf.sprintf "%.6e" !mean_drift);
                ("hint", Printf.sprintf "--drain > %g" (!mean_drift +. drain));
              ]
            "mean drift is positive: no stationary density (increase \
             --drain)"));
  (* Shift z = tau (w - 1): tau is the smallest value making
     C = tau^2 Sigma / 2 + tau R + Q entrywise nonnegative (the
     largest root of each state's diagonal quadratic). *)
  let q_dense = Sparse.to_dense (Generator.matrix model.Model.generator) in
  let q = Dense.to_arrays q_dense in
  let tau = ref 0. in
  for i = 0 to n - 1 do
    let s = sigma.(i) and r = rates.(i) in
    let ti = (-.r +. sqrt ((r *. r) -. (2. *. s *. q.(i).(i)))) /. s in
    if ti > !tau then tau := ti
  done;
  let tau = !tau in
  if not (tau > 0. && Float.is_finite tau) then
    raise
      (Error
         (Diagnostics.error ~code:"MRM066"
            ~context:[ ("tau", Printf.sprintf "%g" tau) ]
            "degenerate unit-circle shift"));
  Trace.add_attr "tau" (Trace.Float tau);
  (* Shifted triple (row orientation): A-hat = tau^2 Sigma / 2 (diag),
     B-hat = -tau^2 Sigma - tau R (diag), C-hat = tau^2 Sigma/2 + tau R
     + Q >= 0, with A-hat + B-hat + C-hat = Q. CR runs on the transpose
     so the solvent is one-sided: A_{-1} = C-hat^T, A_0 = B-hat,
     A_1 = A-hat. *)
  let am0 =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = j then
              Float.max 0.
                ((tau *. tau *. sigma.(i) /. 2.)
                +. (tau *. rates.(i))
                +. q.(i).(i))
            else q.(j).(i)))
  in
  let ap0 =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = j then tau *. tau *. sigma.(i) /. 2. else 0.))
  in
  let a0_off0 = Array.make_matrix n n 0. in
  let g, iterations =
    Trace.with_span "mmbm.cr" @@ fun () ->
    cyclic_reduction ?on_iterate ~eps ~max_iterations n am0 a0_off0 ap0
  in
  Metrics.incr ~by:iterations m_iterations;
  Trace.add_attr "iterations" (Trace.Int iterations);
  (* H = tau (G^T - I): the stable exponent of the density. *)
  let h =
    Dense.init ~rows:n ~cols:n (fun i j ->
        tau *. (g.(j).(i) -. if i = j then 1. else 0.))
  in
  let residual = quadratic_residual n h sigma rates q_dense in
  Metrics.set m_residual residual;
  Trace.add_attr "residual" (Trace.Float residual);
  (* Boundary condition, normalization, marginals. *)
  let nu, marginal, mean_level =
    Trace.with_span "mmbm.boundary" @@ fun () ->
    let k_mat =
      Dense.init ~rows:n ~cols:n (fun i j ->
          (0.5 *. Dense.get h i j *. sigma.(j))
          -. if i = j then rates.(i) else 0.)
    in
    let nu = boundary_vector n k_mat in
    let neg_h_t =
      Dense.init ~rows:n ~cols:n (fun i j -> -.Dense.get h j i)
    in
    let lu =
      match Lu.factorize neg_h_t with
      | exception Lu.Singular k ->
          raise
            (Error
               (Diagnostics.error ~code:"MRM066"
                  ~context:[ ("pivot_column", string_of_int k) ]
                  "density exponent is singular"))
      | f -> f
    in
    let m = Lu.solve lu nu in
    let mass = Vec.sum m in
    if not (mass > 0. && Float.is_finite mass) then
      raise
        (Error
           (Diagnostics.error ~code:"MRM066"
              ~context:[ ("mass", Printf.sprintf "%g" mass) ]
              "stationary density has non-positive total mass"));
    let nu = Array.map (fun v -> v /. mass) nu in
    let m = Array.map (fun v -> v /. mass) m in
    (* mean level = marginal . (-H)^{-1} 1, via (-H) u = 1. *)
    let neg_h = Dense.transpose neg_h_t in
    let u = Lu.solve_system neg_h (Array.make n 1.) in
    let mean = ref 0. in
    for i = 0 to n - 1 do
      mean := !mean +. (m.(i) *. u.(i))
    done;
    (nu, m, !mean)
  in
  let atoms = Array.make n 0. in
  Metrics.set m_atom_mass (Vec.sum atoms);
  if validate then begin
    let err = ref 0. in
    for i = 0 to n - 1 do
      err := Float.max !err (Float.abs (marginal.(i) -. pi.(i)))
    done;
    if !err > 1e-8 then
      warnings :=
        Diagnostics.warning ~code:"MRM068"
          ~context:[ ("max_abs_error", Printf.sprintf "%.3e" !err) ]
          "phase marginal disagrees with the CTMC stationary vector"
        :: !warnings
  end;
  let reward_rate = ref 0. in
  for i = 0 to n - 1 do
    reward_rate := !reward_rate +. (marginal.(i) *. model.Model.rates.(i))
  done;
  {
    nu;
    h;
    atoms;
    marginal;
    mean_level;
    reward_rate = !reward_rate;
    tau;
    iterations;
    residual;
    regularized = !regularized;
    warnings = List.rev !warnings;
  }

(* ------------------------------------------------------------------ *)
(* Evaluation                                                           *)

let density r x =
  let n = Array.length r.nu in
  if x < 0. then Array.make n 0.
  else Dense.vm r.nu (Expm.expm (Dense.scale x r.h))

let cdf r x =
  let n = Array.length r.nu in
  if x < 0. then Array.make n 0.
  else begin
    (* F(x) = atoms + marginal - nu e^{Hx} (-H)^{-1} *)
    let p = Dense.vm r.nu (Expm.expm (Dense.scale x r.h)) in
    let neg_h_t =
      Dense.init ~rows:n ~cols:n (fun i j -> -.Dense.get r.h j i)
    in
    let tail = Lu.solve_system neg_h_t p in
    Array.init n (fun i -> r.atoms.(i) +. r.marginal.(i) -. tail.(i))
  end

let total_density r x = Vec.sum (density r x)

let decay_rate r =
  -.Array.fold_left
      (fun acc z -> Float.max acc z.Complex.re)
      neg_infinity (Eigen.eigenvalues r.h)
