(* Tests for the general eigensolver and the spectral second-order fluid
   queue of test/fluid.ml (the bounded comparator of the paper's
   Section 4), the oracle test_mmbm checks the stationary CR solver
   against. *)

module Dense = Mrm_linalg.Dense
module Eigen = Mrm_linalg.Eigen
module Lu = Mrm_linalg.Lu
module Tridiag = Mrm_linalg.Tridiag
module Generator = Mrm_ctmc.Generator
module Rng = Mrm_util.Rng
module Stats = Mrm_util.Stats

let check_close ?(tol = 1e-12) name expected actual =
  let scale = 1. +. Float.max (abs_float expected) (abs_float actual) in
  if abs_float (expected -. actual) > tol *. scale then
    Alcotest.failf "%s: expected %.17g, got %.17g" name expected actual

let sorted_eigenvalues m =
  let e = Eigen.eigenvalues m in
  Array.sort
    (fun a b ->
      compare (a.Complex.re, a.Complex.im) (b.Complex.re, b.Complex.im))
    e;
  e

(* ------------------------------------------------------------------ *)
(* Eigen                                                                *)

let test_eigen_diagonal () =
  let e = sorted_eigenvalues (Dense.diagonal [| 3.; 1.; 2. |]) in
  check_close "l1" 1. e.(0).Complex.re;
  check_close "l2" 2. e.(1).Complex.re;
  check_close "l3" 3. e.(2).Complex.re;
  Array.iter (fun z -> check_close "real" 0. z.Complex.im) e

let test_eigen_rotation () =
  (* [[0,-1],[1,0]]: eigenvalues +-i. *)
  let e = sorted_eigenvalues (Dense.of_arrays [| [| 0.; -1. |]; [| 1.; 0. |] |]) in
  check_close "re" 0. e.(0).Complex.re;
  check_close "im-" (-1.) e.(0).Complex.im;
  check_close "im+" 1. e.(1).Complex.im

let test_eigen_companion_roots () =
  (* Companion matrix of (z-1)(z-2)(z-3)(z+4). *)
  let companion =
    Dense.of_arrays
      [|
        [| 2.; 13.; -38.; 24. |];
        [| 1.; 0.; 0.; 0. |];
        [| 0.; 1.; 0.; 0. |];
        [| 0.; 0.; 1.; 0. |];
      |]
  in
  let e = sorted_eigenvalues companion in
  let expected = [| -4.; 1.; 2.; 3. |] in
  Array.iteri
    (fun k z ->
      check_close ~tol:1e-10 (Printf.sprintf "root %d" k) expected.(k)
        z.Complex.re;
      check_close ~tol:1e-10 "imag" 0. z.Complex.im)
    e

let test_eigen_trace_det_identities () =
  let rng = Rng.create ~seed:41L () in
  for trial = 1 to 10 do
    let n = 2 + Mrm_util.Rng.int_below rng 9 in
    let m =
      Dense.init ~rows:n ~cols:n (fun _ _ -> Rng.uniform rng -. 0.5)
    in
    let e = Eigen.eigenvalues m in
    let sum = Array.fold_left Complex.add Complex.zero e in
    let product = Array.fold_left Complex.mul Complex.one e in
    check_close ~tol:1e-9
      (Printf.sprintf "trace trial %d" trial)
      (Dense.trace m) sum.Complex.re;
    check_close ~tol:1e-9 "trace imag" 0. sum.Complex.im;
    check_close ~tol:1e-7
      (Printf.sprintf "det trial %d" trial)
      (Lu.det (Lu.factorize m))
      product.Complex.re
  done

let test_eigen_matches_symmetric_solver () =
  (* Symmetric tridiagonal: the general solver must agree with QL. *)
  let n = 8 in
  let diag = Array.init n (fun i -> float_of_int (i + 1) /. 2.) in
  let offdiag = Array.make (n - 1) 0.7 in
  let reference = Tridiag.eigenvalues ~diag ~offdiag in
  let dense =
    Dense.init ~rows:n ~cols:n (fun i j ->
        if i = j then diag.(i)
        else if abs (i - j) = 1 then 0.7
        else 0.)
  in
  let general = sorted_eigenvalues dense in
  Array.iteri
    (fun k z ->
      check_close ~tol:1e-10
        (Printf.sprintf "eig %d" k)
        reference.(k) z.Complex.re)
    general

let test_eigen_hessenberg_similarity () =
  let rng = Rng.create ~seed:43L () in
  let n = 7 in
  let m = Dense.init ~rows:n ~cols:n (fun _ _ -> Rng.uniform rng -. 0.5) in
  let h = Eigen.hessenberg m in
  (* Same trace, and actually Hessenberg. *)
  check_close ~tol:1e-10 "trace preserved" (Dense.trace m) (Dense.trace h);
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i > j + 1 then
        check_close ~tol:1e-13
          (Printf.sprintf "zero at (%d,%d)" i j)
          0. (Dense.get h i j)
    done
  done

let test_eigen_generator_spectrum () =
  (* A CTMC generator: one zero eigenvalue, the rest with Re < 0. *)
  let g =
    Generator.of_triplets ~states:4
      [ (0, 1, 1.); (1, 2, 2.); (2, 3, 1.5); (3, 0, 0.7); (2, 0, 0.3) ]
  in
  let e =
    Eigen.eigenvalues (Mrm_linalg.Sparse.to_dense (Generator.matrix g))
  in
  let near_zero = ref 0 in
  Array.iter
    (fun z ->
      if Complex.norm z < 1e-9 then incr near_zero
      else if z.Complex.re >= 1e-9 then
        Alcotest.failf "generator eigenvalue with positive real part %g"
          z.Complex.re)
    e;
  Alcotest.(check int) "one zero eigenvalue" 1 !near_zero

let test_eigen_invalid () =
  match Eigen.eigenvalues (Dense.zeros ~rows:2 ~cols:3) with
  | _ -> Alcotest.fail "non-square"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Fluid                                                                *)

let test_fluid_rbm_closed_form () =
  (* Single state: reflected Brownian motion, stationary distribution
     exponential with rate 2|r|/sigma^2. *)
  let g = Generator.of_triplets ~states:1 [] in
  let q = Fluid.make ~generator:g ~rates:[| -1. |] ~variances:[| 2. |] in
  let s = Fluid.stationary q in
  List.iter
    (fun x ->
      check_close ~tol:1e-8
        (Printf.sprintf "ccdf %g" x)
        (exp (-.x))
        (Fluid.ccdf s x))
    [ 0.; 0.25; 1.; 3. ];
  check_close ~tol:1e-8 "mean level" 1. (Fluid.mean_level s);
  check_close ~tol:1e-8 "decay rate" 1. (Fluid.decay_rate s)

let two_state_queue () =
  let g = Generator.of_triplets ~states:2 [ (0, 1, 1.); (1, 0, 2.) ] in
  Fluid.make ~generator:g ~rates:[| 1.5; -6. |] ~variances:[| 0.5; 1. |]

let test_fluid_two_state_properties () =
  let s = Fluid.stationary (two_state_queue ()) in
  check_close ~tol:1e-10 "drift" (-1.) (Fluid.mean_drift s);
  (* CDF properties. *)
  check_close "cdf at -1" 0. (Fluid.cdf s (-1.));
  check_close ~tol:1e-6 "cdf at infinity" 1. (Fluid.cdf s 200.);
  let previous = ref (-0.001) in
  for k = 0 to 40 do
    let c = Fluid.cdf s (0.2 *. float_of_int k) in
    Alcotest.(check bool) "monotone" true (c >= !previous -. 1e-9);
    previous := c
  done;
  (* Reflecting boundary: no atom at 0 when all sigma > 0. *)
  check_close ~tol:1e-8 "F(0) = 0" 0. (Fluid.cdf s 0.);
  (* Joint pieces sum to the marginal and approach pi. *)
  let pi = Fluid.background_distribution s in
  check_close ~tol:1e-6 "joint at infinity" pi.(0)
    (Fluid.joint_cdf s ~state:0 500.);
  Alcotest.(check bool) "positive mean level" true (Fluid.mean_level s > 0.);
  Alcotest.(check bool) "positive decay rate" true (Fluid.decay_rate s > 0.)

let test_fluid_matches_simulation () =
  let q = two_state_queue () in
  let s = Fluid.stationary q in
  let rng = Rng.create ~seed:71L () in
  let samples =
    Fluid.simulate_level q rng ~horizon:4000. ~dt:0.002 ~burn_in:100.
  in
  (* Euler-Maruyama carries O(sqrt dt) boundary bias; 5% tolerance. *)
  check_close ~tol:0.05 "mean level vs simulation" (Fluid.mean_level s)
    (Stats.mean samples);
  List.iter
    (fun x ->
      let empirical =
        Array.fold_left
          (fun acc v -> if v > x then acc +. 1. else acc)
          0. samples
        /. float_of_int (Array.length samples)
      in
      check_close ~tol:0.03
        (Printf.sprintf "ccdf vs simulation at %g" x)
        (Fluid.ccdf s x) empirical)
    [ 0.5; 1.; 2. ]

let test_fluid_mean_consistent_with_cdf () =
  (* E X = int ccdf dx numerically. *)
  let s = Fluid.stationary (two_state_queue ()) in
  let integral =
    Quadrature.simpson ~f:(Fluid.ccdf s) ~a:0. ~b:100. ~n:4000
  in
  check_close ~tol:1e-6 "mean = integral of ccdf" integral
    (Fluid.mean_level s)

let test_fluid_decay_dominates_tail () =
  let s = Fluid.stationary (two_state_queue ()) in
  let eta = Fluid.decay_rate s in
  (* log ccdf slope approaches -eta. *)
  let slope =
    (log (Fluid.ccdf s 30.) -. log (Fluid.ccdf s 25.)) /. 5.
  in
  check_close ~tol:1e-4 "tail slope" (-.eta) slope

let test_fluid_heavier_load_bigger_buffer () =
  let g = Generator.of_triplets ~states:2 [ (0, 1, 1.); (1, 0, 2.) ] in
  let light =
    Fluid.make ~generator:g ~rates:[| 1.0; -6. |] ~variances:[| 0.5; 1. |]
  in
  let heavy =
    Fluid.make ~generator:g ~rates:[| 2.0; -6. |] ~variances:[| 0.5; 1. |]
  in
  Alcotest.(check bool) "heavier load, larger mean level" true
    (Fluid.mean_level (Fluid.stationary heavy)
    > Fluid.mean_level (Fluid.stationary light))

let test_fluid_more_variance_bigger_buffer () =
  let g = Generator.of_triplets ~states:2 [ (0, 1, 1.); (1, 0, 2.) ] in
  let calm =
    Fluid.make ~generator:g ~rates:[| 1.5; -6. |] ~variances:[| 0.2; 0.2 |]
  in
  let noisy =
    Fluid.make ~generator:g ~rates:[| 1.5; -6. |] ~variances:[| 2.; 2. |]
  in
  Alcotest.(check bool) "more variance, larger mean level" true
    (Fluid.mean_level (Fluid.stationary noisy)
    > Fluid.mean_level (Fluid.stationary calm))

let test_fluid_validation () =
  let g = Generator.of_triplets ~states:2 [ (0, 1, 1.); (1, 0, 2.) ] in
  (* Unstable drift rejected. *)
  (match Fluid.make ~generator:g ~rates:[| 3.; -1. |] ~variances:[| 1.; 1. |] with
  | _ -> Alcotest.fail "unstable accepted"
  | exception Invalid_argument _ -> ());
  (* Zero variance rejected (spectral method needs S nonsingular). *)
  (match Fluid.make ~generator:g ~rates:[| 1.; -6. |] ~variances:[| 0.; 1. |] with
  | _ -> Alcotest.fail "zero variance accepted"
  | exception Invalid_argument _ -> ());
  match Fluid.make ~generator:g ~rates:[| 1. |] ~variances:[| 1.; 1. |] with
  | _ -> Alcotest.fail "dimension accepted"
  | exception Invalid_argument _ -> ()

let test_fluid_three_state () =
  (* Larger chain with complex eigenvalue pairs in the pencil. *)
  let g =
    Generator.of_triplets ~states:3
      [ (0, 1, 2.); (1, 2, 1.); (2, 0, 3.); (0, 2, 0.5); (2, 1, 0.4) ]
  in
  let q =
    Fluid.make ~generator:g
      ~rates:[| 2.; -1.; -4. |]
      ~variances:[| 1.; 0.6; 1.5 |]
  in
  let s = Fluid.stationary q in
  Alcotest.(check bool) "stable drift" true (Fluid.mean_drift s < 0.);
  check_close ~tol:1e-7 "boundary" 0. (Fluid.cdf s 0.);
  check_close ~tol:1e-5 "mass" 1. (Fluid.cdf s 300.);
  (* Simulation cross-check on the mean. *)
  let rng = Rng.create ~seed:77L () in
  let samples =
    Fluid.simulate_level q rng ~horizon:3000. ~dt:0.002 ~burn_in:100.
  in
  check_close ~tol:0.08 "3-state mean vs simulation" (Fluid.mean_level s)
    (Stats.mean samples)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fluid"
    [
      ( "eigen",
        [
          Alcotest.test_case "diagonal" `Quick test_eigen_diagonal;
          Alcotest.test_case "rotation (complex pair)" `Quick
            test_eigen_rotation;
          Alcotest.test_case "companion roots" `Quick
            test_eigen_companion_roots;
          Alcotest.test_case "trace/det identities" `Quick
            test_eigen_trace_det_identities;
          Alcotest.test_case "matches symmetric solver" `Quick
            test_eigen_matches_symmetric_solver;
          Alcotest.test_case "Hessenberg similarity" `Quick
            test_eigen_hessenberg_similarity;
          Alcotest.test_case "generator spectrum" `Quick
            test_eigen_generator_spectrum;
          Alcotest.test_case "invalid input" `Quick test_eigen_invalid;
        ] );
      ( "fluid",
        [
          Alcotest.test_case "RBM closed form" `Quick
            test_fluid_rbm_closed_form;
          Alcotest.test_case "two-state properties" `Quick
            test_fluid_two_state_properties;
          Alcotest.test_case "matches simulation" `Slow
            test_fluid_matches_simulation;
          Alcotest.test_case "mean = integral of ccdf" `Quick
            test_fluid_mean_consistent_with_cdf;
          Alcotest.test_case "tail decay rate" `Quick
            test_fluid_decay_dominates_tail;
          Alcotest.test_case "load monotonicity" `Quick
            test_fluid_heavier_load_bigger_buffer;
          Alcotest.test_case "variance monotonicity" `Quick
            test_fluid_more_variance_bigger_buffer;
          Alcotest.test_case "validation" `Quick test_fluid_validation;
          Alcotest.test_case "three-state chain" `Slow
            test_fluid_three_state;
        ] );
    ]
