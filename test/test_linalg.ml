(* Tests for mrm_linalg: vectors, dense matrices, LU, CSR sparse,
   complex solves and the tridiagonal eigensolver. *)

module Vec = Mrm_linalg.Vec
module Dense = Mrm_linalg.Dense
module Lu = Mrm_linalg.Lu
module Sparse = Mrm_linalg.Sparse
module Tridiag = Mrm_linalg.Tridiag

let check_close ?(tol = 1e-12) name expected actual =
  let scale = 1. +. Float.max (abs_float expected) (abs_float actual) in
  if abs_float (expected -. actual) > tol *. scale then
    Alcotest.failf "%s: expected %.17g, got %.17g" name expected actual

let check_vec ?(tol = 1e-12) name expected actual =
  if not (Vec.approx_equal ~tol expected actual) then
    Alcotest.failf "%s: expected %s, got %s" name
      (Format.asprintf "%a" Vec.pp expected)
      (Format.asprintf "%a" Vec.pp actual)

(* ------------------------------------------------------------------ *)

let test_vec_arithmetic () =
  let a = [| 1.; 2.; 3. |] and b = [| 4.; 5.; 6. |] in
  check_vec "add" [| 5.; 7.; 9. |] (Vec.add a b);
  check_vec "sub" [| -3.; -3.; -3. |] (Vec.sub a b);
  check_vec "scale" [| 2.; 4.; 6. |] (Vec.scale 2. a);
  check_close "dot" 32. (Vec.dot a b);
  check_close "norm1" 6. (Vec.norm1 a);
  check_close "norm_inf" 6. (Vec.norm_inf b);
  check_close "norm2" (sqrt 14.) (Vec.norm2 a);
  check_close "sum" 6. (Vec.sum a)

let test_vec_axpy () =
  let x = [| 1.; 2. |] and y = [| 10.; 20. |] in
  Vec.axpy ~alpha:3. ~x ~y;
  check_vec "axpy" [| 13.; 26. |] y;
  check_vec "x untouched" [| 1.; 2. |] x

let test_vec_dimension_mismatch () =
  Alcotest.check_raises "add mismatch"
    (Invalid_argument "Vec.add: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.add [| 1.; 2. |] [| 1.; 2.; 3. |]))

let test_vec_max_abs_diff () =
  check_close "max_abs_diff" 2. (Vec.max_abs_diff [| 1.; 5. |] [| 2.; 3. |])

(* ------------------------------------------------------------------ *)

let test_dense_construction () =
  let m = Dense.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  check_close "get" 3. (Dense.get m 1 0);
  Alcotest.(check int) "rows" 2 (Dense.rows m);
  Alcotest.check_raises "ragged"
    (Invalid_argument "Dense.of_arrays: ragged rows") (fun () ->
      ignore (Dense.of_arrays [| [| 1. |]; [| 1.; 2. |] |]))

let test_dense_mul () =
  let a = Dense.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Dense.of_arrays [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = Dense.mul a b in
  check_close "c00" 19. (Dense.get c 0 0);
  check_close "c01" 22. (Dense.get c 0 1);
  check_close "c10" 43. (Dense.get c 1 0);
  check_close "c11" 50. (Dense.get c 1 1)

let test_dense_identity_neutral () =
  let a = Dense.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Alcotest.(check bool) "I*A = A" true
    (Dense.approx_equal (Dense.mul (Dense.identity 2) a) a)

let test_dense_mv_vm () =
  let a = Dense.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  check_vec "mv" [| 5.; 11. |] (Dense.mv a [| 1.; 2. |]);
  check_vec "vm" [| 7.; 10. |] (Dense.vm [| 1.; 2. |] a);
  check_vec "vm = mv transpose"
    (Dense.mv (Dense.transpose a) [| 1.; 2. |])
    (Dense.vm [| 1.; 2. |] a)

let test_dense_trace_norm () =
  let a = Dense.of_arrays [| [| 1.; -2. |]; [| 3.; 4. |] |] in
  check_close "trace" 5. (Dense.trace a);
  check_close "norm_inf" 7. (Dense.norm_inf a)

(* ------------------------------------------------------------------ *)

let test_lu_solve_known () =
  let a =
    Dense.of_arrays
      [| [| 2.; 1.; 1. |]; [| 4.; -6.; 0. |]; [| -2.; 7.; 2. |] |]
  in
  let x_true = [| 1.; -2.; 3. |] in
  let b = Dense.mv a x_true in
  check_vec ~tol:1e-12 "lu solve" x_true (Lu.solve_system a b)

let test_lu_pivoting_required () =
  (* Zero top-left pivot: fails without partial pivoting. *)
  let a = Dense.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  check_vec "permutation solve" [| 2.; 1. |] (Lu.solve_system a [| 1.; 2. |])

let test_lu_det () =
  let a = Dense.of_arrays [| [| 2.; 0. |]; [| 0.; 3. |] |] in
  check_close "det diag" 6. (Lu.det (Lu.factorize a));
  let swap = Dense.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  check_close "det swap" (-1.) (Lu.det (Lu.factorize swap))

let test_lu_inverse () =
  let a = Dense.of_arrays [| [| 4.; 7. |]; [| 2.; 6. |] |] in
  let inv = Lu.inverse (Lu.factorize a) in
  Alcotest.(check bool) "A * A^-1 = I" true
    (Dense.approx_equal ~tol:1e-12 (Dense.mul a inv) (Dense.identity 2))

let test_lu_singular () =
  let a = Dense.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  match Lu.factorize a with
  | _ -> Alcotest.fail "expected Singular"
  | exception Lu.Singular _ -> ()

let test_lu_random_roundtrip () =
  (* Random diagonally-dominant systems solve to high accuracy. *)
  let rng = Mrm_util.Rng.create ~seed:5L () in
  for trial = 1 to 20 do
    let n = 1 + Mrm_util.Rng.int_below rng 15 in
    let a =
      Dense.init ~rows:n ~cols:n (fun i j ->
          let v = Mrm_util.Rng.uniform rng -. 0.5 in
          if i = j then v +. float_of_int n else v)
    in
    let x_true = Array.init n (fun _ -> Mrm_util.Rng.uniform rng) in
    let x = Lu.solve_system a (Dense.mv a x_true) in
    if not (Vec.approx_equal ~tol:1e-10 x_true x) then
      Alcotest.failf "roundtrip failed on trial %d (n=%d)" trial n
  done

let test_lu_solve_matrix () =
  let a = Dense.of_arrays [| [| 2.; 0. |]; [| 0.; 4. |] |] in
  let b = Dense.of_arrays [| [| 2.; 4. |]; [| 8.; 12. |] |] in
  let x = Lu.solve_matrix (Lu.factorize a) b in
  check_close "x00" 1. (Dense.get x 0 0);
  check_close "x11" 3. (Dense.get x 1 1)

(* ------------------------------------------------------------------ *)

let test_sparse_of_triplets () =
  let m = Sparse.of_triplets ~rows:3 ~cols:3 [ (0, 1, 2.); (2, 0, -1.) ] in
  Alcotest.(check int) "nnz" 2 (Sparse.nnz m);
  check_close "get present" 2. (Sparse.get m 0 1);
  check_close "get absent" 0. (Sparse.get m 1 1)

let test_sparse_duplicates_summed () =
  let m = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 1.); (0, 0, 2.) ] in
  check_close "summed" 3. (Sparse.get m 0 0);
  Alcotest.(check int) "merged" 1 (Sparse.nnz m)

let test_sparse_zero_dropped () =
  let m = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 0.); (1, 1, 5.) ] in
  Alcotest.(check int) "zeros dropped" 1 (Sparse.nnz m)

let test_sparse_out_of_range () =
  Alcotest.check_raises "range"
    (Invalid_argument "Sparse.of_triplets: (2,0) out of 2x2") (fun () ->
      ignore (Sparse.of_triplets ~rows:2 ~cols:2 [ (2, 0, 1.) ]))

let test_sparse_dense_roundtrip () =
  let d =
    Dense.of_arrays
      [| [| 0.; 1.; 0. |]; [| 2.; 0.; 3. |]; [| 0.; 0.; 4. |] |]
  in
  Alcotest.(check bool) "roundtrip" true
    (Dense.approx_equal d (Sparse.to_dense (Sparse.of_dense d)))

let test_sparse_mv_matches_dense () =
  let rng = Mrm_util.Rng.create ~seed:19L () in
  for _ = 1 to 20 do
    let rows = 1 + Mrm_util.Rng.int_below rng 10 in
    let cols = 1 + Mrm_util.Rng.int_below rng 10 in
    let d =
      Dense.init ~rows ~cols (fun _ _ ->
          if Mrm_util.Rng.uniform rng < 0.4 then Mrm_util.Rng.uniform rng -. 0.5
          else 0.)
    in
    let s = Sparse.of_dense d in
    let x = Array.init cols (fun _ -> Mrm_util.Rng.uniform rng) in
    let y = Array.init rows (fun _ -> Mrm_util.Rng.uniform rng) in
    check_vec ~tol:1e-13 "spmv" (Dense.mv d x) (Sparse.mv s x);
    check_vec ~tol:1e-13 "spvm" (Dense.vm y d) (Sparse.vm y s)
  done

let test_sparse_mv_into () =
  let s = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 2.); (1, 0, 1.) ] in
  let y = Array.make 2 99. in
  Sparse.mv_into s [| 3.; 4. |] y;
  check_vec "mv_into" [| 6.; 3. |] y;
  let x = Array.make 2 1. in
  Alcotest.check_raises "aliasing rejected"
    (Invalid_argument "Sparse.mv_into: x and y must be distinct") (fun () ->
      Sparse.mv_into s x x)

let test_sparse_add_scale () =
  let a = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 1.); (0, 1, 2.) ] in
  let b = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, -1.); (1, 1, 4.) ] in
  let c = Sparse.add a b in
  (* 1 + (-1) = 0 must vanish from the structure. *)
  Alcotest.(check int) "cancellation drops entry" 2 (Sparse.nnz c);
  check_close "kept" 2. (Sparse.get c 0 1);
  let s = Sparse.scale 2. a in
  check_close "scale" 4. (Sparse.get s 0 1);
  Alcotest.(check int) "scale by zero empties" 0
    (Sparse.nnz (Sparse.scale 0. a))

let test_sparse_transpose_row_sums () =
  let a = Sparse.of_triplets ~rows:2 ~cols:3 [ (0, 2, 7.); (1, 0, 1.) ] in
  let at = Sparse.transpose a in
  Alcotest.(check int) "transposed rows" 3 (Sparse.rows at);
  check_close "transposed entry" 7. (Sparse.get at 2 0);
  check_vec "row sums" [| 7.; 1. |] (Sparse.row_sums a);
  check_close "mean nnz" 1. (Sparse.mean_nnz_per_row a)

let test_sparse_identity_diagonal () =
  let i3 = Sparse.identity 3 in
  check_vec "identity mv" [| 1.; 2.; 3. |] (Sparse.mv i3 [| 1.; 2.; 3. |]);
  let d = Sparse.diagonal [| 1.; 0.; 3. |] in
  Alcotest.(check int) "diagonal drops zero" 2 (Sparse.nnz d)

(* ------------------------------------------------------------------ *)

let test_cmatrix_solve_real_system () =
  (* A complex solve on a real system agrees with the real LU. *)
  let a = Dense.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let b = [| 5.; 10. |] in
  let x_real = Lu.solve_system a b in
  let x_complex =
    Cmatrix.solve (Cmatrix.of_real a)
      (Array.map (fun v -> { Complex.re = v; im = 0. }) b)
  in
  Array.iteri
    (fun i xc ->
      check_close "re" x_real.(i) xc.Complex.re;
      check_close "im" 0. xc.Complex.im)
    x_complex

let test_cmatrix_complex_system () =
  (* (i) * x = 1  =>  x = -i. *)
  let a = Cmatrix.init ~rows:1 ~cols:1 (fun _ _ -> Complex.i) in
  let x = Cmatrix.solve a [| Complex.one |] in
  check_close "re" 0. x.(0).Complex.re;
  check_close "im" (-1.) x.(0).Complex.im

let test_cmatrix_mv () =
  let a = Cmatrix.identity 2 in
  let x = [| Complex.one; Complex.i |] in
  let y = Cmatrix.mv a x in
  check_close "mv id re" 1. y.(0).Complex.re;
  check_close "mv id im" 1. y.(1).Complex.im

let test_cmatrix_singular () =
  let a = Cmatrix.zeros ~rows:2 ~cols:2 in
  match Cmatrix.solve a [| Complex.one; Complex.one |] with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure _ -> ()

let test_cmatrix_add_sub_scale () =
  let a = Cmatrix.identity 2 in
  let b = Cmatrix.scale { Complex.re = 2.; im = 0. } a in
  let c = Cmatrix.sub (Cmatrix.add a b) a in
  check_close "scaled entry" 2. (Cmatrix.get c 0 0).Complex.re;
  check_close "off entry" 0. (Cmatrix.get c 0 1).Complex.re

(* ------------------------------------------------------------------ *)

let test_tridiag_known_eigenvalues () =
  (* The (2,-1) tridiagonal of size n has eigenvalues
     2 - 2 cos (k pi / (n+1)). *)
  let n = 12 in
  let eig =
    Tridiag.eigenvalues ~diag:(Array.make n 2.)
      ~offdiag:(Array.make (n - 1) (-1.))
  in
  for k = 1 to n do
    let expected =
      2. -. (2. *. cos (float_of_int k *. Float.pi /. float_of_int (n + 1)))
    in
    check_close ~tol:1e-10
      (Printf.sprintf "eigenvalue %d" k)
      expected
      eig.(k - 1)
  done

let test_tridiag_diagonal_matrix () =
  let eig = Tridiag.eigen ~diag:[| 3.; 1.; 2. |] ~offdiag:[| 0.; 0. |] in
  check_vec "sorted eigenvalues" [| 1.; 2.; 3. |] eig.Tridiag.eigenvalues

let test_tridiag_first_components () =
  (* 2x2 symmetric [[0,1],[1,0]]: eigenvectors (1, +-1)/sqrt 2, so both
     squared first components are 1/2. *)
  let eig = Tridiag.eigen ~diag:[| 0.; 0. |] ~offdiag:[| 1. |] in
  check_close "lambda-" (-1.) eig.Tridiag.eigenvalues.(0);
  check_close "lambda+" 1. eig.Tridiag.eigenvalues.(1);
  Array.iter
    (fun c -> check_close ~tol:1e-12 "weight" 0.5 (c *. c))
    eig.Tridiag.first_components

let test_tridiag_weights_sum () =
  (* Sum of squared first components is 1 (orthonormal eigenbasis). *)
  let rng = Mrm_util.Rng.create ~seed:31L () in
  for _ = 1 to 10 do
    let n = 2 + Mrm_util.Rng.int_below rng 10 in
    let diag = Array.init n (fun _ -> Mrm_util.Rng.uniform rng) in
    let offdiag =
      Array.init (n - 1) (fun _ -> 0.1 +. Mrm_util.Rng.uniform rng)
    in
    let eig = Tridiag.eigen ~diag ~offdiag in
    let total =
      Array.fold_left
        (fun acc c -> acc +. (c *. c))
        0. eig.Tridiag.first_components
    in
    check_close ~tol:1e-10 "weights sum to 1" 1. total
  done

let test_tridiag_size_one () =
  let eig = Tridiag.eigen ~diag:[| 42. |] ~offdiag:[||] in
  check_close "single eigenvalue" 42. eig.Tridiag.eigenvalues.(0);
  check_close "single component" 1. eig.Tridiag.first_components.(0)

let test_tridiag_invalid () =
  Alcotest.check_raises "offdiag length"
    (Invalid_argument "Tridiag.eigen: offdiag must have length n-1")
    (fun () -> ignore (Tridiag.eigen ~diag:[| 1.; 2. |] ~offdiag:[||]))

(* ------------------------------------------------------------------ *)
(* Fused multi-vector products and the tridiagonal fast path: every
   variant must be bit-for-bit equal to independent [mv_into_range]
   calls — the solver's parallel sweep relies on it. *)

(* Random square CSR matrix as a triplet list; duplicate positions are
   fine ([of_triplets] merges them). *)
let gen_square_matrix =
  QCheck2.Gen.(
    let* n = int_range 1 20 in
    let* entries = list_size (int_range 0 (3 * n)) (float_range (-2.) 2.) in
    let* seed = int_range 1 1000 in
    let triplets =
      List.mapi
        (fun k v -> ((k * seed) mod n, ((k * 7) + seed) mod n, v))
        entries
    in
    return (n, triplets))

let gen_vectors n count =
  QCheck2.Gen.(
    list_repeat (count * n) (float_range (-1.) 1.)
    |> map (fun xs ->
           let a = Array.of_list xs in
           Array.init count (fun k -> Array.sub a (k * n) n)))

(* Reference: [count] independent single-vector products over the same
   range, outputs left untouched outside it. *)
let reference_multi m xs ~lo ~hi =
  Array.map
    (fun x ->
      let y = Array.make (Sparse.rows m) 0.123456789 in
      Sparse.mv_into_range m x y ~lo ~hi;
      y)
    xs

let prop_mv_multi_bitwise =
  QCheck2.Test.make ~count:200
    ~name:"mv{2,3,multi}_into_range = independent mv_into_range (bitwise)"
    QCheck2.Gen.(
      let* n, triplets = gen_square_matrix in
      let* count = int_range 0 5 in
      let* xs = gen_vectors n count in
      let* a = int_range 0 n in
      let* b = int_range 0 n in
      return (n, triplets, xs, min a b, max a b))
    (fun (n, triplets, xs, lo, hi) ->
      let m = Sparse.of_triplets ~rows:n ~cols:n triplets in
      let count = Array.length xs in
      let expected = reference_multi m xs ~lo ~hi in
      let ys = Array.init count (fun _ -> Array.make n 0.123456789) in
      Sparse.mv_multi_into_range m xs ys ~lo ~hi;
      (* The 1-, 2- and 3-vector prefixes hit the specialized kernels. *)
      let prefix k =
        count < k
        || begin
             let ys = Array.init k (fun _ -> Array.make n 0.123456789) in
             Sparse.mv_multi_into_range m (Array.sub xs 0 k) ys ~lo ~hi;
             Array.sub expected 0 k = ys
           end
      in
      expected = ys && prefix 1 && prefix 2 && prefix 3)

(* Random birth-death generator-shaped matrix: entries only on the
   three central diagonals, any of them possibly zero (dropped by
   [of_triplets], i.e. genuinely absent). *)
let gen_birth_death =
  QCheck2.Gen.(
    let* n = int_range 1 20 in
    let* diag = list_repeat n (oneof [ return 0.; float_range (-3.) 3. ]) in
    let* lower =
      list_repeat (max 0 (n - 1)) (oneof [ return 0.; float_range 0.1 2. ])
    in
    let* upper =
      list_repeat (max 0 (n - 1)) (oneof [ return 0.; float_range 0.1 2. ])
    in
    let triplets =
      List.concat
        [
          List.mapi (fun i v -> (i, i, v)) diag;
          List.mapi (fun i v -> (i + 1, i, v)) lower;
          List.mapi (fun i v -> (i, i + 1, v)) upper;
        ]
    in
    return (n, triplets))

let prop_tridiag_bitwise =
  QCheck2.Test.make ~count:200
    ~name:"tridiag fast path = CSR mv_into_range (bitwise)"
    QCheck2.Gen.(
      let* n, triplets = gen_birth_death in
      let* count = int_range 0 4 in
      let* xs = gen_vectors n count in
      let* a = int_range 0 n in
      let* b = int_range 0 n in
      return (n, triplets, xs, min a b, max a b))
    (fun (n, triplets, xs, lo, hi) ->
      let m = Sparse.of_triplets ~rows:n ~cols:n triplets in
      match Sparse.as_tridiagonal m with
      | None -> false (* every generated matrix is tridiagonal *)
      | Some td ->
          Sparse.tridiag_dim td = n
          &&
          let count = Array.length xs in
          let expected = reference_multi m xs ~lo ~hi in
          let ys = Array.init count (fun _ -> Array.make n 0.123456789) in
          Sparse.tridiag_mv_multi_into_range td xs ys ~lo ~hi;
          let multi_ok = expected = ys in
          let single_ok =
            count < 1
            || begin
                 let y = Array.make n 0.123456789 in
                 Sparse.tridiag_mv_multi_into_range td [| xs.(0) |] [| y |]
                   ~lo ~hi;
                 expected.(0) = y
               end
          in
          multi_ok && single_ok)

let test_as_tridiagonal_rejects () =
  let check name m expected =
    Alcotest.(check bool)
      name expected
      (Option.is_some (Sparse.as_tridiagonal m))
  in
  check "off-band entry"
    (Sparse.of_triplets ~rows:3 ~cols:3 [ (0, 2, 1.); (1, 1, 2.) ])
    false;
  check "non-square"
    (Sparse.of_triplets ~rows:2 ~cols:3 [ (0, 0, 1.) ])
    false;
  check "diagonal only"
    (Sparse.of_triplets ~rows:3 ~cols:3 [ (0, 0, 1.); (2, 2, 5.) ])
    true;
  check "empty matrix" (Sparse.of_triplets ~rows:4 ~cols:4 []) true;
  check "full band"
    (Sparse.of_triplets ~rows:3 ~cols:3
       [ (0, 0, 1.); (0, 1, 2.); (1, 0, 3.); (1, 1, 4.); (1, 2, 5.);
         (2, 1, 6.); (2, 2, 7.) ])
    true

let test_mv_multi_rejects_aliasing () =
  let m = Sparse.identity 3 in
  let x = [| 1.; 2.; 3. |] and x2 = [| 4.; 5.; 6. |] in
  let y = Array.make 3 0. in
  Alcotest.check_raises "output aliases input"
    (Invalid_argument
       "Sparse.mv_multi_into_range: inputs and outputs must be distinct")
    (fun () -> Sparse.mv_multi_into_range m [| x |] [| x |] ~lo:0 ~hi:3);
  Alcotest.check_raises "outputs alias each other"
    (Invalid_argument
       "Sparse.mv_multi_into_range: outputs must be distinct")
    (fun () ->
      Sparse.mv_multi_into_range m [| x; x2 |] [| y; y |] ~lo:0 ~hi:3)

let test_mv_multi_empty_range () =
  (* An empty [lo, hi) (coincident by_nnz boundaries produce these)
     must leave the outputs untouched. *)
  let m = Sparse.of_triplets ~rows:3 ~cols:3 [ (0, 0, 2.); (2, 1, 1.) ] in
  let xs = [| [| 1.; 2.; 3. |] |] in
  let ys = [| [| 9.; 9.; 9. |] |] in
  Sparse.mv_multi_into_range m xs ys ~lo:2 ~hi:2;
  check_vec "untouched" [| 9.; 9.; 9. |] ys.(0);
  match Sparse.as_tridiagonal m with
  | None -> Alcotest.fail "expected tridiagonal"
  | Some td ->
      Sparse.tridiag_mv_multi_into_range td xs ys ~lo:0 ~hi:0;
      check_vec "tridiag untouched" [| 9.; 9.; 9. |] ys.(0)

(* The round kernels read and write unchecked inside the rows the
   arguments describe, so the argument checks of [round_into_range] and
   [tridiag_round_into_range] are all that keeps a bad call from
   writing out of bounds. Each violated precondition must raise. *)
let test_sparse_of_csr () =
  (* zeros dropped, rows kept: row 1 loses its only entry *)
  let m =
    Sparse.of_csr ~rows:3 ~cols:3 ~row_start:[| 0; 2; 3; 5 |]
      ~col_index:[| 0; 2; 1; 0; 1 |] ~values:[| 1.; 0.; 0.; 4.; 5. |]
  in
  Alcotest.(check int) "nnz" 3 (Sparse.nnz m);
  Alcotest.(check (list (triple int int (float 0.))))
    "entries"
    [ (0, 0, 1.); (2, 0, 4.); (2, 1, 5.) ]
    (let acc = ref [] in
     Sparse.iter m (fun i j v -> acc := (i, j, v) :: !acc);
     List.rev !acc);
  let bad name ~row_start ~col_index ~values =
    match Sparse.of_csr ~rows:2 ~cols:2 ~row_start ~col_index ~values with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  bad "short row_start" ~row_start:[| 0; 1 |] ~col_index:[| 0 |]
    ~values:[| 1. |];
  bad "col_index/values lengths" ~row_start:[| 0; 1; 1 |]
    ~col_index:[| 0; 1 |] ~values:[| 1. |];
  bad "row_start end" ~row_start:[| 0; 1; 1 |] ~col_index:[| 0; 1 |]
    ~values:[| 1.; 2. |];
  Alcotest.check_raises "decreasing row_start"
    (Invalid_argument "Sparse.of_csr: row_start decreasing") (fun () ->
      ignore
        (Sparse.of_csr ~rows:2 ~cols:2 ~row_start:[| 0; 2; 1 |]
           ~col_index:[| 0 |] ~values:[| 1. |]));
  bad "column out of range" ~row_start:[| 0; 1; 1 |] ~col_index:[| 2 |]
    ~values:[| 1. |];
  bad "columns not increasing" ~row_start:[| 0; 2; 2 |]
    ~col_index:[| 1; 1 |] ~values:[| 1.; 2. |]

let test_round_guards () =
  let n = 4 in
  let m =
    Sparse.of_triplets ~rows:n ~cols:n
      [ (0, 0, 0.5); (0, 1, 0.5); (1, 0, 0.25); (1, 1, 0.5); (1, 2, 0.25);
        (2, 1, 0.25); (2, 2, 0.5); (2, 3, 0.25); (3, 2, 0.5); (3, 3, 0.5) ]
  in
  let td =
    match Sparse.as_tridiagonal m with
    | Some td -> td
    | None -> Alcotest.fail "expected a tridiagonal matrix"
  in
  let vec k = Array.make k 0.25 in
  let rw = { Sparse.r' = vec n; s' = vec n; coupling = [||] } in
  let kernels =
    [
      ("csr", Sparse.round_into_range m);
      ("band", Sparse.tridiag_round_into_range td);
    ]
  in
  let expect_invalid name call =
    List.iter
      (fun (kernel, round) ->
        match call round with
        | () -> Alcotest.failf "%s (%s): no Invalid_argument" name kernel
        | exception Invalid_argument _ -> ())
      kernels
  in
  (* order 3 runs the row-interleaved layout, order 2 one vector per
     order: every check is tried on both *)
  List.iter
    (fun order ->
      let blk ?(dim = n) () = Sparse.block ~order ~dim in
      let call ?(rw = rw) ?cur ?next ?(weights = [| 1. |]) ?accs ?(lo = 0)
          ?(hi = n) round =
        let cur = match cur with Some c -> c | None -> blk () in
        let next = match next with Some c -> c | None -> blk () in
        let accs = match accs with Some a -> a | None -> [| blk () |] in
        round rw ~cur ~next ~weights ~accs ~lo ~hi
      in
      let name what = Printf.sprintf "order %d: %s" order what in
      expect_invalid (name "short cur") (call ~cur:(blk ~dim:(n - 1) ()));
      expect_invalid (name "short next") (call ~next:(blk ~dim:(n - 1) ()));
      expect_invalid (name "short accumulator")
        (call ~accs:[| blk ~dim:(n - 1) () |]);
      let other = Sparse.block ~order:(order + 1) ~dim:n in
      expect_invalid (name "next of another order") (call ~next:other);
      expect_invalid (name "accumulator of another order")
        (call ~accs:[| other |]);
      let u = blk () in
      expect_invalid (name "cur == next") (call ~cur:u ~next:u);
      expect_invalid (name "accumulator is cur") (call ~cur:u ~accs:[| u |]);
      expect_invalid (name "accumulator is next") (call ~next:u ~accs:[| u |]);
      expect_invalid (name "weights/accs count")
        (call ~weights:[| 1.; 2. |] ~accs:[| blk () |]);
      expect_invalid (name "short r'")
        (call ~rw:{ rw with Sparse.r' = vec (n - 1) });
      expect_invalid (name "short s'")
        (call ~rw:{ rw with Sparse.s' = vec (n - 1) });
      let coupling k dim =
        Array.init k (fun _ -> (1., Sparse.identity dim))
      in
      expect_invalid (name "too few coupling matrices")
        (call ~rw:{ rw with Sparse.coupling = coupling (order - 1) n });
      expect_invalid (name "coupling of the wrong size")
        (call ~rw:{ rw with Sparse.coupling = coupling order (n + 1) });
      expect_invalid (name "lo < 0") (call ~lo:(-1));
      expect_invalid (name "hi > dim") (call ~hi:(n + 1));
      expect_invalid (name "lo > hi") (call ~lo:3 ~hi:2);
      (* the well-formed call the variants above each break *)
      List.iter (fun (_, round) -> call round) kernels)
    [ 3; 2 ];
  let wide = Sparse.of_triplets ~rows:n ~cols:(n + 1) [ (0, 0, 1.) ] in
  let blk = Sparse.block ~order:3 ~dim:n in
  Alcotest.check_raises "non-square CSR matrix"
    (Invalid_argument "Sparse.round_into_range: non-square matrix")
    (fun () ->
      Sparse.round_into_range wide rw ~cur:blk
        ~next:(Sparse.block ~order:3 ~dim:n)
        ~weights:[||] ~accs:[||] ~lo:0 ~hi:n)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mrm_linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "arithmetic" `Quick test_vec_arithmetic;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "dimension mismatch" `Quick
            test_vec_dimension_mismatch;
          Alcotest.test_case "max_abs_diff" `Quick test_vec_max_abs_diff;
        ] );
      ( "dense",
        [
          Alcotest.test_case "construction" `Quick test_dense_construction;
          Alcotest.test_case "multiplication" `Quick test_dense_mul;
          Alcotest.test_case "identity neutral" `Quick
            test_dense_identity_neutral;
          Alcotest.test_case "mv and vm" `Quick test_dense_mv_vm;
          Alcotest.test_case "trace and norm" `Quick test_dense_trace_norm;
        ] );
      ( "lu",
        [
          Alcotest.test_case "known system" `Quick test_lu_solve_known;
          Alcotest.test_case "pivoting" `Quick test_lu_pivoting_required;
          Alcotest.test_case "determinant" `Quick test_lu_det;
          Alcotest.test_case "inverse" `Quick test_lu_inverse;
          Alcotest.test_case "singular" `Quick test_lu_singular;
          Alcotest.test_case "random roundtrips" `Quick
            test_lu_random_roundtrip;
          Alcotest.test_case "solve matrix" `Quick test_lu_solve_matrix;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "triplets" `Quick test_sparse_of_triplets;
          Alcotest.test_case "duplicates" `Quick test_sparse_duplicates_summed;
          Alcotest.test_case "zero dropped" `Quick test_sparse_zero_dropped;
          Alcotest.test_case "out of range" `Quick test_sparse_out_of_range;
          Alcotest.test_case "of_csr" `Quick test_sparse_of_csr;
          Alcotest.test_case "dense roundtrip" `Quick
            test_sparse_dense_roundtrip;
          Alcotest.test_case "mv matches dense" `Quick
            test_sparse_mv_matches_dense;
          Alcotest.test_case "mv_into" `Quick test_sparse_mv_into;
          Alcotest.test_case "add/scale" `Quick test_sparse_add_scale;
          Alcotest.test_case "transpose/row sums" `Quick
            test_sparse_transpose_row_sums;
          Alcotest.test_case "identity/diagonal" `Quick
            test_sparse_identity_diagonal;
        ] );
      ( "cmatrix",
        [
          Alcotest.test_case "real system" `Quick
            test_cmatrix_solve_real_system;
          Alcotest.test_case "complex system" `Quick
            test_cmatrix_complex_system;
          Alcotest.test_case "mv" `Quick test_cmatrix_mv;
          Alcotest.test_case "singular" `Quick test_cmatrix_singular;
          Alcotest.test_case "add/sub/scale" `Quick
            test_cmatrix_add_sub_scale;
        ] );
      ( "tridiag",
        [
          Alcotest.test_case "known eigenvalues" `Quick
            test_tridiag_known_eigenvalues;
          Alcotest.test_case "diagonal matrix" `Quick
            test_tridiag_diagonal_matrix;
          Alcotest.test_case "first components" `Quick
            test_tridiag_first_components;
          Alcotest.test_case "weights sum" `Quick test_tridiag_weights_sum;
          Alcotest.test_case "size one" `Quick test_tridiag_size_one;
          Alcotest.test_case "invalid input" `Quick test_tridiag_invalid;
        ] );
      ( "fused kernels",
        [
          QCheck_alcotest.to_alcotest prop_mv_multi_bitwise;
          QCheck_alcotest.to_alcotest prop_tridiag_bitwise;
          Alcotest.test_case "as_tridiagonal detection" `Quick
            test_as_tridiagonal_rejects;
          Alcotest.test_case "aliasing rejected" `Quick
            test_mv_multi_rejects_aliasing;
          Alcotest.test_case "empty range" `Quick test_mv_multi_empty_range;
          Alcotest.test_case "round guards" `Quick test_round_guards;
        ] );
    ]
