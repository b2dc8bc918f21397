(* Tests for the CTMC substrate: Poisson weights, generators, transient
   solutions (uniformization) and stationary distributions. *)

module Poisson = Mrm_ctmc.Poisson
module Generator = Mrm_ctmc.Generator
module Transient = Mrm_ctmc.Transient
module Stationary = Mrm_ctmc.Stationary
module Sparse = Mrm_linalg.Sparse
module Vec = Mrm_linalg.Vec

let check_close ?(tol = 1e-12) name expected actual =
  let scale = 1. +. Float.max (abs_float expected) (abs_float actual) in
  if abs_float (expected -. actual) > tol *. scale then
    Alcotest.failf "%s: expected %.17g, got %.17g" name expected actual

(* ------------------------------------------------------------------ *)
(* Poisson                                                              *)

let test_pmf_small () =
  check_close "pois(3;0)" (exp (-3.)) (Poisson.pmf ~lambda:3. 0);
  check_close "pois(3;2)" (exp (-3.) *. 4.5) (Poisson.pmf ~lambda:3. 2)

let test_pmf_sums_to_one () =
  List.iter
    (fun lambda ->
      let acc = ref 0. in
      for k = 0 to 400 do
        acc := !acc +. Poisson.pmf ~lambda k
      done;
      check_close ~tol:1e-12 (Printf.sprintf "mass lambda=%g" lambda) 1. !acc)
    [ 0.1; 1.; 10.; 100. ]

let test_log_tail_consistency () =
  (* tail(m) - tail(m+1) = pmf(m). *)
  let lambda = 7.3 in
  List.iter
    (fun m ->
      let diff =
        exp (Poisson.log_tail ~lambda m) -. exp (Poisson.log_tail ~lambda (m + 1))
      in
      check_close ~tol:1e-11
        (Printf.sprintf "tail diff at %d" m)
        (Poisson.pmf ~lambda m) diff)
    [ 1; 5; 8; 15 ]

let test_log_tail_edges () =
  check_close "tail at 0" 0. (Poisson.log_tail ~lambda:5. 0);
  check_close "tail negative m" 0. (Poisson.log_tail ~lambda:5. (-3));
  Alcotest.(check bool) "lambda 0" true
    (Poisson.log_tail ~lambda:0. 1 = neg_infinity)

let test_log_tail_deep () =
  (* Deep tail stays finite and decreasing where linear arithmetic has
     long underflowed: lambda = 40000 (the paper's large example). *)
  let lambda = 40_000. in
  let t1 = Poisson.log_tail ~lambda 41_000 in
  let t2 = Poisson.log_tail ~lambda 42_000 in
  let t3 = Poisson.log_tail ~lambda 44_000 in
  Alcotest.(check bool) "finite" true (Float.is_finite t1);
  Alcotest.(check bool) "decreasing 1" true (t2 < t1);
  Alcotest.(check bool) "decreasing 2" true (t3 < t2);
  (* Chernoff bound: log P(X >= m) <= -lambda h(m/lambda),
     h(x) = x log x - x + 1; the true tail is within a few nats. *)
  let m = 44_000. in
  let x = m /. lambda in
  let chernoff = -.lambda *. ((x *. log x) -. x +. 1.) in
  Alcotest.(check bool) "below Chernoff" true (t3 <= chernoff);
  Alcotest.(check bool) "near Chernoff" true (t3 > chernoff -. 10.)

let test_tail_quantile () =
  let lambda = 25. in
  let log_eps = log 1e-12 in
  let m = Poisson.tail_quantile ~lambda ~log_eps in
  Alcotest.(check bool) "tail below eps" true
    (Poisson.log_tail ~lambda m < log_eps);
  Alcotest.(check bool) "tail above eps one earlier" true
    (Poisson.log_tail ~lambda (m - 1) >= log_eps)

let test_weights_window () =
  List.iter
    (fun lambda ->
      let w = Poisson.weights_window ~lambda ~eps:1e-10 in
      Alcotest.(check bool)
        (Printf.sprintf "mass covered lambda=%g" lambda)
        true
        (w.Poisson.mass > 1. -. 1e-10);
      Alcotest.(check int) "array size"
        (w.Poisson.right - w.Poisson.left + 1)
        (Array.length w.Poisson.weights);
      (* Window brackets the mode. *)
      let mode = int_of_float lambda in
      Alcotest.(check bool) "left <= mode" true (w.Poisson.left <= mode);
      Alcotest.(check bool) "right >= mode" true (w.Poisson.right >= mode))
    [ 0.5; 4.; 120.; 3000. ];
  let degenerate = Poisson.weights_window ~lambda:0. ~eps:1e-10 in
  check_close "lambda 0 weight" 1. degenerate.Poisson.weights.(0)

(* ------------------------------------------------------------------ *)
(* Generator                                                            *)

let two_state = Generator.of_triplets ~states:2 [ (0, 1, 2.); (1, 0, 3.) ]

let test_generator_validation () =
  Alcotest.check_raises "positive diagonal"
    (Invalid_argument
       "Generator.of_sparse: positive diagonal 1 at state 0") (fun () ->
      ignore
        (Generator.of_sparse
           (Sparse.of_triplets ~rows:1 ~cols:1 [ (0, 0, 1.) ])));
  (* Row sums must vanish. *)
  (match
     Generator.of_sparse
       (Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, -1.); (0, 1, 2.) ])
   with
  | _ -> Alcotest.fail "expected row-sum rejection"
  | exception Invalid_argument _ -> ());
  (* Non-finite entries pass the sign and row-sum checks (an inf - inf
     row sum is NaN), so they are rejected on their own. *)
  List.iter
    (fun v ->
      Alcotest.check_raises
        (Printf.sprintf "non-finite entry %g" v)
        (Invalid_argument
           (Printf.sprintf "Generator.of_sparse: non-finite entry %g at (0,0)"
              (-.v)))
        (fun () ->
          ignore
            (Generator.of_sparse
               (Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, -.v); (0, 1, v) ])));
      Alcotest.check_raises
        (Printf.sprintf "non-finite rate %g" v)
        (Invalid_argument
           (Printf.sprintf
              "Generator.of_triplets: non-finite rate %g at (0, 1)" v))
        (fun () -> ignore (Generator.of_triplets ~states:2 [ (0, 1, v) ])))
    [ infinity; nan ];
  (* Non-square rejected. *)
  match Generator.of_sparse (Sparse.of_triplets ~rows:2 ~cols:3 []) with
  | _ -> Alcotest.fail "expected square rejection"
  | exception Invalid_argument _ -> ()

(* Failure messages must name the offending index and value, so the
   static-analysis layer (and humans) can act on them directly. *)
let test_generator_diagnostic_messages () =
  Alcotest.check_raises "negative off-diagonal names (i, j) and value"
    (Invalid_argument
       "Generator.of_sparse: negative off-diagonal -0.5 at (0,1)") (fun () ->
      ignore
        (Generator.of_sparse
           (Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 1, -0.5) ])));
  Alcotest.check_raises "row sum names row and value"
    (Invalid_argument "Generator.of_sparse: row 1 sums to 2 (not 0)")
    (fun () ->
      ignore
        (Generator.of_sparse
           (Sparse.of_triplets ~rows:2 ~cols:2 [ (1, 0, 2.) ])));
  Alcotest.check_raises "of_triplets negative rate names (i, j) and value"
    (Invalid_argument "Generator.of_triplets: negative rate -3 at (1, 0)")
    (fun () ->
      ignore (Generator.of_triplets ~states:2 [ (0, 1, 1.); (1, 0, -3.) ]));
  Alcotest.check_raises "of_triplets out-of-range names the pair"
    (Invalid_argument
       "Generator.of_triplets: transition (0, 5) out of [0, 2)") (fun () ->
      ignore (Generator.of_triplets ~states:2 [ (0, 5, 1.) ]));
  Alcotest.check_raises "birth_death negative rate names the state"
    (Invalid_argument
       "Generator.birth_death: negative death rate -1 at state 2") (fun () ->
      ignore
        (Generator.birth_death ~states:3
           ~birth:(fun _ -> 1.)
           ~death:(fun i -> if i = 2 then -1. else 1.)))

let test_generator_of_triplets_diagonal () =
  let q = Generator.matrix two_state in
  check_close "diag 0" (-2.) (Sparse.get q 0 0);
  check_close "diag 1" (-3.) (Sparse.get q 1 1);
  check_close "uniformization rate" 3. (Generator.uniformization_rate two_state)

let test_generator_ignores_supplied_diagonal () =
  let g =
    Generator.of_triplets ~states:2 [ (0, 0, -99.); (0, 1, 1.); (1, 0, 1.) ]
  in
  check_close "diagonal recomputed" (-1.) (Sparse.get (Generator.matrix g) 0 0)

(* Random generators whose fastest state leaves at exactly [q] (integer
   rates, so the exit sum is exact), with absorbing states and real
   rates below q/3 elsewhere. *)
let random_generators ~q ~count =
  let rng = Random.State.make [| int_of_float q |] in
  List.init count (fun _ ->
      let states = 2 + Random.State.int rng 9 in
      let fastest = Random.State.int rng states in
      let target i = (i + 1 + Random.State.int rng (states - 1)) mod states in
      let triplets = ref [] in
      for i = 0 to states - 1 do
        if i = fastest then begin
          let rest = ref (int_of_float q) in
          while !rest > 0 do
            let part = 1 + Random.State.int rng !rest in
            triplets := (i, target i, float_of_int part) :: !triplets;
            rest := !rest - part
          done
        end
        else if Random.State.int rng 4 > 0 then
          for _ = 1 to 1 + Random.State.int rng 3 do
            triplets :=
              (i, target i, Random.State.float rng (q /. 3.)) :: !triplets
          done
      done;
      Generator.of_triplets ~states !triplets)

(* Rows 0 and 2 leave at 1e-12, inside the row-sum tolerance of_sparse
   allows, with no diagonal stored: Q' must place row 0's 1 before the
   entry to its right and row 2's after the entry to its left. *)
let faint =
  Generator.of_sparse
    (Sparse.of_triplets ~rows:3 ~cols:3
       [ (0, 2, 1e-12); (1, 0, 2.); (1, 1, -2.); (2, 1, 1e-12) ])

let entry_bits m =
  let acc = ref [] in
  Sparse.iter m (fun i j v -> acc := (i, j, Int64.bits_of_float v) :: !acc);
  List.rev !acc

let test_uniformized_stochastic () =
  let q = Generator.uniformization_rate two_state in
  let p = Generator.uniformized two_state ~rate:q in
  let sums = Sparse.row_sums p in
  Array.iteri (fun i s -> check_close (Printf.sprintf "row %d" i) 1. s) sums;
  (* Entries non-negative. *)
  Sparse.iter p (fun i j v ->
      if v < 0. then Alcotest.failf "negative P'(%d,%d) = %g" i j v);
  Alcotest.check_raises "rate too small"
    (Invalid_argument
       "Generator.uniformized: rate 1 below uniformization rate 3")
    (fun () -> ignore (Generator.uniformized two_state ~rate:1.));
  (* Q' entry for entry and bit for bit against the three-step
     composition it replaced. At rate q the fastest state's diagonal
     1 - q fl(1/q) is exactly 0 for q = 4 (dropped) and about 1.1e-16
     for q = 49 (kept). *)
  List.iter
    (fun q ->
      List.iteri
        (fun k g ->
          List.iter
            (fun rate ->
              Alcotest.(check (list (triple int int int64)))
                (Printf.sprintf "q = %g, generator %d, rate %g" q k rate)
                (entry_bits (Oracles.uniformized_three_step g ~rate))
                (entry_bits (Generator.uniformized g ~rate)))
            [ q; q +. 1. ])
        (faint :: random_generators ~q ~count:100))
    [ 4.; 49. ];
  let fastest_diagonal q =
    Sparse.get
      (Generator.uniformized (Generator.of_triplets ~states:2 [ (0, 1, q) ])
         ~rate:q)
      0 0
  in
  check_close ~tol:0. "q = 4 diagonal dropped" 0. (fastest_diagonal 4.);
  Alcotest.(check bool)
    "q = 49 diagonal kept" true
    (fastest_diagonal 49. > 0. && fastest_diagonal 49. < 1e-15)

let test_birth_death_structure () =
  let g =
    Generator.birth_death ~states:4
      ~birth:(fun i -> float_of_int (3 - i))
      ~death:(fun i -> 2. *. float_of_int i)
  in
  let q = Generator.matrix g in
  check_close "birth 0" 3. (Sparse.get q 0 1);
  check_close "death 2" 4. (Sparse.get q 2 1);
  check_close "no jump 0->2" 0. (Sparse.get q 0 2);
  check_close "diag 1" (-.(2. +. 2.)) (Sparse.get q 1 1)

(* The direct CSR construction against the triplet one it replaced,
   bit for bit, on random rates with zero rates among them (a dropped
   entry, and a zero diagonal where a state has no exit). *)
let test_birth_death_direct () =
  let rng = Random.State.make [| 2004 |] in
  let draw () =
    match Random.State.int rng 4 with
    | 0 -> 0.
    | 1 -> float_of_int (1 + Random.State.int rng 5)
    | 2 -> Random.State.float rng 10.
    | _ -> ldexp (Random.State.float rng 1.) (Random.State.int rng 60 - 30)
  in
  for trial = 1 to 600 do
    let states = if trial <= 500 then 1 + (trial mod 3) else trial - 490 in
    let births = Array.init states (fun _ -> draw ())
    and deaths = Array.init states (fun _ -> draw ()) in
    let birth i = births.(i) and death i = deaths.(i) in
    let expected = Oracles.birth_death_triplets ~states ~birth ~death in
    let got = Generator.birth_death ~states ~birth ~death in
    let what = Printf.sprintf "trial %d (%d states)" trial states in
    Alcotest.(check (list (triple int int int64)))
      what
      (entry_bits (Generator.matrix expected))
      (entry_bits (Generator.matrix got));
    Alcotest.(check int64)
      (what ^ ": q")
      (Int64.bits_of_float (Generator.uniformization_rate expected))
      (Int64.bits_of_float (Generator.uniformization_rate got))
  done;
  List.iter
    (fun v ->
      Alcotest.check_raises
        (Printf.sprintf "birth rate %g" v)
        (Invalid_argument
           (Printf.sprintf
              "Generator.birth_death: non-finite birth rate %g at state 0" v))
        (fun () ->
          ignore
            (Generator.birth_death ~states:2 ~birth:(fun _ -> v)
               ~death:(fun _ -> 1.))))
    [ infinity; nan ]

let test_exit_rates_and_jumps () =
  let exits = Generator.exit_rates two_state in
  check_close "exit 0" 2. exits.(0);
  let jumps = Generator.embedded_jump_distribution two_state 0 in
  Alcotest.(check int) "one target" 1 (Array.length jumps);
  let target, p = jumps.(0) in
  Alcotest.(check int) "target" 1 target;
  check_close "prob" 1. p;
  (* Absorbing state. *)
  let absorbing = Generator.of_triplets ~states:2 [ (0, 1, 1.) ] in
  Alcotest.(check int) "absorbing has no jumps" 0
    (Array.length (Generator.embedded_jump_distribution absorbing 1));
  (* bit for bit against the whole-matrix scan it replaced *)
  let jump_bits jumps =
    Array.map (fun (j, p) -> (j, Int64.bits_of_float p)) jumps
  in
  List.iteri
    (fun k g ->
      for i = 0 to Generator.dim g - 1 do
        Alcotest.(check (array (pair int int64)))
          (Printf.sprintf "generator %d, state %d" k i)
          (jump_bits (Oracles.embedded_jump_distribution_scan g i))
          (jump_bits (Generator.embedded_jump_distribution g i))
      done)
    ((faint :: random_generators ~q:4. ~count:100)
    @ random_generators ~q:49. ~count:100)

(* ------------------------------------------------------------------ *)
(* Transient                                                            *)

let test_transient_two_state_closed_form () =
  (* p_00(t) = pi_0 + (1 - pi_0) e^{-(a+b) t} with a = 2, b = 3,
     pi_0 = b/(a+b) = 0.6 for the chain 0 ->(2) 1, 1 ->(3) 0. *)
  let a = 2. and b = 3. in
  List.iter
    (fun t ->
      let p = Transient.probabilities two_state ~initial:[| 1.; 0. |] ~t in
      let expected = (b /. (a +. b)) +. ((a /. (a +. b)) *. exp (-.(a +. b) *. t)) in
      check_close ~tol:1e-11 (Printf.sprintf "p00(%g)" t) expected p.(0);
      check_close ~tol:1e-11 "mass" 1. (Vec.sum p))
    [ 0.; 0.1; 0.5; 1.; 5. ]

let test_transient_initial_validation () =
  (match Transient.probabilities two_state ~initial:[| 0.5; 0.4 |] ~t:1. with
  | _ -> Alcotest.fail "expected sub-1 mass rejection"
  | exception Invalid_argument _ -> ());
  (match Transient.probabilities two_state ~initial:[| 1.5; -0.5 |] ~t:1. with
  | _ -> Alcotest.fail "expected negative rejection"
  | exception Invalid_argument _ -> ());
  match Transient.probabilities two_state ~initial:[| 1. |] ~t:1. with
  | _ -> Alcotest.fail "expected dimension rejection"
  | exception Invalid_argument _ -> ()

let test_transient_t_zero () =
  let p = Transient.probabilities two_state ~initial:[| 0.3; 0.7 |] ~t:0. in
  check_close "p0" 0.3 p.(0);
  check_close "p1" 0.7 p.(1)

let test_expected_reward_rate () =
  let rates = [| 10.; 0. |] in
  let value =
    Transient.expected_reward_rate two_state ~initial:[| 1.; 0. |] ~rates
      ~t:1000.
  in
  (* At stationarity: 0.6 * 10. *)
  check_close ~tol:1e-9 "stationary rate" 6. value

(* ------------------------------------------------------------------ *)
(* Stationary                                                           *)

let test_gth_two_state () =
  let pi = Stationary.gth two_state in
  check_close "pi0" 0.6 pi.(0);
  check_close "pi1" 0.4 pi.(1)

let test_gth_matches_power_iteration () =
  let g =
    Generator.of_triplets ~states:4
      [
        (0, 1, 1.); (1, 2, 2.); (2, 3, 1.5); (3, 0, 0.7); (2, 0, 0.3);
        (1, 0, 0.4);
      ]
  in
  let pi_gth = Stationary.gth g in
  let pi_power = Stationary.power_iteration ~eps:1e-14 g in
  Alcotest.(check bool) "gth = power" true
    (Vec.approx_equal ~tol:1e-8 pi_gth pi_power);
  (* pi Q = 0. *)
  let residual = Sparse.vm pi_gth (Generator.matrix g) in
  Alcotest.(check bool) "pi Q = 0" true (Vec.norm_inf residual < 1e-12)

let test_gth_reducible_rejected () =
  let g = Generator.of_triplets ~states:2 [ (0, 1, 1.) ] in
  match Stationary.gth g with
  | _ -> Alcotest.fail "expected reducible rejection"
  | exception Invalid_argument _ -> ()

let test_birth_death_closed_form () =
  (* Matches GTH on an asymmetric birth-death chain. *)
  let states = 6 in
  let birth i = 1.5 +. (0.3 *. float_of_int i) in
  let death i = 0.8 *. float_of_int i in
  let closed = Stationary.birth_death ~states ~birth ~death in
  let gth = Stationary.gth (Generator.birth_death ~states ~birth ~death) in
  Alcotest.(check bool) "closed form = GTH" true
    (Vec.approx_equal ~tol:1e-10 closed gth)

let test_gth_two_timescale_beats_lu () =
  (* Ill-conditioned two-timescale chain: climbing is 8 orders of
     magnitude slower than falling, so the stationary mass spans ~56
     orders of magnitude. The log-space product form is exact ground
     truth; subtraction-free GTH must stay componentwise accurate while
     the naive LU solve loses essentially all relative accuracy on the
     rare states. *)
  let states = 8 in
  let birth _ = 1e-4 and death _ = 1e4 in
  let exact = Stationary.birth_death ~states ~birth ~death in
  let g = Generator.birth_death ~states ~birth ~death in
  let pi_gth = Stationary.gth g in
  let pi_lu = Stationary.lu g in
  let rel_err pi =
    let worst = ref 0. in
    Array.iteri
      (fun i x ->
        worst := Float.max !worst (abs_float (x -. exact.(i)) /. exact.(i)))
      pi;
    !worst
  in
  let err_gth = rel_err pi_gth and err_lu = rel_err pi_lu in
  if err_gth > 1e-12 then
    Alcotest.failf "GTH lost componentwise accuracy: %g" err_gth;
  if err_lu < 1e-2 then
    Alcotest.failf "expected naive LU to lose digits, error only %g" err_lu;
  (* on a well-conditioned chain the two agree *)
  let easy =
    Generator.birth_death ~states:5
      ~birth:(fun i -> 1.5 +. (0.3 *. float_of_int i))
      ~death:(fun i -> 0.8 *. float_of_int i)
  in
  Alcotest.(check bool) "lu = gth when benign" true
    (Vec.approx_equal ~tol:1e-10 (Stationary.lu easy) (Stationary.gth easy))

let test_birth_death_binomial () =
  (* Independent ON-OFF sources: pi is Binomial(n, beta/(alpha+beta)). *)
  let n = 10 and alpha = 4. and beta = 3. in
  let pi =
    Stationary.birth_death ~states:(n + 1)
      ~birth:(fun i -> float_of_int (n - i) *. beta)
      ~death:(fun i -> float_of_int i *. alpha)
  in
  let p = beta /. (alpha +. beta) in
  for i = 0 to n do
    let expected =
      Mrm_util.Special.binomial n i
      *. (p ** float_of_int i)
      *. ((1. -. p) ** float_of_int (n - i))
    in
    check_close ~tol:1e-11 (Printf.sprintf "pi(%d)" i) expected pi.(i)
  done

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mrm_ctmc"
    [
      ( "poisson",
        [
          Alcotest.test_case "pmf small" `Quick test_pmf_small;
          Alcotest.test_case "pmf mass" `Quick test_pmf_sums_to_one;
          Alcotest.test_case "tail consistency" `Quick
            test_log_tail_consistency;
          Alcotest.test_case "tail edges" `Quick test_log_tail_edges;
          Alcotest.test_case "deep tail (lambda 4e4)" `Quick
            test_log_tail_deep;
          Alcotest.test_case "tail quantile" `Quick test_tail_quantile;
          Alcotest.test_case "weights window" `Quick test_weights_window;
        ] );
      ( "generator",
        [
          Alcotest.test_case "validation" `Quick test_generator_validation;
          Alcotest.test_case "diagnostic messages" `Quick
            test_generator_diagnostic_messages;
          Alcotest.test_case "diagonal from triplets" `Quick
            test_generator_of_triplets_diagonal;
          Alcotest.test_case "supplied diagonal ignored" `Quick
            test_generator_ignores_supplied_diagonal;
          Alcotest.test_case "uniformized stochastic" `Quick
            test_uniformized_stochastic;
          Alcotest.test_case "birth-death = triplet construction" `Quick
            test_birth_death_direct;
          Alcotest.test_case "birth-death structure" `Quick
            test_birth_death_structure;
          Alcotest.test_case "exit rates and jumps" `Quick
            test_exit_rates_and_jumps;
        ] );
      ( "transient",
        [
          Alcotest.test_case "two-state closed form" `Quick
            test_transient_two_state_closed_form;
          Alcotest.test_case "initial validation" `Quick
            test_transient_initial_validation;
          Alcotest.test_case "t = 0" `Quick test_transient_t_zero;
          Alcotest.test_case "expected reward rate" `Quick
            test_expected_reward_rate;
        ] );
      ( "stationary",
        [
          Alcotest.test_case "GTH two-state" `Quick test_gth_two_state;
          Alcotest.test_case "GTH = power iteration" `Quick
            test_gth_matches_power_iteration;
          Alcotest.test_case "reducible rejected" `Quick
            test_gth_reducible_rejected;
          Alcotest.test_case "two-timescale: GTH beats naive LU" `Quick
            test_gth_two_timescale_beats_lu;
          Alcotest.test_case "birth-death closed form" `Quick
            test_birth_death_closed_form;
          Alcotest.test_case "binomial product form" `Quick
            test_birth_death_binomial;
        ] );
    ]
