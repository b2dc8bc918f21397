(* Tests for the second wave of analysis features: shared-sweep
   randomization, quantile bounds, quadrature and SVG/CSV rendering. *)

module Model = Mrm_core.Model
module Randomization = Mrm_core.Randomization
module Moment_bounds = Mrm_core.Moment_bounds
module Generator = Mrm_ctmc.Generator
module Vec = Mrm_linalg.Vec
module Svg_plot = Mrm_util.Svg_plot
module Special = Mrm_util.Special

let check_close ?(tol = 1e-12) name expected actual =
  let scale = 1. +. Float.max (abs_float expected) (abs_float actual) in
  if abs_float (expected -. actual) > tol *. scale then
    Alcotest.failf "%s: expected %.17g, got %.17g" name expected actual

let generator2 = Generator.of_triplets ~states:2 [ (0, 1, 2.); (1, 0, 3.) ]

let model2 =
  Model.make ~generator:generator2 ~rates:[| 2.0; -1.0 |]
    ~variances:[| 0.5; 1.5 |] ~initial:[| 0.7; 0.3 |]

(* ------------------------------------------------------------------ *)
(* Shared-sweep randomization                                           *)

let test_shared_sweep_matches_pointwise () =
  let times = [| 0.0; 0.3; 0.9; 2.0 |] in
  let shared = Randomization.moments_at_times model2 ~times ~order:3 in
  Array.iteri
    (fun k t ->
      let independent = Randomization.moments model2 ~t ~order:3 in
      for n = 0 to 3 do
        for i = 0 to 1 do
          check_close ~tol:1e-10
            (Printf.sprintf "t=%g n=%d i=%d" t n i)
            independent.Randomization.moments.(n).(i)
            shared.(k).Randomization.moments.(n).(i)
        done
      done)
    times

let test_shared_sweep_diagnostics_per_time () =
  let times = [| 0.2; 2.0 |] in
  let shared = Randomization.moments_at_times model2 ~times ~order:2 in
  Alcotest.(check bool) "later time, more iterations" true
    (shared.(1).Randomization.diagnostics.iterations
    > shared.(0).Randomization.diagnostics.iterations)

let test_shared_sweep_degenerate_inputs () =
  (* All-zero horizon falls back to pointwise closed forms. *)
  let shared = Randomization.moments_at_times model2 ~times:[| 0. |] ~order:2 in
  check_close "m0" 1. shared.(0).Randomization.moments.(0).(0);
  check_close "m2" 0. shared.(0).Randomization.moments.(2).(1);
  (* Empty time array is fine. *)
  Alcotest.(check int) "empty times" 0
    (Array.length (Randomization.moments_at_times model2 ~times:[||] ~order:1))

(* ------------------------------------------------------------------ *)
(* Quantile bounds                                                      *)

let test_quantile_bounds_exponential () =
  let moments = Array.init 12 (fun k -> Special.factorial k) in
  let b = Moment_bounds.prepare moments in
  List.iter
    (fun p ->
      let lo, hi = Moment_bounds.quantile_bounds b p in
      let truth = -.log (1. -. p) in
      Alcotest.(check bool)
        (Printf.sprintf "quantile %g bracketed" p)
        true
        (lo <= truth +. 1e-6 && truth <= hi +. 1e-6);
      Alcotest.(check bool) "ordered" true (lo <= hi))
    [ 0.1; 0.25; 0.5; 0.75; 0.9 ]

let test_quantile_bounds_monotone_in_p () =
  let moments = Array.init 10 (fun k -> 1. /. float_of_int (k + 1)) in
  let b = Moment_bounds.prepare moments in
  let lo1, _ = Moment_bounds.quantile_bounds b 0.2 in
  let lo2, _ = Moment_bounds.quantile_bounds b 0.8 in
  Alcotest.(check bool) "monotone" true (lo2 >= lo1)

let test_quantile_bounds_invalid () =
  let moments = Array.init 8 (fun k -> Special.factorial k) in
  let b = Moment_bounds.prepare moments in
  match Moment_bounds.quantile_bounds b 0. with
  | _ -> Alcotest.fail "p = 0 rejected"
  | exception Invalid_argument _ -> ()

let test_quantile_bounds_extreme_p_clamped () =
  (* Regression: for p below any representable probability mass the
     bisection predicate is true (resp. false) on the whole bracket, and
     the old code silently converged to an uncertified bracket endpoint.
     The clamp now reports the honest answer: an unbounded side. *)
  let moments = Array.init 12 (fun k -> Special.factorial k) in
  let b = Moment_bounds.prepare moments in
  let lo, hi = Moment_bounds.quantile_bounds b 1e-300 in
  Alcotest.(check bool) "tiny p: lower bound unbounded" true
    (lo = neg_infinity);
  Alcotest.(check bool) "tiny p: upper bound ordered" true (hi >= lo);
  (* Ordinary p is unaffected by the clamp. *)
  let lo, hi = Moment_bounds.quantile_bounds b 0.5 in
  Alcotest.(check bool) "median finite" true
    (Float.is_finite lo && Float.is_finite hi && lo <= hi)

let test_radau_quadrature_at_gauss_node () =
  (* Regression: shifting the Jacobi matrix to a point that is an exact
     Gauss node makes a Thomas pivot exactly zero. The old code masked it
     with a 1e-300 floor, producing a ~1e300 garbage node; the solver now
     detects the breakdown and perturbs the shift by a relative epsilon,
     so every returned node is finite. *)
  let check_at moments point =
    let b = Moment_bounds.prepare moments in
    let nodes, weights = Moment_bounds.radau_quadrature b point in
    Alcotest.(check bool)
      (Printf.sprintf "nodes finite at %g" point)
      true
      (Array.for_all Float.is_finite nodes);
    let mass = Array.fold_left ( +. ) 0. weights in
    check_close ~tol:1e-8 "weights sum to m0" moments.(0) mass;
    Alcotest.(check bool) "weights nonnegative" true
      (Array.for_all (fun w -> w >= -1e-12) weights);
    (* cdf_bounds goes through the same shifted rule; it must stay a
       valid bound pair at the node itself. *)
    let bound = Moment_bounds.cdf_bounds b point in
    Alcotest.(check bool) "cdf bounds ordered" true
      (bound.Moment_bounds.lower <= bound.Moment_bounds.upper +. 1e-12
      && bound.Moment_bounds.lower >= -1e-12
      && bound.Moment_bounds.upper <= 1. +. 1e-12)
  in
  (* Two-point symmetric distribution at +-1: the order-1 Gauss rule has
     its node at the mean, 0 — evaluate exactly there. *)
  check_at [| 1.; 0.; 1. |] 0.;
  (* Standard normal moments, again at the mean. *)
  check_at [| 1.; 0.; 1.; 0.; 3.; 0.; 15. |] 0.;
  (* Exponential moments at one of the computed Gauss nodes. *)
  let b = Moment_bounds.prepare (Array.init 10 (fun k -> Special.factorial k)) in
  let gauss_nodes, _ = Moment_bounds.gauss_quadrature b in
  check_at (Array.init 10 (fun k -> Special.factorial k)) gauss_nodes.(0)

(* ------------------------------------------------------------------ *)
(* Quadrature                                                           *)

let test_quadrature_polynomial_exactness () =
  let f x = (3. *. x *. x) -. (2. *. x) +. 1. in
  (* Integral over [0, 2] = 8 - 4 + 2 = 6. *)
  check_close ~tol:1e-12 "simpson cubic-exact" 6.
    (Quadrature.simpson ~f ~a:0. ~b:2. ~n:4);
  check_close ~tol:1e-12 "gauss-legendre" 6.
    (Quadrature.gauss_legendre ~f ~a:0. ~b:2. ~n:1);
  check_close ~tol:1e-3 "trapezoid approx" 6.
    (Quadrature.trapezoid ~f ~a:0. ~b:2. ~n:100);
  check_close ~tol:1e-3 "midpoint approx" 6.
    (Quadrature.midpoint ~f ~a:0. ~b:2. ~n:100)

let test_quadrature_gauss_high_degree () =
  (* 5-point Gauss: exact for degree 9 per panel. *)
  let f x = x ** 9. in
  check_close ~tol:1e-11 "degree 9" 0.1
    (Quadrature.gauss_legendre ~f ~a:0. ~b:1. ~n:1)

let test_quadrature_transcendental () =
  let f = sin in
  let expected = 1. -. cos 1. in
  check_close ~tol:1e-10 "simpson sin" expected
    (Quadrature.simpson ~f ~a:0. ~b:1. ~n:100);
  check_close ~tol:1e-12 "adaptive sin" expected
    (Quadrature.adaptive_simpson ~f ~a:0. ~b:1. ~tol:1e-13 ())

let test_quadrature_adaptive_peak () =
  (* A narrow Gaussian: fixed rules need many points, adaptive locates
     it. *)
  let f x = exp (-.((x -. 0.7) ** 2.) /. 2e-2) in
  let expected = sqrt (Float.pi *. 2e-2) in
  check_close ~tol:1e-8 "adaptive peak" expected
    (Quadrature.adaptive_simpson ~f ~a:0. ~b:10. ~tol:1e-12 ())

let test_quadrature_midpoint_endpoint_safe () =
  (* 1/sqrt(x) on (0, 1]: integrable singularity at 0. *)
  let f x = 1. /. sqrt x in
  let value = Quadrature.midpoint ~f ~a:0. ~b:1. ~n:100_000 in
  check_close ~tol:2e-2 "singular endpoint" 2. value

let test_quadrature_invalid () =
  (match Quadrature.simpson ~f:sin ~a:0. ~b:1. ~n:0 with
  | _ -> Alcotest.fail "n = 0"
  | exception Invalid_argument _ -> ());
  match Quadrature.trapezoid ~f:sin ~a:1. ~b:0. ~n:10 with
  | _ -> Alcotest.fail "reversed interval"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* SVG / CSV rendering                                                  *)

let sample_series =
  [
    {
      Svg_plot.label = "linear";
      points = [ (0., 0.); (1., 1.); (2., 2.) ];
      style = `Line;
    };
    {
      Svg_plot.label = "flat";
      points = [ (0., 1.); (2., 1.) ];
      style = `Dashed;
    };
  ]

let test_svg_well_formed () =
  let svg =
    Svg_plot.render ~title:"demo" ~x_label:"t" ~y_label:"y" sample_series
  in
  Alcotest.(check bool) "starts with <svg" true
    (String.length svg > 4 && String.sub svg 0 4 = "<svg");
  Alcotest.(check bool) "closes" true
    (String.length svg >= 7
    && String.sub svg (String.length svg - 7) 6 = "</svg>");
  (* One polyline per line-style series. *)
  let count needle =
    let rec go from acc =
      match String.index_from_opt svg from needle.[0] with
      | None -> acc
      | Some i ->
          if
            i + String.length needle <= String.length svg
            && String.sub svg i (String.length needle) = needle
          then go (i + 1) (acc + 1)
          else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "polylines" 2 (count "<polyline");
  Alcotest.(check bool) "legend labels present" true
    (count "linear" >= 1 && count "flat" >= 1)

let test_svg_point_style () =
  let svg =
    Svg_plot.render ~title:"pts" ~x_label:"x" ~y_label:"y"
      [
        {
          Svg_plot.label = "dots";
          points = [ (0., 0.); (1., 4.) ];
          style = `Points;
        };
      ]
  in
  Alcotest.(check bool) "has circles" true
    (String.length svg > 0
    &&
    let rec find i =
      i + 7 <= String.length svg
      && (String.sub svg i 7 = "<circle" || find (i + 1))
    in
    find 0)

let test_svg_empty_rejected () =
  match Svg_plot.render ~title:"" ~x_label:"" ~y_label:"" [] with
  | _ -> Alcotest.fail "empty series"
  | exception Invalid_argument _ -> ()

let test_svg_degenerate_range () =
  (* Single point: ranges must widen, not divide by zero. *)
  let svg =
    Svg_plot.render ~title:"one" ~x_label:"x" ~y_label:"y"
      [ { Svg_plot.label = "p"; points = [ (1., 1.) ]; style = `Points } ]
  in
  Alcotest.(check bool) "rendered" true (String.length svg > 100)

let test_csv_format () =
  let out = Svg_plot.csv ~header:[ "a"; "b" ] [ [ 1.; 2.5 ]; [ 3.; 4. ] ] in
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "rows" 3 (List.length lines);
  Alcotest.(check string) "header" "a,b" (List.hd lines);
  Alcotest.(check string) "row" "1,2.5" (List.nth lines 1)

let test_svg_write_file () =
  let path = Filename.temp_file "mrm2_test" ".svg" in
  Svg_plot.write_file ~path "<svg></svg>";
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "round trip" "<svg></svg>" line

(* ------------------------------------------------------------------ *)
(* Model_io                                                             *)

module Model_io = Mrm_core.Model_io

let sample_model_text =
  "states 3\n\
   # comment line\n\
   transition 0 1 2.5\n\
   transition 1 0 1.0\n\
   transition 1 2 0.5\n\
   transition 2 0 3.0\n\
   reward 0 4.0 0.3\n\
   reward 1 2.0 1.0\n\
   reward 2 0.5 0.1\n\
   initial 0 1.0\n\
   impulse 0 1 0.4\n"

let test_model_io_parse () =
  let { Model_io.model; impulses } = Model_io.parse_string sample_model_text in
  Alcotest.(check int) "states" 3 (Model.dim model);
  check_close "rate" 4. (model : Model.t).Model.rates.(0);
  check_close "variance" 1. (model : Model.t).Model.variances.(1);
  check_close "initial" 1. (model : Model.t).Model.initial.(0);
  Alcotest.(check int) "impulses" 1 (List.length impulses);
  (* The parsed model is solvable. *)
  Alcotest.(check bool) "usable" true (Randomization.mean model ~t:1. > 0.)

let test_model_io_roundtrip () =
  let { Model_io.model; impulses } = Model_io.parse_string sample_model_text in
  let text = Model_io.to_string ~impulses model in
  let reparsed = Model_io.parse_string text in
  let m2 = reparsed.Model_io.model in
  Alcotest.(check bool) "rates preserved" true
    (Vec.approx_equal ~tol:0.
       (model : Model.t).Model.rates
       (m2 : Model.t).Model.rates);
  Alcotest.(check bool) "variances preserved" true
    (Vec.approx_equal ~tol:0.
       (model : Model.t).Model.variances
       (m2 : Model.t).Model.variances);
  check_close ~tol:1e-14 "same mean"
    (Randomization.mean model ~t:0.8)
    (Randomization.mean m2 ~t:0.8);
  Alcotest.(check int) "impulses preserved" 1
    (List.length reparsed.Model_io.impulses)

let test_model_io_file_roundtrip () =
  let { Model_io.model; _ } = Model_io.parse_string sample_model_text in
  let path = Filename.temp_file "mrm2_model" ".mrm" in
  Model_io.save ~path model;
  let loaded = Model_io.load path in
  Sys.remove path;
  Alcotest.(check int) "states" 3 (Model.dim loaded.Model_io.model)

let test_model_io_errors () =
  let expect_failure label text =
    match Model_io.parse_string text with
    | _ -> Alcotest.failf "%s: expected failure" label
    | exception Failure _ -> ()
  in
  expect_failure "missing states" "transition 0 1 2.0\n";
  expect_failure "bad number" "states 2\ntransition 0 1 abc\n";
  expect_failure "unknown directive" "states 2\nfrobnicate 1\n";
  expect_failure "state out of range" "states 2\ntransition 0 5 1.\n";
  expect_failure "duplicate reward"
    "states 2\ntransition 0 1 1.\ntransition 1 0 1.\nreward 0 1. 0.\nreward 0 2. 0.\ninitial 0 1.\n";
  expect_failure "bad initial mass"
    "states 2\ntransition 0 1 1.\ntransition 1 0 1.\ninitial 0 0.5\n";
  expect_failure "negative variance"
    "states 2\ntransition 0 1 1.\ntransition 1 0 1.\nreward 0 1. -1.\ninitial 0 1.\n"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analysis"
    [
      ( "shared_sweep",
        [
          Alcotest.test_case "matches pointwise" `Quick
            test_shared_sweep_matches_pointwise;
          Alcotest.test_case "per-time diagnostics" `Quick
            test_shared_sweep_diagnostics_per_time;
          Alcotest.test_case "degenerate inputs" `Quick
            test_shared_sweep_degenerate_inputs;
        ] );
      ( "quantile_bounds",
        [
          Alcotest.test_case "exponential bracketed" `Quick
            test_quantile_bounds_exponential;
          Alcotest.test_case "monotone in p" `Quick
            test_quantile_bounds_monotone_in_p;
          Alcotest.test_case "invalid p" `Quick test_quantile_bounds_invalid;
          Alcotest.test_case "extreme p clamped to certainty" `Quick
            test_quantile_bounds_extreme_p_clamped;
          Alcotest.test_case "Radau rule at exact Gauss node" `Quick
            test_radau_quadrature_at_gauss_node;
        ] );
      ( "quadrature",
        [
          Alcotest.test_case "polynomial exactness" `Quick
            test_quadrature_polynomial_exactness;
          Alcotest.test_case "Gauss degree 9" `Quick
            test_quadrature_gauss_high_degree;
          Alcotest.test_case "transcendental" `Quick
            test_quadrature_transcendental;
          Alcotest.test_case "adaptive narrow peak" `Quick
            test_quadrature_adaptive_peak;
          Alcotest.test_case "midpoint endpoint-safe" `Quick
            test_quadrature_midpoint_endpoint_safe;
          Alcotest.test_case "invalid input" `Quick test_quadrature_invalid;
        ] );
      ( "model_io",
        [
          Alcotest.test_case "parse" `Quick test_model_io_parse;
          Alcotest.test_case "round trip" `Quick test_model_io_roundtrip;
          Alcotest.test_case "file round trip" `Quick
            test_model_io_file_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_model_io_errors;
        ] );
      ( "svg_csv",
        [
          Alcotest.test_case "well-formed svg" `Quick test_svg_well_formed;
          Alcotest.test_case "point style" `Quick test_svg_point_style;
          Alcotest.test_case "empty rejected" `Quick test_svg_empty_rejected;
          Alcotest.test_case "degenerate range" `Quick
            test_svg_degenerate_range;
          Alcotest.test_case "csv format" `Quick test_csv_format;
          Alcotest.test_case "file round trip" `Quick test_svg_write_file;
        ] );
    ]
