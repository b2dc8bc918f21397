(* Cross-validation suite for the MMBM stationary solver (lib/mmbm):
   closed forms, the independent spectral fluid solver, the CTMC
   zero-variance limit, long-horizon randomization on the Section-7
   models, the mrm2 fluid command, and QCheck2 mass/nonnegativity
   properties. *)

module Dense = Mrm_linalg.Dense
module Sparse = Mrm_linalg.Sparse
module Vec = Mrm_linalg.Vec
module Generator = Mrm_ctmc.Generator
module Stationary = Mrm_ctmc.Stationary
module Model = Mrm_core.Model
module Randomization = Mrm_core.Randomization
module Mmbm = Mrm_mmbm.Mmbm
module Diagnostics = Mrm_check.Diagnostics

let check_close ?(tol = 1e-10) name expected actual =
  let scale = 1. +. Float.max (abs_float expected) (abs_float actual) in
  if abs_float (expected -. actual) > tol *. scale then
    Alcotest.failf "%s: expected %.17g, got %.17g" name expected actual

let two_state ~q01 ~q10 ~rates ~variances =
  let generator =
    Generator.of_triplets ~states:2 [ (0, 1, q01); (1, 0, q10) ]
  in
  Model.make ~generator ~rates ~variances ~initial:[| 1.; 0. |]

(* ------------------------------------------------------------------ *)
(* Closed forms                                                         *)

let test_exponential_closed_form () =
  (* One Brownian state with drift r < 0, variance s: the regulated
     level is Exp(theta) with theta = 2|r|/s. *)
  let generator = Generator.of_triplets ~states:1 [] in
  let model =
    Model.make ~generator ~rates:[| -2. |] ~variances:[| 4. |]
      ~initial:[| 1. |]
  in
  let r = Mmbm.solve ~validate:true model in
  let theta = 1. in
  check_close "nu" theta r.Mmbm.nu.(0);
  check_close "H" (-.theta) (Dense.get r.Mmbm.h 0 0);
  check_close "marginal" 1. r.Mmbm.marginal.(0);
  check_close "mean level" (1. /. theta) r.Mmbm.mean_level;
  check_close "reward rate" (-2.) r.Mmbm.reward_rate;
  check_close "decay rate" theta (Mmbm.decay_rate r);
  check_close "residual" 0. ~tol:1e-13 r.Mmbm.residual;
  List.iter
    (fun x ->
      check_close
        (Printf.sprintf "density(%g)" x)
        (theta *. exp (-.theta *. x))
        (Mmbm.density r x).(0);
      check_close
        (Printf.sprintf "cdf(%g)" x)
        (1. -. exp (-.theta *. x))
        (Mmbm.cdf r x).(0))
    [ 0.; 0.1; 1.; 3.7 ];
  if r.Mmbm.warnings <> [] then Alcotest.fail "unexpected warnings"

let test_matches_spectral_fluid_solver () =
  (* Independent oracle: the spectral (eigendecomposition) stationary
     solver of test/fluid.ml on a 2-state queue. *)
  let rates = [| 1.; -3. |] and variances = [| 1.; 2. |] in
  let model = two_state ~q01:1. ~q10:2. ~rates ~variances in
  let r = Mmbm.solve ~validate:true model in
  let fq =
    Fluid.make ~generator:model.Model.generator ~rates ~variances
  in
  let fs = Fluid.stationary fq in
  let pi = Fluid.background_distribution fs in
  check_close "marginal 0" pi.(0) r.Mmbm.marginal.(0);
  check_close "marginal 1" pi.(1) r.Mmbm.marginal.(1);
  check_close "mean level" ~tol:1e-9 (Fluid.mean_level fs) r.Mmbm.mean_level;
  check_close "decay rate" ~tol:1e-9 (Fluid.decay_rate fs) (Mmbm.decay_rate r);
  List.iter
    (fun x ->
      let c = Mmbm.cdf r x in
      check_close
        (Printf.sprintf "joint cdf 0 at %g" x)
        (Fluid.joint_cdf fs ~state:0 x)
        ~tol:1e-9 c.(0);
      check_close
        (Printf.sprintf "joint cdf 1 at %g" x)
        (Fluid.joint_cdf fs ~state:1 x)
        ~tol:1e-9 c.(1))
    [ 0.; 0.25; 1.; 2.5; 8. ];
  if Mmbm.total_density r 0.5 <= 0. then Alcotest.fail "density must be > 0"

let test_zero_variance_limit_matches_ctmc () =
  (* As all variances -> 0 with every drift negative the level collapses
     onto the boundary: the phase marginal must match GTH on the
     modulating chain and the mean level must vanish. *)
  let generator =
    Generator.of_triplets ~states:3
      [ (0, 1, 0.7); (1, 2, 1.3); (2, 0, 2.1); (1, 0, 0.4) ]
  in
  let model =
    Model.make ~generator
      ~rates:[| -1.; -2.; -0.5 |]
      ~variances:[| 1e-6; 1e-6; 1e-6 |]
      ~initial:[| 1.; 0.; 0. |]
  in
  let r = Mmbm.solve model in
  let pi = Stationary.gth generator in
  Array.iteri
    (fun i p ->
      check_close (Printf.sprintf "pi %d" i) p ~tol:1e-8 r.Mmbm.marginal.(i))
    pi;
  if r.Mmbm.mean_level > 1e-6 then
    Alcotest.failf "mean level should vanish, got %g" r.Mmbm.mean_level;
  (* The marginal is variance-independent (it is pi exactly): solving
     the same chain with O(1) variances must give the same marginal. *)
  let fat =
    Model.make ~generator
      ~rates:[| -1.; -2.; -0.5 |]
      ~variances:[| 1.; 2.; 0.5 |]
      ~initial:[| 1.; 0.; 0. |]
  in
  let rf = Mmbm.solve fat in
  Array.iteri
    (fun i p ->
      check_close
        (Printf.sprintf "fat pi %d" i)
        p ~tol:1e-10 rf.Mmbm.marginal.(i))
    pi

(* ------------------------------------------------------------------ *)
(* Long-horizon randomization on the Section-7 models                   *)

(* Stationary reward rate from the transient solver: E[B(t)] = r* t + c
   + O(e^{-gap t}), so a difference quotient between two long horizons
   isolates r* to far below the 1e-8 acceptance threshold. *)
let randomization_rate model ~t1 ~t2 =
  let results =
    Randomization.moments_at_times ~eps:1e-13 model ~times:[| t1; t2 |]
      ~order:1
  in
  let mean (r : Randomization.result) =
    Vec.dot model.Model.initial r.Randomization.moments.(1)
  in
  (mean results.(1) -. mean results.(0)) /. (t2 -. t1)

let stationary_vs_randomization ~name ~drain ~regularize model =
  let r = Mmbm.solve ~drain ~regularize ~validate:true model in
  let expected = randomization_rate model ~t1:25. ~t2:50. in
  let err =
    abs_float (r.Mmbm.reward_rate -. expected) /. abs_float expected
  in
  if err > 1e-8 then
    Alcotest.failf "%s: stationary %.12g vs randomization %.12g (rel %g)"
      name r.Mmbm.reward_rate expected err;
  (* the --validate cross-check must agree too *)
  List.iter
    (fun (d : Diagnostics.t) ->
      if d.Diagnostics.code = "MRM068" then
        Alcotest.failf "%s: validation flagged: %s" name d.Diagnostics.message)
    r.Mmbm.warnings

let test_onoff_reward_rate () =
  let model =
    Mrm_models.Onoff.model
      { (Mrm_models.Onoff.table1 ~sigma2:1.) with sources = 8; capacity = 8. }
  in
  let pi = Stationary.gth model.Model.generator in
  let rstar = Vec.dot pi model.Model.rates in
  (* the floor only conditions the shift: the phase marginal (and so
     the reward rate) is variance-independent, so a generous floor
     costs no accuracy on what this test compares *)
  stationary_vs_randomization ~name:"onoff" ~drain:(rstar +. 2.)
    ~regularize:1e-3 model

let test_machine_repair_reward_rate () =
  let model =
    Mrm_models.Machine_repair.(model { default with machines = 6 })
  in
  let pi = Stationary.gth model.Model.generator in
  let rstar = Vec.dot pi model.Model.rates in
  stationary_vs_randomization ~name:"repair" ~drain:(rstar +. 1.5)
    ~regularize:1e-3 model

(* ------------------------------------------------------------------ *)
(* Structured failures                                                  *)

let code_of_error f =
  match f () with
  | (_ : Mmbm.result) -> Alcotest.fail "expected Mmbm.Error"
  | exception Mmbm.Error d -> d.Diagnostics.code

let test_structured_errors () =
  let onoff =
    Mrm_models.Onoff.model
      { (Mrm_models.Onoff.table1 ~sigma2:1.) with sources = 4; capacity = 4. }
  in
  (* state 0 of the ON-OFF model has zero variance *)
  Alcotest.(check string)
    "zero variance" "MRM062"
    (code_of_error (fun () -> Mmbm.solve ~drain:10. onoff));
  (* positive mean drift without a drain *)
  Alcotest.(check string)
    "positive drift" "MRM063"
    (code_of_error (fun () -> Mmbm.solve ~regularize:1e-6 onoff));
  (* exactly zero mean drift: null recurrent *)
  let balanced =
    two_state ~q01:1. ~q10:1. ~rates:[| 1.; -1. |] ~variances:[| 1.; 1. |]
  in
  Alcotest.(check string)
    "null recurrent" "MRM064"
    (code_of_error (fun () -> Mmbm.solve balanced));
  (* CR starved of iterations *)
  let stable =
    two_state ~q01:1. ~q10:2. ~rates:[| 1.; -3. |] ~variances:[| 1.; 1. |]
  in
  Alcotest.(check string)
    "iteration cap" "MRM065"
    (code_of_error (fun () -> Mmbm.solve ~max_iterations:1 stable));
  (* the regularization warning rides along on success *)
  let r = Mmbm.solve ~drain:10. ~regularize:1e-6 onoff in
  (match r.Mmbm.warnings with
  | [ d ] when d.Diagnostics.code = "MRM067" -> ()
  | _ -> Alcotest.fail "expected exactly the MRM067 warning");
  if r.Mmbm.regularized <> 1 then
    Alcotest.failf "expected 1 floored state, got %d" r.Mmbm.regularized

(* ------------------------------------------------------------------ *)
(* mrm2 fluid                                                           *)

(* Solved runs keep stdout only: under MRM2_TRACE=stderr a solve also
   writes trace spans to stderr. *)
let mrm2 = Filename.concat (Filename.concat ".." "bin") "mrm2.exe"

let run_mrm2 ?(stderr = "2>&1") args =
  let out = Filename.temp_file "mrm2_fluid" ".out" in
  let status =
    Sys.command (Printf.sprintf "%s %s > %s %s" mrm2 args out stderr)
  in
  let ic = open_in out in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove out;
  (status, text)

(* The golden file interleaves "$ mrm2 ARGS" lines with the stdout of
   each run; the test reruns every command and rebuilds the file. *)
let test_fluid_cli_golden () =
  let prompt = "$ mrm2 " in
  let golden =
    In_channel.with_open_text
      (Filename.concat "fixtures" "fluid_golden.txt")
      In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> not (String.starts_with ~prefix:"#" l))
  in
  let commands =
    List.filter_map
      (fun l ->
        if String.starts_with ~prefix:prompt l then
          let n = String.length prompt in
          Some (String.sub l n (String.length l - n))
        else None)
      golden
  in
  Alcotest.(check int) "runs" 3 (List.length commands);
  let rerun =
    List.map
      (fun args ->
        let status, text = run_mrm2 ~stderr:"2>/dev/null" args in
        Alcotest.(check int) (args ^ " exit") 0 status;
        prompt ^ args ^ "\n" ^ text)
      commands
  in
  Alcotest.(check string) "stdout" (String.concat "\n" golden)
    (String.concat "" rerun)

(* A queue the solver refuses is a structured diagnostic and exit 1, as
   in mrm2 stationary: positive mean drift (MRM063) and a zero-variance
   state (MRM062). *)
let test_fluid_cli_unsolvable () =
  List.iter
    (fun (args, code) ->
      let status, text = run_mrm2 args in
      Alcotest.(check int) (args ^ " exit") 1 status;
      let prefix = Printf.sprintf "mrm2 fluid: error %s:" code in
      if
        not
          (List.exists
             (String.starts_with ~prefix)
             (String.split_on_char '\n' text))
      then Alcotest.failf "%s: no %S line in:\n%s" args prefix text)
    [ ("fluid --capacity 3", "MRM063"); ("fluid --fluid-sigma2 0", "MRM062") ]

(* ------------------------------------------------------------------ *)
(* QCheck2: mass and nonnegativity on random stable models              *)

let random_model_gen =
  QCheck2.Gen.(
    let* n = int_range 2 5 in
    let* qrates = array_repeat (n * (n - 1)) (float_range 0.1 2.) in
    let* rates = array_repeat n (float_range (-3.) 3.) in
    let* variances = array_repeat n (float_range 0.5 2.) in
    let triplets = ref [] and k = ref 0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then begin
          triplets := (i, j, qrates.(!k)) :: !triplets;
          incr k
        end
      done
    done;
    let generator = Generator.of_triplets ~states:n !triplets in
    (* shift the drifts so the stationary mean drift is exactly -0.5 *)
    let pi = Stationary.gth generator in
    let shift = Vec.dot pi rates +. 0.5 in
    let rates = Array.map (fun r -> r -. shift) rates in
    let initial = Array.init n (fun i -> if i = 0 then 1. else 0.) in
    return (Model.make ~generator ~rates ~variances ~initial))

(* Every field at full precision, so a failing draw can be rebuilt. *)
let model_print (m : Model.t) =
  let floats a =
    String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%.17g") a))
  in
  let transitions = ref [] in
  Sparse.iter (Generator.matrix m.Model.generator) (fun i j v ->
      if i <> j then
        transitions := Printf.sprintf "(%d,%d,%.17g)" i j v :: !transitions);
  Printf.sprintf "n=%d transitions=[%s] rates=[%s] variances=[%s]"
    (Model.dim m)
    (String.concat ";" (List.rev !transitions))
    (floats m.Model.rates) (floats m.Model.variances)

let density_mass_property =
  QCheck2.Test.make ~count:25
    ~name:"stationary density: nonnegative, integrates to 1" ~print:model_print
    random_model_gen (fun model ->
      let r = Mmbm.solve ~validate:true model in
      (* marginal is a distribution *)
      check_close "marginal mass" 1. (Vec.sum r.Mmbm.marginal);
      Array.iter
        (fun m ->
          if m < -1e-12 then Alcotest.failf "negative marginal %g" m)
        r.Mmbm.marginal;
      (* the density is nonnegative wherever we look *)
      List.iter
        (fun x ->
          Array.iter
            (fun p ->
              if p < -1e-10 then Alcotest.failf "negative density %g at %g" p x)
            (Mmbm.density r x))
        [ 0.; 0.1; 0.5; 1.; 2.; 5.; 10.; 25. ];
      (* and integrates (quadrature) to 1. The decay rate of e^{Hx}
         depends on the draw, so pick the upper bound from the model's
         own cdf: double until the analytic tail mass is negligible,
         then the quadrature checks density/cdf consistency. *)
      let cdf_mass x = Vec.sum (Mmbm.cdf r x) in
      let rec bound b =
        if b > 1e7 then QCheck2.Test.fail_reportf "cdf mass never reaches 1"
        else if 1. -. cdf_mass b > 1e-10 then bound (2. *. b)
        else b
      in
      let b = bound 120. in
      let per_panel = 32 in
      let panels = 16 in
      let integral =
        (* composite quadrature: one high-order panel per dyadic slice
           [0, b/2^15], [b/2^15, b/2^14], ..., [b/2, b], so the mass near
           0 is resolved even when b is large *)
        let acc = ref 0. in
        let lo = ref 0. in
        for k = panels - 1 downto 0 do
          let hi = Float.ldexp b (-k) in
          acc :=
            !acc
            +. Quadrature.gauss_legendre ~f:(Mmbm.total_density r) ~a:!lo
                 ~b:hi ~n:per_panel;
          lo := hi
        done;
        !acc
      in
      if abs_float (integral -. 1.) > 1e-6 then
        QCheck2.Test.fail_reportf "density mass %.12g (expected 1, b=%g)"
          integral b;
      true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mmbm"
    [
      ( "closed forms",
        [
          Alcotest.test_case "exponential (1 state)" `Quick
            test_exponential_closed_form;
          Alcotest.test_case "spectral fluid solver (2 states)" `Quick
            test_matches_spectral_fluid_solver;
          Alcotest.test_case "zero-variance CTMC limit" `Quick
            test_zero_variance_limit_matches_ctmc;
        ] );
      ( "section 7 models",
        [
          Alcotest.test_case "ON-OFF reward rate vs randomization" `Quick
            test_onoff_reward_rate;
          Alcotest.test_case "machine repair reward rate vs randomization"
            `Quick test_machine_repair_reward_rate;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "structured MRM06x errors" `Quick
            test_structured_errors;
        ] );
      ( "mrm2 fluid",
        [
          Alcotest.test_case "golden output" `Quick test_fluid_cli_golden;
          Alcotest.test_case "unsolvable queue exits 1" `Quick
            test_fluid_cli_unsolvable;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest density_mass_property ] );
    ]
