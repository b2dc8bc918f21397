(* Tests for the static verification layer (mrm_check): structured
   diagnostics, Tarjan SCC, the model checks themselves, validate_exn,
   and the mrm2 lint CLI on the committed fixtures. *)

module Check = Mrm_check.Check
module Diagnostics = Mrm_check.Diagnostics
module Scc = Mrm_check.Scc
module Model = Mrm_core.Model
module Model_io = Mrm_core.Model_io
module Onoff = Mrm_models.Onoff
module Generator = Mrm_ctmc.Generator
module Sparse = Mrm_linalg.Sparse

let codes report = Diagnostics.codes report
let has code report = List.mem code (codes report)

let expect_code name code report =
  if not (has code report) then
    Alcotest.failf "%s: expected %s in [%s]" name code
      (String.concat "; " (codes report))

let expect_clean name report =
  if report <> [] then
    Alcotest.failf "%s: expected no findings, got [%s]" name
      (String.concat "; " (codes report))

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                          *)

let test_diagnostics_severity_order () =
  let report =
    [
      Diagnostics.info ~code:"MRM032" "note";
      Diagnostics.error ~code:"MRM004" "bad";
      Diagnostics.warning ~code:"MRM030" "meh";
    ]
  in
  (match Diagnostics.by_severity report with
  | [ a; b; c ] ->
      Alcotest.(check string) "error first" "MRM004" a.Diagnostics.code;
      Alcotest.(check string) "warning second" "MRM030" b.Diagnostics.code;
      Alcotest.(check string) "info last" "MRM032" c.Diagnostics.code
  | _ -> Alcotest.fail "expected three diagnostics");
  Alcotest.(check bool) "has_errors" true (Diagnostics.has_errors report);
  Alcotest.(check int) "warning count" 1
    (Diagnostics.count Diagnostics.Warning report)

let test_diagnostics_renderings () =
  let d =
    Diagnostics.error ~code:"MRM004"
      ~context:[ ("row", "2"); ("sum", "0.5") ]
      "row 2 sums to 0.5"
  in
  Alcotest.(check string)
    "sexp"
    "(diagnostic (severity error) (code MRM004) (message \"row 2 sums to \
     0.5\") (context (row 2) (sum 0.5)))"
    (Diagnostics.to_sexp d);
  Alcotest.(check string)
    "json"
    "{\"severity\":\"error\",\"code\":\"MRM004\",\"message\":\"row 2 sums \
     to 0.5\",\"context\":{\"row\":\"2\",\"sum\":\"0.5\"}}"
    (Diagnostics.to_json d);
  Alcotest.(check string)
    "human" "error MRM004: row 2 sums to 0.5 [row=2 sum=0.5]"
    (Format.asprintf "%a" Diagnostics.pp d)

let test_diagnostics_codes_dedup () =
  let report =
    [
      Diagnostics.error ~code:"MRM002" "a";
      Diagnostics.error ~code:"MRM002" "b";
      Diagnostics.error ~code:"MRM011" "c";
    ]
  in
  Alcotest.(check (list string)) "dedup" [ "MRM002"; "MRM011" ] (codes report)

(* ------------------------------------------------------------------ *)
(* Scc                                                                  *)

let sparse_of triplets ~n = Sparse.of_triplets ~rows:n ~cols:n triplets

let test_scc_cycle () =
  let m = sparse_of ~n:3 [ (0, 1, 1.); (1, 2, 1.); (2, 0, 1.) ] in
  let c = Scc.of_sparse m in
  Alcotest.(check int) "one component" 1 c.Scc.count;
  Alcotest.(check (list int)) "no absorbing" [] (Scc.absorbing_states m)

let test_scc_one_way_chain () =
  (* 0 -> 1 -> 2: three singleton components, ids in reverse topological
     order (the sink gets the smallest id). *)
  let m = sparse_of ~n:3 [ (0, 1, 1.); (1, 2, 1.) ] in
  let c = Scc.of_sparse m in
  Alcotest.(check int) "three components" 3 c.Scc.count;
  Alcotest.(check bool) "sink before source" true
    (c.Scc.component.(2) < c.Scc.component.(1)
    && c.Scc.component.(1) < c.Scc.component.(0));
  Alcotest.(check (list int)) "absorbing sink" [ 2 ] (Scc.absorbing_states m);
  Alcotest.(check (list int))
    "only the sink class is closed"
    [ c.Scc.component.(2) ]
    (Scc.closed_components m c);
  let from0 = Scc.reachable m ~from:[ 0 ] in
  Alcotest.(check bool) "all reachable from 0" true
    (Array.for_all Fun.id from0);
  let from2 = Scc.reachable m ~from:[ 2 ] in
  Alcotest.(check (list bool))
    "only 2 from 2" [ false; false; true ]
    (Array.to_list from2)

let test_scc_large_chain_no_stack_overflow () =
  (* The paper's Table-2 shape: a long birth-death chain. A recursive
     Tarjan would blow the stack here; the iterative one must not. *)
  let n = 100_000 in
  let g =
    Generator.birth_death ~states:n ~birth:(fun _ -> 1.) ~death:(fun _ -> 2.)
  in
  let c = Scc.of_sparse (Generator.matrix g) in
  Alcotest.(check int) "irreducible" 1 c.Scc.count

(* ------------------------------------------------------------------ *)
(* Check: happy path                                                    *)

let valid_model ?(sigma2 = 1.) () = Onoff.model (Onoff.table1 ~sigma2)

let test_check_valid_model_clean () =
  let report = Check.check (Model.check_data (valid_model ())) in
  expect_clean "table 1 model" report

let test_check_valid_fixture_roundtrip () =
  (* The committed lint fixture must stay clean. *)
  let { Model_io.model; _ } =
    Result.get_ok (Model_io.load_result "fixtures/valid_onoff.mrm")
  in
  expect_clean "valid_onoff.mrm" (Check.check (Model.check_data model))

(* ------------------------------------------------------------------ *)
(* Check: each diagnostic code triggers                                 *)

let base_data () =
  Check.of_triplets ~states:2
    ~transitions:[ (0, 1, 1.); (1, 0, 2.) ]
    ~rates:[| 1.; -1. |] ~variances:[| 0.5; 1. |] ~initial:[| 1.; 0. |]

let test_check_generator_codes () =
  let nan_entry =
    Check.data
      ~q_matrix:(sparse_of ~n:2 [ (0, 1, Float.nan); (1, 0, 1.); (1, 1, -1.) ])
      ~rates:[| 0.; 0. |] ~variances:[| 0.; 0. |] ~initial:[| 1.; 0. |]
  in
  expect_code "nan entry" "MRM001" (Check.check_generator nan_entry);
  let negative = { (base_data ()) with Check.states = 2 } in
  let negative =
    {
      negative with
      Check.q_matrix = sparse_of ~n:2 [ (0, 0, 0.5); (0, 1, -0.5); (1, 0, 1.); (1, 1, -1.) ];
    }
  in
  let report = Check.check_generator negative in
  expect_code "negative off-diagonal" "MRM002" report;
  expect_code "positive diagonal" "MRM003" report;
  let bad_row_sum =
    Check.data
      ~q_matrix:(sparse_of ~n:2 [ (0, 0, -1.); (0, 1, 2.); (1, 0, 1.); (1, 1, -1.) ])
      ~rates:[| 0.; 0. |] ~variances:[| 0.; 0. |] ~initial:[| 1.; 0. |]
  in
  let report = Check.check_generator bad_row_sum in
  expect_code "row sum" "MRM004" report;
  (* The diagnostic names the offending row. *)
  let mrm004 =
    List.find (fun d -> d.Diagnostics.code = "MRM004") report
  in
  Alcotest.(check (option string))
    "row index in context" (Some "0")
    (List.assoc_opt "row" mrm004.Diagnostics.context)

let test_check_reward_codes () =
  let data = { (base_data ()) with Check.rates = [| Float.nan; 0. |] } in
  expect_code "nan drift" "MRM010" (Check.check_rewards data);
  let data = { (base_data ()) with Check.variances = [| -0.25; 0. |] } in
  expect_code "negative variance" "MRM011" (Check.check_rewards data);
  let data =
    { (base_data ()) with Check.variances = [| Float.infinity; 0. |] }
  in
  expect_code "infinite variance" "MRM012" (Check.check_rewards data)

let test_check_initial_codes () =
  let data = { (base_data ()) with Check.initial = [| 1.5; -0.5 |] } in
  let report = Check.check_initial data in
  expect_code "entry outside [0,1]" "MRM020" report;
  let data = { (base_data ()) with Check.initial = [| 0.25; 0.25 |] } in
  expect_code "mass" "MRM021" (Check.check_initial data)

let test_check_dimension_code () =
  let data = { (base_data ()) with Check.rates = [| 1. |] } in
  let report = Check.check data in
  expect_code "rate length" "MRM005" report;
  Alcotest.(check bool) "errors" true (Diagnostics.has_errors report)

let test_check_structure_codes () =
  (* State 2 feeds into the chain but nothing reaches it. *)
  let unreachable =
    Check.of_triplets ~states:3
      ~transitions:[ (0, 1, 1.); (1, 0, 1.); (2, 0, 1.) ]
      ~rates:[| 0.; 0.; 0. |] ~variances:[| 0.; 0.; 0. |]
      ~initial:[| 1.; 0.; 0. |]
  in
  let report = Check.check_structure unreachable in
  expect_code "unreachable" "MRM030" report;
  expect_code "reducible" "MRM032" report;
  (* Absorbing state: 1 has no way out. *)
  let absorbing =
    Check.of_triplets ~states:2
      ~transitions:[ (0, 1, 1.) ]
      ~rates:[| 0.; 0. |] ~variances:[| 0.; 0. |] ~initial:[| 1.; 0. |]
  in
  expect_code "absorbing" "MRM031" (Check.check_structure absorbing)

let test_check_uniformization_codes () =
  let data = base_data () in
  (* Chain rate is 2; force q = 1 so Q' gets a negative diagonal and
     super-stochastic rows. *)
  let config = { Check.default_config with Check.q = Some 1. } in
  expect_code "q too small" "MRM040" (Check.check_uniformization ~config data);
  (* Force d far below the solver's minimal choice: R' and S' blow
     through 1. *)
  let config = { Check.default_config with Check.d = Some 1e-6 } in
  let report = Check.check_uniformization ~config data in
  expect_code "R' super-stochastic" "MRM042" report;
  expect_code "S' super-stochastic" "MRM043" report;
  (* The solver's own choice passes. *)
  expect_clean "solver defaults" (Check.check_uniformization data)

let test_check_conditioning_codes () =
  let data = base_data () in
  let config = { Check.default_config with Check.t = -1. } in
  expect_code "negative t" "MRM060" (Check.check_conditioning ~config data);
  let config = { Check.default_config with Check.eps = 1e-20 } in
  expect_code "eps too small" "MRM061" (Check.check_conditioning ~config data);
  let config = { Check.default_config with Check.t = 1e9 } in
  expect_code "qt explosion" "MRM050" (Check.check_conditioning ~config data);
  let spread =
    { (base_data ()) with Check.rates = [| 1e-6; 1e6 |] }
  in
  expect_code "scale spread" "MRM051" (Check.check_conditioning spread);
  (* Paper-scale model on a single domain: the row-parallel engine
     pointer fires, and requesting jobs > 1 silences it. *)
  let n = 10_000 in
  let paper_scale =
    Check.of_triplets ~states:n
      ~transitions:[ (0, 1, 1.); (1, 0, 1.) ]
      ~rates:(Array.make n 1.) ~variances:(Array.make n 0.)
      ~initial:(Array.init n (fun i -> if i = 0 then 1. else 0.))
  in
  expect_code "paper scale sequential" "MRM053"
    (Check.check_conditioning paper_scale);
  let config = { Check.default_config with Check.jobs = 4 } in
  let report = Check.check_conditioning ~config paper_scale in
  if has "MRM053" report then
    Alcotest.failf "paper scale with jobs = 4: MRM053 should not fire [%s]"
      (String.concat "; " (codes report))

(* ------------------------------------------------------------------ *)
(* validate_exn                                                         *)

let test_validate_exn () =
  Check.validate_exn (Model.check_data (valid_model ()));
  let broken = { (base_data ()) with Check.variances = [| -1.; 0. |] } in
  (match Check.validate_exn broken with
  | () -> Alcotest.fail "expected Check.Failed"
  | exception Check.Failed report ->
      expect_code "failed payload" "MRM011" report);
  (* The registered printer lists the codes. *)
  (match Check.validate_exn broken with
  | () -> ()
  | exception e ->
      let text = Printexc.to_string e in
      Alcotest.(check bool)
        (Printf.sprintf "printer mentions code: %s" text)
        true
        (String.length text >= 6
        && String.index_opt text 'M' <> None
        &&
        let rec contains i =
          if i + 6 > String.length text then false
          else if String.sub text i 6 = "MRM011" then true
          else contains (i + 1)
        in
        contains 0))

(* Post-construction mutation is what a caller validates for: the
   arrays inside the (private) model record are still mutable, and
   check_data reads them. *)
let test_validate_exn_mutated () =
  let mutated = valid_model () in
  (mutated : Model.t).Model.variances.(3) <- -5.;
  match Check.validate_exn (Model.check_data mutated) with
  | () -> Alcotest.fail "mutated model: expected Check.Failed"
  | exception Check.Failed report ->
      expect_code "mutated model" "MRM011" report

(* ------------------------------------------------------------------ *)
(* Property tests: random birth-death models pass; mutants trigger      *)

let onoff_params_gen =
  QCheck2.Gen.(
    let* sources = int_range 2 20 in
    let* alpha = float_range 0.5 5. in
    let* beta = float_range 0.5 5. in
    let* sigma2 = float_range 0. 10. in
    return
      {
        Onoff.capacity = float_of_int sources;
        sources;
        on_to_off = alpha;
        off_to_on = beta;
        peak_rate = 1.;
        rate_variance = sigma2;
      })

let params_print p =
  Printf.sprintf "N=%d alpha=%g beta=%g sigma2=%g" p.Onoff.sources
    p.Onoff.on_to_off p.Onoff.off_to_on p.Onoff.rate_variance

let prop_random_birth_death_clean =
  QCheck2.Test.make ~count:60 ~name:"random ON-OFF models pass all checks"
    ~print:params_print onoff_params_gen (fun p ->
      let report = Check.check (Model.check_data (Onoff.model p)) in
      report = [])

let prop_mutated_row_sum_flagged =
  QCheck2.Test.make ~count:40 ~name:"broken row sum triggers MRM004"
    ~print:params_print onoff_params_gen (fun p ->
      let data = Model.check_data (Onoff.model p) in
      (* Perturb one diagonal entry: the row no longer sums to 0. *)
      let n = data.Check.states in
      let row = n / 2 in
      let q_matrix =
        Sparse.add data.Check.q_matrix
          (Sparse.of_triplets ~rows:n ~cols:n [ (row, row, 0.5) ])
      in
      let report = Check.check { data with Check.q_matrix } in
      has "MRM004" report && Diagnostics.has_errors report)

let prop_mutated_variance_flagged =
  QCheck2.Test.make ~count:40 ~name:"negative variance triggers MRM011"
    ~print:params_print onoff_params_gen (fun p ->
      let data = Model.check_data (Onoff.model p) in
      let variances = Array.copy data.Check.variances in
      variances.(Array.length variances - 1) <- -1e-3;
      has "MRM011" (Check.check { data with Check.variances }))

let prop_disconnected_state_flagged =
  QCheck2.Test.make ~count:40 ~name:"disconnected state triggers MRM030"
    ~print:params_print onoff_params_gen (fun p ->
      (* Append a fresh state with no incoming transition. *)
      let m = Onoff.model p in
      let g = Generator.matrix (m : Model.t).Model.generator in
      let n = Sparse.rows g in
      let grown = ref [] in
      Sparse.iter g (fun i j v -> grown := (i, j, v) :: !grown);
      grown := (n, 0, 1.) :: (n, n, -1.) :: !grown;
      let q_matrix =
        Sparse.of_triplets ~rows:(n + 1) ~cols:(n + 1) !grown
      in
      let extend a x = Array.append a [| x |] in
      let data =
        Check.data ~q_matrix
          ~rates:(extend (m : Model.t).Model.rates 0.)
          ~variances:(extend (m : Model.t).Model.variances 0.)
          ~initial:(extend (m : Model.t).Model.initial 0.)
      in
      let report = Check.check data in
      has "MRM030" report && not (Diagnostics.has_errors report))

(* ------------------------------------------------------------------ *)
(* Model_io structured errors                                           *)

let test_model_io_error_positions () =
  (match Model_io.parse_raw "states 2\ntransition 0 1 abc\n" with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error e ->
      Alcotest.(check (option int)) "line" (Some 2) e.Model_io.line;
      Alcotest.(check (option string))
        "field" (Some "transition") e.Model_io.field);
  (match Model_io.parse_raw "states 2\nreward 0 1. 0.\ninitial 5 1.\n" with
  | Ok _ -> Alcotest.fail "expected range error"
  | Error e ->
      Alcotest.(check (option int)) "range line" (Some 3) e.Model_io.line;
      Alcotest.(check (option string))
        "range field" (Some "initial") e.Model_io.field);
  (* Raw parsing keeps semantically broken content for the linter. *)
  (match Model_io.parse_raw "states 2\ntransition 0 1 -5.\ninitial 0 0.2\n" with
  | Ok raw ->
      Alcotest.(check int) "states" 2 raw.Model_io.declared_states;
      Alcotest.(check bool) "negative rate preserved" true
        (List.mem (0, 1, -5.) raw.Model_io.raw_transitions)
  | Error e -> Alcotest.failf "raw parse: %s" (Model_io.error_message e));
  (* The full pipeline's message keeps the line-numbered prefix. *)
  match Model_io.parse_string_result "states 2\ntransition 0 1 abc\n" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e ->
      Alcotest.(check string) "message has position"
        "line 2, transition: bad number \"abc\"" (Model_io.error_message e)

(* ------------------------------------------------------------------ *)
(* mrm2 lint CLI on the committed fixtures                              *)

let mrm2 = Filename.concat (Filename.concat ".." "bin") "mrm2.exe"

let run_lint ?(flags = "") fixture =
  let out = Filename.temp_file "mrm2_lint" ".out" in
  let command =
    Printf.sprintf "%s lint %s fixtures/%s > %s 2>&1" mrm2 flags fixture out
  in
  let status = Sys.command command in
  let ic = open_in out in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove out;
  (status, text)

let contains text needle =
  let n = String.length needle in
  let rec go i =
    if i + n > String.length text then false
    else if String.sub text i n = needle then true
    else go (i + 1)
  in
  go 0

let expect_lint name fixture ~flags ~status ~code =
  let actual_status, text = run_lint ~flags fixture in
  Alcotest.(check int) (name ^ " exit") status actual_status;
  match code with
  | None -> ()
  | Some c ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mentions %s in: %s" name c text)
        true (contains text c)

let test_lint_cli () =
  expect_lint "valid" "valid_onoff.mrm" ~flags:"" ~status:0 ~code:None;
  expect_lint "broken rate" "broken_rate.mrm" ~flags:"" ~status:1
    ~code:(Some "MRM002");
  expect_lint "broken variance" "broken_variance.mrm" ~flags:"" ~status:1
    ~code:(Some "MRM011");
  expect_lint "broken initial" "broken_initial.mrm" ~flags:"" ~status:1
    ~code:(Some "MRM021");
  expect_lint "broken syntax" "broken_syntax.mrm" ~flags:"" ~status:1
    ~code:(Some "MRM090");
  expect_lint "unreachable warns" "warn_unreachable.mrm" ~flags:"" ~status:0
    ~code:(Some "MRM030");
  expect_lint "unreachable strict" "warn_unreachable.mrm" ~flags:"--strict"
    ~status:1 ~code:(Some "MRM030");
  expect_lint "json rendering" "broken_rate.mrm" ~flags:"--format json"
    ~status:1 ~code:(Some "\"code\":\"MRM002\"")

(* ------------------------------------------------------------------ *)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "check"
    [
      ( "diagnostics",
        [
          Alcotest.test_case "severity order" `Quick
            test_diagnostics_severity_order;
          Alcotest.test_case "renderings" `Quick test_diagnostics_renderings;
          Alcotest.test_case "codes dedup" `Quick test_diagnostics_codes_dedup;
        ] );
      ( "scc",
        [
          Alcotest.test_case "cycle" `Quick test_scc_cycle;
          Alcotest.test_case "one-way chain" `Quick test_scc_one_way_chain;
          Alcotest.test_case "10^5-state chain (iterative)" `Quick
            test_scc_large_chain_no_stack_overflow;
        ] );
      ( "check",
        [
          Alcotest.test_case "valid model clean" `Quick
            test_check_valid_model_clean;
          Alcotest.test_case "valid fixture clean" `Quick
            test_check_valid_fixture_roundtrip;
          Alcotest.test_case "generator codes" `Quick
            test_check_generator_codes;
          Alcotest.test_case "reward codes" `Quick test_check_reward_codes;
          Alcotest.test_case "initial codes" `Quick test_check_initial_codes;
          Alcotest.test_case "dimension code" `Quick test_check_dimension_code;
          Alcotest.test_case "structure codes" `Quick
            test_check_structure_codes;
          Alcotest.test_case "uniformization codes" `Quick
            test_check_uniformization_codes;
          Alcotest.test_case "conditioning codes" `Quick
            test_check_conditioning_codes;
        ] );
      ( "validate",
        [
          Alcotest.test_case "validate_exn" `Quick test_validate_exn;
          Alcotest.test_case "validate_exn on a mutated model" `Quick
            test_validate_exn_mutated;
        ] );
      ( "properties",
        [
          to_alcotest prop_random_birth_death_clean;
          to_alcotest prop_mutated_row_sum_flagged;
          to_alcotest prop_mutated_variance_flagged;
          to_alcotest prop_disconnected_state_flagged;
        ] );
      ( "model_io",
        [
          Alcotest.test_case "error positions" `Quick
            test_model_io_error_positions;
        ] );
      ( "lint_cli",
        [ Alcotest.test_case "fixtures" `Quick test_lint_cli ] );
    ]
