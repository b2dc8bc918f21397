(* Tests for the abstract-interpretation pass (Mrm_analysis.Absint +
   Numdom): domain unit tests, the SRC020-SRC024 fixture pairs under
   synthetic paths, the write-range proof over the repository's own
   kernels, Callgraph resolution, the rule-registry/README agreement,
   and a QCheck2 property running the statically proven kernel shapes
   over random partitions. *)

module Lint = Mrm_analysis.Lint
module Absint = Mrm_analysis.Absint
module N = Mrm_analysis.Numdom
module Callgraph = Mrm_analysis.Callgraph
module Cfg = Mrm_analysis.Cfg
module Diagnostics = Mrm_check.Diagnostics
module Pool = Mrm_engine.Pool
module Partition = Mrm_engine.Partition
module Kernel = Mrm_engine.Kernel

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fixture name = read_file (Filename.concat "fixtures/src" name)
let codes findings = List.map (fun (f : Lint.finding) -> f.Lint.code) findings
let lint_fixture ~path name = Lint.lint_source ~path (fixture name)

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* Numdom: symbolic linear entailment and the interval lattices         *)

let test_lin_entailment () =
  let lo = N.lin_sym 0 and hi = N.lin_sym 1 in
  (* the assumption set of a range site: hi - lo >= 0 and lo >= 0 *)
  let assume = [ N.lin_sub hi lo; lo ] in
  Alcotest.(check bool) "hi - lo >= 0" true
    (N.lin_nonneg ~assume (N.lin_sub hi lo));
  Alcotest.(check bool) "hi >= 0 uses both assumptions" true
    (N.lin_nonneg ~assume hi);
  Alcotest.(check bool) "hi - lo - 1 is not provable" false
    (N.lin_nonneg ~assume (N.lin_add_const (-1) (N.lin_sub hi lo)));
  Alcotest.(check bool) "constant 3 >= 0" true
    (N.lin_nonneg ~assume:[] (N.lin_const 3));
  Alcotest.(check bool) "constant -1 < 0" false
    (N.lin_nonneg ~assume:[] (N.lin_const (-1)));
  Alcotest.(check (option int)) "lo + (hi - lo) collapses to hi"
    (N.lin_is_const (N.lin_sub (N.lin_add lo (N.lin_sub hi lo)) hi))
    (Some 0)

let test_iv_range_proof () =
  let lo = N.lin_sym 0 and hi = N.lin_sym 1 in
  let assume = [ N.lin_sub hi lo; lo ] in
  let ob_lo = N.Lin lo and ob_hi = N.Lin (N.lin_add_const (-1) hi) in
  let inside = N.iv_range ob_lo ob_hi in
  Alcotest.(check bool) "[lo, hi-1] within the obligation" true
    (N.iv_subset ~assume inside ~lo:ob_lo ~hi:ob_hi);
  let off_by_one = N.iv_range (N.Lin lo) (N.Lin hi) in
  Alcotest.(check bool) "[lo, hi] is rejected" false
    (N.iv_subset ~assume off_by_one ~lo:ob_lo ~hi:ob_hi)

let test_iv_lattice () =
  let c a b = N.iv_range (N.Lin (N.lin_const a)) (N.Lin (N.lin_const b)) in
  let s iv = N.iv_to_string ~names:(fun _ -> "?") iv in
  Alcotest.(check string) "add" (s (c 11 22)) (s (N.iv_add (c 1 2) (c 10 20)));
  Alcotest.(check string) "sub" (s (c (-19) (-8)))
    (s (N.iv_sub (c 1 2) (c 10 20)));
  Alcotest.(check string) "join" (s (c 0 5)) (s (N.iv_join (c 0 1) (c 4 5)));
  Alcotest.(check bool) "widening opens the moving bound" true
    ((N.iv_widen ~old:(c 0 1) (c 0 2)).N.ihi = N.Pinf);
  Alcotest.(check bool) "widening keeps the stable bound" true
    ((N.iv_widen ~old:(c 0 1) (c 0 2)).N.ilo = N.Lin (N.lin_const 0));
  Alcotest.(check bool) "contains zero" true (N.iv_contains_zero (c (-1) 1));
  Alcotest.(check bool) "positive excludes zero" false
    (N.iv_contains_zero (c 1 5));
  Alcotest.(check string) "meet upper" (s (c 0 3))
    (s (N.iv_meet_upper (c 0 9) (N.Lin (N.lin_const 3))))

let test_fv_lattice () =
  Alcotest.(check bool) "0.5 - 0.5 may be zero" true
    (N.fv_may_zero (N.fv_sub (N.fv_const 0.5) (N.fv_const 0.5)));
  Alcotest.(check bool) "constant 1 cannot" false
    (N.fv_may_zero (N.fv_const 1.));
  let j = N.fv_join (N.fv_const 1.) (N.fv_const 2.) in
  Alcotest.(check bool) "join keeps provably-nonzero" false (N.fv_may_zero j);
  Alcotest.(check bool) "join spans both points" true
    (j.N.flo <= 1. && j.N.fhi >= 2.);
  Alcotest.(check bool) "wire float may be NaN" true N.fv_nan.N.fnan;
  Alcotest.(check bool) "NaN propagates through add" true
    (N.fv_add N.fv_nan (N.fv_const 1.)).N.fnan;
  Alcotest.(check bool) "sqrt of a negative may be NaN" true
    (N.fv_sqrt (N.fv_const (-1.))).N.fnan;
  Alcotest.(check bool) "sqrt of a positive is clean" false
    (N.fv_sqrt (N.fv_const 4.)).N.fnan;
  Alcotest.(check bool) "[-1, 1] may be nonpositive" true
    (N.fv_may_nonpos (N.fv_range (-1.) 1.));
  Alcotest.(check bool) "nonzero [0, 1] is not" false
    (N.fv_may_nonpos { (N.fv_range 0. 1.) with N.nz = true });
  let w = N.fv_widen ~old:(N.fv_const 0.) (N.fv_range 0. 1.) in
  Alcotest.(check bool) "float widening opens the moving bound" true
    ((not (Float.is_finite w.N.fhi)) && w.N.fhi > 0.);
  Alcotest.(check bool) "float widening keeps the stable bound" true
    (w.N.flo >= 0.)

(* ------------------------------------------------------------------ *)
(* Callgraph: resolution conventions, shadowing, blocking frontier      *)

let test_callgraph_resolve_name () =
  Alcotest.(check string) "last components" "Pool.run"
    (Callgraph.last_components 2 "Mrm_engine.Pool.run");
  let table =
    [ ("Pool.run", 1); ("A.helper", 2); ("B.helper", 3); ("Mrm_x.Deep.fn", 4) ]
  in
  let find k = List.assoc_opt k table in
  let r = Callgraph.resolve_name find in
  Alcotest.(check (option int)) "qualified matches by last two" (Some 1)
    (r ~current_module:"A" "Mrm_engine.Pool.run");
  Alcotest.(check (option int)) "qualified falls back to verbatim" (Some 4)
    (r ~current_module:"A" "Mrm_x.Deep.fn");
  Alcotest.(check (option int)) "unqualified in own module" (Some 2)
    (r ~current_module:"A" "helper");
  Alcotest.(check (option int)) "shadowing: same bare name, other module"
    (Some 3)
    (r ~current_module:"B" "helper");
  Alcotest.(check (option int)) "unqualified never crosses modules" None
    (r ~current_module:"C" "helper")

let parse_impl name src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf name;
  Parse.implementation lexbuf

let test_callgraph_over_cfgs () =
  let _, ga =
    Cfg.build ~file:"lib/util/aa.ml"
      (parse_impl "aa.ml" "let helper x = x + 1\nlet caller y = helper y\n")
  in
  let _, gb =
    Cfg.build ~file:"lib/util/bb.ml"
      (parse_impl "bb.ml" "let helper x = x * 2\n")
  in
  let t = Callgraph.build (ga @ gb) in
  let name m c =
    match Callgraph.resolve t ~current_module:m c with
    | Some cfg -> cfg.Cfg.name
    | None -> "<unresolved>"
  in
  Alcotest.(check string) "own module wins" "Aa.helper" (name "Aa" "helper");
  Alcotest.(check string) "shadowed twin stays local" "Bb.helper"
    (name "Bb" "helper");
  Alcotest.(check string) "qualified crosses modules" "Bb.helper"
    (name "Aa" "Bb.helper");
  Alcotest.(check string) "externals stay unresolved" "<unresolved>"
    (name "Aa" "List.map")

let test_blocking_frontier () =
  Alcotest.(check bool) "Unix.read blocks" true
    (Callgraph.is_blocking "Unix.read");
  Alcotest.(check bool) "fully qualified prefix blocks" true
    (Callgraph.is_blocking "Stdlib.Unix.read");
  Alcotest.(check bool) "Db.query does not" false
    (Callgraph.is_blocking "Db.query");
  Alcotest.(check bool) "--blocking extends the frontier" true
    (Callgraph.is_blocking
       ~frontier:("Db.query" :: Callgraph.default_blocking)
       "Db.query")

(* ------------------------------------------------------------------ *)
(* SRC020-SRC024: one defective/clean fixture pair per rule             *)

let check_pair ~path ~code ~lines defective clean =
  let got = lint_fixture ~path defective in
  Alcotest.(check (list string))
    (defective ^ " codes")
    (List.map (fun _ -> code) lines)
    (codes got);
  Alcotest.(check (list int))
    (defective ^ " lines") lines
    (List.map (fun (f : Lint.finding) -> f.Lint.line) got);
  Alcotest.(check (list string))
    (clean ^ " is silent") []
    (codes (lint_fixture ~path clean))

let test_src020_range_write () =
  check_pair ~path:"lib/util/fake.ml" ~code:"SRC020" ~lines:[ 5 ]
    "src_absint_range.ml" "src_absint_range_ok.ml"

(* A row-interleaved write s i + j (0 <= j < s) is proven inside
   [s lo, s hi - 1]; one array written at two strides is not. *)
let test_src020_strided_write () =
  check_pair ~path:"lib/util/fake.ml" ~code:"SRC020" ~lines:[ 7 ]
    "src_absint_stride.ml" "src_absint_stride_ok.ml"

(* A row placed from the range's end, such as a peeled last row
   s (hi - 1) + j, takes its stride from hi and is proven inside
   [s lo, s hi - 1]; the same kernel writing row hi is not. *)
let test_src020_peeled_row () =
  check_pair ~path:"lib/util/fake.ml" ~code:"SRC020" ~lines:[ 9 ]
    "src_absint_peel.ml" "src_absint_peel_ok.ml"

let test_src021_division () =
  check_pair ~path:"lib/util/fake.ml" ~code:"SRC021" ~lines:[ 5 ]
    "src_absint_div.ml" "src_absint_div_ok.ml"

let test_src022_bounds () =
  check_pair ~path:"lib/linalg/fake.ml" ~code:"SRC022" ~lines:[ 6; 7 ]
    "src_absint_bounds.ml" "src_absint_bounds_ok.ml";
  (* the bounds rule is hot-path-only: the same defective source is
     silent under a cold classification *)
  Alcotest.(check (list string))
    "cold path is silent" []
    (codes (lint_fixture ~path:"lib/util/fake.ml" "src_absint_bounds.ml"))

(* An unchecked read of an array the function did not allocate (a
   parameter, an element of another array) is proven by a dominating
   Array.length guard in the same function; without one, SRC022 and
   SRC003 both stand at the read. In a cold module SRC022 is silent and
   SRC003 stays. *)
let test_src022_unchecked_guards () =
  let got = lint_fixture ~path:"lib/linalg/fake.ml" "src_absint_unsafe.ml" in
  Alcotest.(check (list (pair string int)))
    "unguarded reads"
    [ ("SRC003", 7); ("SRC022", 7); ("SRC003", 13); ("SRC022", 13) ]
    (List.map (fun (f : Lint.finding) -> (f.Lint.code, f.Lint.line)) got);
  Alcotest.(check (list string))
    "guarded twin is silent" []
    (codes (lint_fixture ~path:"lib/linalg/fake.ml" "src_absint_unsafe_ok.ml"));
  let parsed name =
    [ Lint.parse_source ~path:"lib/util/fake.ml" (fixture name) ]
  in
  Alcotest.(check (list string))
    "cold path: the interval pass is silent" []
    (codes (fst (Lint.absint (parsed "src_absint_unsafe.ml"))));
  Alcotest.(check (list (pair string int)))
    "cold path: SRC003 stays"
    [ ("SRC003", 8); ("SRC003", 15) ]
    (List.map
       (fun (f : Lint.finding) -> (f.Lint.code, f.Lint.line))
       (lint_fixture ~path:"lib/util/fake.ml" "src_absint_unsafe_ok.ml"))

(* A loop body is checked under the state it can reach, not only its
   first two iterations: an index carried in a ref keeps growing. *)
let test_loop_carried_index () =
  let src =
    {|let walk (xs : float array) =
  if Array.length xs < 2 then invalid_arg "walk";
  let k = ref 0 in
  for _ = 1 to 10 do
    ignore (Array.unsafe_get xs !k);
    incr k
  done
|}
  in
  Alcotest.(check (list (pair string int)))
    "the carried index is not proven"
    [ ("SRC022", 5); ("SRC003", 5) ]
    (List.map
       (fun (f : Lint.finding) -> (f.Lint.code, f.Lint.line))
       (Lint.lint_source ~path:"lib/linalg/fake.ml" src))

(* A proof the analysis did not finish does not discharge SRC003. *)
let test_unchecked_fuel () =
  let parsed =
    [
      Lint.parse_source ~path:"lib/linalg/fake.ml"
        (fixture "src_absint_unsafe_ok.ml");
    ]
  in
  let syntactic = List.concat_map Lint.analyze_parsed parsed in
  Alcotest.(check int) "two SRC003 before the hand-off" 2
    (List.length syntactic);
  let _, stats = Lint.absint parsed in
  Alcotest.(check (list bool)) "both reads proven" [ true; true ]
    (List.map (fun (u : Absint.unchecked) -> u.Absint.uc_proven)
       stats.Absint.st_unchecked);
  Alcotest.(check (list string)) "and discharged" []
    (codes (Lint.discharge_unchecked stats syntactic));
  (* A starved function proves none of its reads, also one it visited
     (and proved) before the budget ran out: at every budget, proven
     reads plus starved functions never exceed the two functions. *)
  let taken_back = ref 0 in
  for fuel = 1 to 400 do
    let _, starved = Lint.absint ~fuel parsed in
    let proven =
      List.filter (fun (u : Absint.unchecked) -> u.Absint.uc_proven)
        starved.Absint.st_unchecked
    in
    let exhausted = starved.Absint.st_fuel_exhausted in
    if List.length proven + exhausted > 2 then
      Alcotest.failf "fuel %d: %d read(s) proven with %d function(s) starved"
        fuel (List.length proven) exhausted;
    if
      exhausted > 0
      && List.length starved.Absint.st_unchecked > List.length proven
    then incr taken_back;
    Alcotest.(check int)
      (Printf.sprintf "fuel %d: SRC003 stands where unproven" fuel)
      (2 - List.length proven)
      (List.length (Lint.discharge_unchecked starved syntactic))
  done;
  Alcotest.(check bool) "some starved function had visited its read" true
    (!taken_back > 0)

let test_src023_nan_compare () =
  check_pair ~path:"lib/util/fake.ml" ~code:"SRC023" ~lines:[ 5 ]
    "src_absint_nan.ml" "src_absint_nan_ok.ml"

let test_src024_probability () =
  check_pair ~path:"lib/util/fake.ml" ~code:"SRC024" ~lines:[ 4 ]
    "src_absint_prob.ml" "src_absint_prob_ok.ml"

let test_src02x_severities () =
  let severity code =
    let _, s, _ = List.find (fun (c, _, _) -> c = code) Lint.rule_table in
    s
  in
  Alcotest.(check bool) "SRC020 is an error" true
    (severity "SRC020" = Diagnostics.Error);
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " is a warning") true
        (severity code = Diagnostics.Warning))
    [ "SRC021"; "SRC022"; "SRC023"; "SRC024" ]

let test_fuel_exhaustion () =
  let parsed =
    [ Lint.parse_source ~path:"lib/util/fake.ml" (fixture "src_absint_div.ml") ]
  in
  let findings, stats = Lint.absint ~fuel:5 parsed in
  Alcotest.(check (list string))
    "exhaustion aborts without findings" [] (codes findings);
  Alcotest.(check bool) "exhaustion is counted" true
    (stats.Absint.st_fuel_exhausted >= 1);
  let findings, stats = Lint.absint parsed in
  Alcotest.(check int) "default fuel suffices" 0
    stats.Absint.st_fuel_exhausted;
  Alcotest.(check (list string)) "and the finding lands" [ "SRC021" ]
    (codes findings)

(* ------------------------------------------------------------------ *)
(* Registry agreement: rule_docs, README, fixtures                      *)

let test_rule_docs_registry () =
  let table = List.map (fun (c, _, _) -> c) Lint.rule_table in
  let docs = List.map (fun (c, _, _) -> c) Lint.rule_docs in
  Alcotest.(check (list string)) "rule_docs covers rule_table exactly"
    (List.sort compare table) (List.sort compare docs);
  List.iter
    (fun (code, doc, example) ->
      Alcotest.(check bool) (code ^ " has a real paragraph") true
        (String.length doc > 80);
      Alcotest.(check bool) (code ^ " has an example") true
        (String.length example > 0))
    Lint.rule_docs

let absint_fixture_of = function
  | "SRC020" -> Some "src_absint_range.ml"
  | "SRC021" -> Some "src_absint_div.ml"
  | "SRC022" -> Some "src_absint_bounds.ml"
  | "SRC023" -> Some "src_absint_nan.ml"
  | "SRC024" -> Some "src_absint_prob.ml"
  | _ -> None

let test_examples_live_in_fixtures () =
  List.iter
    (fun (code, _, example) ->
      match absint_fixture_of code with
      | None -> ()
      | Some name ->
          Alcotest.(check bool)
            (code ^ " example is a verbatim fixture line")
            true
            (contains_sub ~sub:example (fixture name)))
    Lint.rule_docs

let find_repo_root () =
  let rec up acc dir =
    let candidate =
      Sys.file_exists (Filename.concat dir "dune-project")
      && Sys.file_exists (Filename.concat dir "lint/src_baseline.txt")
      && Sys.is_directory (Filename.concat dir "lib")
    in
    let acc = if candidate then Some dir else acc in
    let parent = Filename.dirname dir in
    if String.equal parent dir then acc else up acc parent
  in
  up None (Sys.getcwd ())

let test_readme_table_agrees () =
  match find_repo_root () with
  | None -> print_endline "README check skipped: repository root not found"
  | Some root ->
      let readme = read_file (Filename.concat root "README.md") in
      let rows =
        String.split_on_char '\n' readme
        |> List.filter_map (fun line ->
               match String.split_on_char '|' line with
               | _ :: code :: severity :: _
                 when contains_sub ~sub:"SRC" code ->
                   Some (String.trim code, String.trim severity)
               | _ -> None)
      in
      Alcotest.(check bool) "README documents a rule table" true
        (List.length rows > 0);
      let registry =
        List.map
          (fun (c, s, _) -> (c, Diagnostics.severity_label s))
          Lint.rule_table
      in
      List.iter
        (fun (code, sev) ->
          match List.assoc_opt code registry with
          | None -> Alcotest.failf "README documents unknown rule %s" code
          | Some expected ->
              Alcotest.(check string) (code ^ " severity agrees") expected sev)
        rows;
      List.iter
        (fun (code, _) ->
          Alcotest.(check bool) (code ^ " appears in README") true
            (List.mem_assoc code rows))
        registry

(* ------------------------------------------------------------------ *)
(* The proof obligation over the repository's own kernels               *)

let test_repo_kernels_proven () =
  match find_repo_root () with
  | None -> print_endline "kernel proof skipped: repository root not found"
  | Some root ->
      let cwd = Sys.getcwd () in
      Fun.protect
        ~finally:(fun () -> Sys.chdir cwd)
        (fun () ->
          Sys.chdir root;
          let parsed = Lint.parse_files (Lint.discover [ "lib" ]) in
          let findings, stats = Lint.absint parsed in
          Alcotest.(check (list string))
            "no SRC020 across lib" []
            (codes
               (List.filter (fun (f : Lint.finding) -> f.code = "SRC020")
                  findings));
          let sites_in file =
            List.filter
              (fun (s : Absint.kernel_site) ->
                Filename.basename s.Absint.ks_file = file)
              stats.Absint.st_sites
          in
          let all_proven what sites =
            List.iter
              (fun (s : Absint.kernel_site) ->
                if s.Absint.ks_status <> Absint.Proven then
                  Alcotest.failf "%s %s:%d (%s) not proven" what
                    s.Absint.ks_file s.Absint.ks_line s.Absint.ks_runner)
              sites
          in
          let rand = sites_in "randomization.ml" in
          let kern = sites_in "kernel.ml" in
          all_proven "randomization" rand;
          all_proven "kernel" kern;
          (* the paper-scale fused sweep and the pinned runner under it *)
          Alcotest.(check int) "randomization.ml sites" 1 (List.length rand);
          Alcotest.(check int) "kernel.ml sites" 1 (List.length kern);
          let by status =
            List.length
              (List.filter
                 (fun (s : Absint.kernel_site) -> s.Absint.ks_status = status)
                 stats.Absint.st_sites)
          in
          Alcotest.(check bool) "at least the 3 known sites proven" true
            (by Absint.Proven >= 3);
          Alcotest.(check int) "no flagged site in lib" 0 (by Absint.Flagged);
          Alcotest.(check int) "no unknown site in lib" 0 (by Absint.Unknown);
          (* every Array.unsafe_get/unsafe_set in lib is proven: the
             round kernels in sparse.ml hold them *)
          let unchecked = stats.Absint.st_unchecked in
          List.iter
            (fun (u : Absint.unchecked) ->
              if not u.Absint.uc_proven then
                Alcotest.failf "unchecked access %s:%d:%d not proven"
                  u.Absint.uc_file u.Absint.uc_line u.Absint.uc_col)
            unchecked;
          Alcotest.(check bool) "the round kernels' accesses are there" true
            (List.length
               (List.filter
                  (fun (u : Absint.unchecked) ->
                    Filename.basename u.Absint.uc_file = "sparse.ml")
                  unchecked)
            >= 40))

(* ------------------------------------------------------------------ *)
(* Proven kernel shapes over random partitions                          *)

(* The kernel bodies the pass proves all write [lo, hi) slices of a
   partition. Run the proven runner shapes over random [uniform]
   partitions on a 2-domain pool: every row must be written exactly
   once per round. *)
let prop_proven_shapes_write_each_row_once =
  QCheck2.Test.make ~count:30
    ~name:"proven shapes write each row once"
    ~print:(fun (rows, parts) -> Printf.sprintf "rows=%d parts=%d" rows parts)
    QCheck2.Gen.(
      let* rows = int_range 0 300 in
      let* parts = int_range 1 8 in
      return (rows, parts))
    (fun (rows, parts) ->
      Pool.with_pool ~jobs:2 (fun pool ->
          let part = Partition.uniform ~parts ~rows in
          let filled = Array.make rows (-1.) in
          Kernel.sweep (Some pool) part ~rounds:1 (fun ~round:_ ~lo ~hi ->
              for i = lo to hi - 1 do
                filled.(i) <- float_of_int i
              done);
          let acc = Array.make rows 0. in
          Kernel.sweep (Some pool) part ~rounds:2 (fun ~round:_ ~lo ~hi ->
              for i = lo to hi - 1 do
                acc.(i) <- acc.(i) +. 1.
              done);
          Array.for_all (fun v -> v >= 0.) filled
          && Array.for_all (fun v -> v > 1.5 && v < 2.5) acc))

let () =
  Alcotest.run "absint"
    [
      ( "numdom",
        [
          Alcotest.test_case "linear entailment" `Quick test_lin_entailment;
          Alcotest.test_case "range proof" `Quick test_iv_range_proof;
          Alcotest.test_case "integer lattice" `Quick test_iv_lattice;
          Alcotest.test_case "float lattice" `Quick test_fv_lattice;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "resolve_name conventions" `Quick
            test_callgraph_resolve_name;
          Alcotest.test_case "resolution over graphs" `Quick
            test_callgraph_over_cfgs;
          Alcotest.test_case "blocking frontier" `Quick test_blocking_frontier;
        ] );
      ( "rules",
        [
          Alcotest.test_case "SRC020 kernel write range" `Quick
            test_src020_range_write;
          Alcotest.test_case "SRC020 strided write" `Quick
            test_src020_strided_write;
          Alcotest.test_case "SRC020 peeled last row" `Quick
            test_src020_peeled_row;
          Alcotest.test_case "SRC021 division" `Quick test_src021_division;
          Alcotest.test_case "SRC022 bounds" `Quick test_src022_bounds;
          Alcotest.test_case "SRC022 unchecked access guards" `Quick
            test_src022_unchecked_guards;
          Alcotest.test_case "unproven when fuel runs out" `Quick
            test_unchecked_fuel;
          Alcotest.test_case "loop-carried index" `Quick
            test_loop_carried_index;
          Alcotest.test_case "SRC023 NaN compare" `Quick test_src023_nan_compare;
          Alcotest.test_case "SRC024 probability" `Quick test_src024_probability;
          Alcotest.test_case "SRC02x severities" `Quick test_src02x_severities;
          Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
        ] );
      ( "registry",
        [
          Alcotest.test_case "rule_docs matches rule_table" `Quick
            test_rule_docs_registry;
          Alcotest.test_case "examples live in fixtures" `Quick
            test_examples_live_in_fixtures;
          Alcotest.test_case "README table agrees" `Quick
            test_readme_table_agrees;
        ] );
      ( "kernel-proofs",
        [
          Alcotest.test_case "repository kernels proven" `Quick
            test_repo_kernels_proven;
          QCheck_alcotest.to_alcotest prop_proven_shapes_write_each_row_once;
        ] );
    ]
