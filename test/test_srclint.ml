(* Tests for the source-level analyzer (Mrm_analysis): one fixture per
   SRC rule linted under synthetic paths that pin the hot-path /
   library / parallel-host classification, the inline-suppression
   scanner (including multi-line standalone comments), the baseline
   format and its allowance accounting, the GitHub workflow-command
   rendering, and a self-check that lints the repository's own sources
   modulo the checked-in baseline — the in-process twin of
   `dune build @lint-src`. *)

module Lint = Mrm_analysis.Lint
module Suppress = Mrm_analysis.Suppress
module Baseline = Mrm_analysis.Baseline
module Diagnostics = Mrm_check.Diagnostics

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fixture name = read_file (Filename.concat "fixtures/src" name)
let codes findings = List.map (fun (f : Lint.finding) -> f.Lint.code) findings

let lint_fixture ~path name = Lint.lint_source ~path (fixture name)

(* ------------------------------------------------------------------ *)
(* One fixture per rule                                                 *)

let test_src001_float_eq () =
  match lint_fixture ~path:"lib/util/fake.ml" "src_float_eq.ml" with
  | [ f ] ->
      Alcotest.(check string) "code" "SRC001" f.Lint.code;
      Alcotest.(check int) "line" 2 f.Lint.line;
      Alcotest.(check bool) "warning severity" true
        (f.Lint.severity = Diagnostics.Warning)
  | fs -> Alcotest.failf "expected exactly one SRC001, got %d" (List.length fs)

let test_src002_poly_compare () =
  Alcotest.(check (list string))
    "hot path flags" [ "SRC002" ]
    (codes (lint_fixture ~path:"lib/linalg/fake.ml" "src_poly_compare.ml"));
  Alcotest.(check (list string))
    "cold path is silent" []
    (codes (lint_fixture ~path:"lib/util/fake.ml" "src_poly_compare.ml"));
  (* a comparison whose operand is visibly immediate is fine even in a
     hot-path module *)
  Alcotest.(check (list string))
    "known-int comparison is fine" []
    (codes (Lint.lint_source ~path:"lib/core/fake.ml" "let f a = a = 1\n"))

let test_src003_unsafe () =
  let findings = lint_fixture ~path:"lib/util/fake.ml" "src_unsafe.ml" in
  Alcotest.(check (list string))
    "both sites" [ "SRC003"; "SRC003" ] (codes findings);
  List.iter
    (fun (f : Lint.finding) ->
      Alcotest.(check bool) "error severity" true
        (f.Lint.severity = Diagnostics.Error))
    findings

let test_src004_swallow () =
  match lint_fixture ~path:"lib/util/fake.ml" "src_swallow.ml" with
  | [ f ] ->
      Alcotest.(check string) "code" "SRC004" f.Lint.code;
      (* only the catch-all on line 3 fires, not the specific handler *)
      Alcotest.(check int) "line" 3 f.Lint.line
  | fs -> Alcotest.failf "expected exactly one SRC004, got %d" (List.length fs)

let test_src005_parallel_write () =
  (match lint_fixture ~path:"lib/engine/fake.ml" "src_race.ml" with
  | [ f ] ->
      Alcotest.(check string) "code" "SRC005" f.Lint.code;
      (* the [:=] accumulator races; the [out.(i) <-] store indexed by
         the job-bound name follows the range-disjoint convention *)
      Alcotest.(check int) "line" 4 f.Lint.line
  | fs -> Alcotest.failf "expected exactly one SRC005, got %d" (List.length fs));
  Alcotest.(check (list string))
    "outside parallel hosts the rule is off" []
    (codes (lint_fixture ~path:"lib/util/fake.ml" "src_race.ml"))

let test_src006_print () =
  Alcotest.(check (list string))
    "library code flags" [ "SRC006" ]
    (codes (lint_fixture ~path:"lib/models/fake.ml" "src_print.ml"));
  Alcotest.(check (list string))
    "executables may print" []
    (codes (lint_fixture ~path:"bin/fake.ml" "src_print.ml"))

let test_src090_syntax_error () =
  match lint_fixture ~path:"lib/util/fake.ml" "src_syntax_error.ml" with
  | [ f ] ->
      Alcotest.(check string) "code" "SRC090" f.Lint.code;
      Alcotest.(check bool) "error severity" true
        (f.Lint.severity = Diagnostics.Error)
  | fs -> Alcotest.failf "expected exactly one SRC090, got %d" (List.length fs)

let test_rule_table_registry () =
  let registered = List.map (fun (c, _, _) -> c) Lint.rule_table in
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " registered") true
        (List.mem code registered))
    [ "SRC001"; "SRC002"; "SRC003"; "SRC004"; "SRC005"; "SRC006";
      "SRC010"; "SRC011"; "SRC012"; "SRC013"; "SRC014"; "SRC090" ];
  Alcotest.(check int) "codes unique"
    (List.length registered)
    (List.length (List.sort_uniq compare registered))

(* ------------------------------------------------------------------ *)
(* SRC010–SRC014: one defective/clean fixture pair per rule             *)

(* Each defective fixture must produce exactly its own rule (at the
   pinned lines) and its clean twin must be silent — same path, so any
   difference comes from the code, not the classification. *)
let check_pair ~code ~lines defective clean =
  let got = lint_fixture ~path:("lib/util/" ^ defective) defective in
  Alcotest.(check (list string))
    (defective ^ " codes")
    (List.map (fun _ -> code) lines)
    (codes got);
  Alcotest.(check (list int))
    (defective ^ " lines") lines
    (List.map (fun (f : Lint.finding) -> f.Lint.line) got);
  Alcotest.(check (list string))
    (clean ^ " is silent") []
    (codes (lint_fixture ~path:("lib/util/" ^ clean) clean))

let test_src010_lock_leak () =
  check_pair ~code:"SRC010" ~lines:[ 7 ] "src_lock_leak.ml"
    "src_lock_leak_ok.ml"

let test_src011_block_under_lock () =
  check_pair ~code:"SRC011" ~lines:[ 6 ] "src_block_under_lock.ml"
    "src_block_under_lock_ok.ml"

let test_src012_lock_order () =
  check_pair ~code:"SRC012" ~lines:[ 8 ] "src_lock_order.ml"
    "src_lock_order_ok.ml"

let test_src013_shared_state () =
  check_pair ~code:"SRC013" ~lines:[ 7 ] "src_shared_state.ml"
    "src_shared_state_ok.ml"

let test_src014_condition () =
  check_pair ~code:"SRC014" ~lines:[ 10; 14 ] "src_cond.ml" "src_cond_ok.ml"

let test_src01x_severities () =
  let severity code =
    let _, s, _ = List.find (fun (c, _, _) -> c = code) Lint.rule_table in
    s
  in
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " is an error") true
        (severity code = Diagnostics.Error))
    [ "SRC010"; "SRC012"; "SRC013" ];
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " is a warning") true
        (severity code = Diagnostics.Warning))
    [ "SRC011"; "SRC014" ]

(* ------------------------------------------------------------------ *)
(* Cfg round-trip: node/edge counts survive Pprintast pretty-printing   *)

let cfg_fixture_names =
  [ "src_lock_leak.ml"; "src_lock_leak_ok.ml"; "src_block_under_lock.ml";
    "src_block_under_lock_ok.ml"; "src_lock_order.ml"; "src_lock_order_ok.ml";
    "src_shared_state.ml"; "src_shared_state_ok.ml"; "src_cond.ml";
    "src_cond_ok.ml"; "src_race.ml" ]

let cfg_counts name contents =
  let str = Parse.implementation (Lexing.from_string contents) in
  let _, cfgs = Mrm_analysis.Cfg.build ~file:name str in
  Mrm_analysis.Cfg.counts cfgs

let cfg_round_trip_property =
  (* The CFG is a function of program structure, not of layout: pretty
     printing with Pprintast and re-parsing must preserve the total
     node and edge counts. QCheck2 draws fixtures so failures shrink
     to a single named file. *)
  QCheck2.Test.make ~count:50 ~name:"Cfg counts stable under Pprintast"
    (QCheck2.Gen.oneofl cfg_fixture_names)
    (fun name ->
      let contents = fixture name in
      let printed =
        Pprintast.string_of_structure
          (Parse.implementation (Lexing.from_string contents))
      in
      cfg_counts name contents = cfg_counts name printed)

(* ------------------------------------------------------------------ *)
(* Suppressions                                                         *)

let test_suppressed_fixture () =
  Alcotest.(check (list string))
    "all findings waived inline" []
    (codes (lint_fixture ~path:"lib/util/fake.ml" "src_suppressed.ml"))

let test_suppress_scan () =
  let text =
    "let a = 1 (* mrm:ignore SRC001 — trailing reason *)\n\
     (* mrm:ignore SRC003 SRC004 *)\n\
     let b = 2\n\
     (* mrm:ignore SRC001 — a standalone comment\n\
    \   spanning three lines\n\
    \   before it closes *)\n\
     let c = 3\n"
  in
  match Suppress.scan text with
  | [ s1; s2; s3 ] ->
      Alcotest.(check int) "s1 line" 1 s1.Suppress.line;
      Alcotest.(check bool) "s1 trailing" false s1.Suppress.standalone;
      Alcotest.(check (list string)) "s1 codes" [ "SRC001" ] s1.Suppress.codes;
      Alcotest.(check (option string))
        "s1 reason" (Some "trailing reason") s1.Suppress.reason;
      Alcotest.(check bool) "s1 covers own line" true
        (Suppress.covers s1 ~code:"SRC001" ~line:1);
      Alcotest.(check bool) "s1 does not cover next line" false
        (Suppress.covers s1 ~code:"SRC001" ~line:2);
      Alcotest.(check (list string))
        "s2 codes" [ "SRC003"; "SRC004" ] s2.Suppress.codes;
      Alcotest.(check bool) "s2 covers next line" true
        (Suppress.covers s2 ~code:"SRC004" ~line:3);
      Alcotest.(check bool) "s2 is code-specific" false
        (Suppress.covers s2 ~code:"SRC001" ~line:3);
      Alcotest.(check int) "s3 opens on line 4" 4 s3.Suppress.line;
      Alcotest.(check int) "s3 closes on line 6" 6 s3.Suppress.end_line;
      Alcotest.(check bool) "s3 covers the line after it closes" true
        (Suppress.covers s3 ~code:"SRC001" ~line:7);
      Alcotest.(check bool) "s3 does not cover past that" false
        (Suppress.covers s3 ~code:"SRC001" ~line:8)
  | ss -> Alcotest.failf "expected 3 suppressions, got %d" (List.length ss)

let test_suppress_mli () =
  (* suppressions are a raw-text scan, so they apply to interface
     files exactly as to implementations *)
  Alcotest.(check (list string))
    "unsuppressed .mli finding" [ "SRC090" ]
    (codes
       (Lint.lint_source ~path:"lib/util/fake.mli"
          "val 3 : int\nval ok : int\n"));
  Alcotest.(check (list string))
    "suppressed .mli finding" []
    (codes
       (Lint.lint_source ~path:"lib/util/fake.mli"
          "val 3 : int (* mrm:ignore SRC090 -- fixture *)\nval ok : int\n"))

let test_suppress_last_line () =
  (* the scanner must not require a trailing newline: a trailing
     suppression on the very last line, and a standalone one whose
     covered code line is the unterminated last line *)
  Alcotest.(check (list string))
    "trailing comment on last line, no newline" []
    (codes
       (Lint.lint_source ~path:"lib/util/fake.ml"
          "let f x = x = 1.0 (* mrm:ignore SRC001 -- fixture *)"));
  Alcotest.(check (list string))
    "standalone comment covering the last line, no newline" []
    (codes
       (Lint.lint_source ~path:"lib/util/fake.ml"
          "(* mrm:ignore SRC001 -- fixture *)\nlet f x = x = 1.0"));
  Alcotest.(check (list string))
    "without the suppression the finding is live" [ "SRC001" ]
    (codes (Lint.lint_source ~path:"lib/util/fake.ml" "let f x = x = 1.0"))

let test_suppress_blank_line_gap () =
  (* a standalone suppression stays attached to the next definition
     across blank lines *)
  match
    Suppress.scan "(* mrm:ignore SRC001 -- fixture *)\n\n\nlet f x = x = 1.0\n"
  with
  | [ s ] ->
      Alcotest.(check int) "target skips blanks" 4 s.Suppress.target;
      Alcotest.(check bool) "covers the definition" true
        (Suppress.covers s ~code:"SRC001" ~line:4)
  | ss -> Alcotest.failf "expected 1 suppression, got %d" (List.length ss)

(* ------------------------------------------------------------------ *)
(* Baseline                                                             *)

let test_baseline_round_trip () =
  let entries =
    [
      { Baseline.code = "SRC001"; file = "lib/a.ml"; count = 3 };
      { Baseline.code = "SRC002"; file = "lib/b.ml"; count = 1 };
    ]
  in
  (match Baseline.parse (Baseline.to_string entries) with
  | Ok parsed ->
      Alcotest.(check int) "entries" 2 (List.length parsed);
      Alcotest.(check bool) "round-trips" true (parsed = entries)
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e);
  (match Baseline.parse "# comment\n\nSRC001 lib/a.ml 2\n" with
  | Ok [ e ] ->
      Alcotest.(check string) "code" "SRC001" e.Baseline.code;
      Alcotest.(check int) "count" 2 e.Baseline.count
  | Ok es -> Alcotest.failf "expected 1 entry, got %d" (List.length es)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  match Baseline.parse "SRC001 lib/a.ml not-a-number\n" with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error _ -> ()

let test_baseline_apply () =
  let findings =
    Lint.lint_source ~path:"lib/util/fake.ml"
      "let f x = x = 1.0\nlet g x = x = 2.0\n"
  in
  Alcotest.(check (list string))
    "two findings to waive" [ "SRC001"; "SRC001" ] (codes findings);
  (* an allowance of 1 waives the first finding and leaves the second
     fresh; an unused allowance elsewhere is reported stale *)
  let baseline =
    [
      { Baseline.code = "SRC001"; file = "lib/util/fake.ml"; count = 1 };
      { Baseline.code = "SRC006"; file = "lib/gone.ml"; count = 2 };
    ]
  in
  let applied = Baseline.apply baseline findings in
  Alcotest.(check int) "waived" 1 (List.length applied.Baseline.waived);
  Alcotest.(check int) "fresh" 1 (List.length applied.Baseline.fresh);
  (match applied.Baseline.fresh with
  | [ f ] -> Alcotest.(check int) "the second finding is fresh" 2 f.Lint.line
  | _ -> Alcotest.fail "unexpected fresh set");
  (match applied.Baseline.stale with
  | [ e ] -> Alcotest.(check string) "stale file" "lib/gone.ml" e.Baseline.file
  | es -> Alcotest.failf "expected 1 stale entry, got %d" (List.length es));
  (* the exact baseline of the findings waives everything *)
  let exact = Baseline.apply (Baseline.of_findings findings) findings in
  Alcotest.(check int) "exact waives all" 0 (List.length exact.Baseline.fresh);
  Alcotest.(check int) "exact has no slack" 0 (List.length exact.Baseline.stale)

(* ------------------------------------------------------------------ *)
(* GitHub rendering                                                     *)

let test_github_rendering () =
  let d =
    Diagnostics.with_location ~file:"lib/a.ml" ~line:3 ~col:7
      (Diagnostics.warning ~code:"SRC001" "float equality")
  in
  Alcotest.(check string) "warning with location"
    "::warning file=lib/a.ml,line=3,col=7,title=SRC001::SRC001: float equality"
    (Diagnostics.to_github d);
  Alcotest.(check string) "escaping"
    "::error file=a%2Cb.ml,title=X1::X1: 50%25%0Adone"
    (Diagnostics.to_github
       (Diagnostics.with_location ~file:"a,b.ml"
          (Diagnostics.error ~code:"X1" "50%\ndone")))

(* ------------------------------------------------------------------ *)
(* Self-check: the repository lints clean modulo its own baseline       *)

let find_repo_root () =
  (* topmost ancestor that looks like the checkout (walking up from
     _build/default/test this passes through _build and lands on the
     real source root) *)
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

let test_repo_self_check () =
  match find_repo_root () with
  | None -> print_endline "self-check skipped: repository root not found"
  | Some root ->
      let cwd = Sys.getcwd () in
      Fun.protect
        ~finally:(fun () -> Sys.chdir cwd)
        (fun () ->
          Sys.chdir root;
          let findings =
            Lint.lint_paths [ "lib"; "bin"; "bench"; "lint"; "test" ]
          in
          match Baseline.load "lint/src_baseline.txt" with
          | Error e -> Alcotest.failf "baseline unreadable: %s" e
          | Ok baseline ->
              let applied = Baseline.apply baseline findings in
              List.iter
                (fun (f : Lint.finding) ->
                  Alcotest.failf "fresh finding: %s %s:%d %s" f.Lint.code
                    f.Lint.file f.Lint.line f.Lint.message)
                applied.Baseline.fresh)

let test_concurrency_self_check () =
  (* the threaded subsystems must be clean under the SRC01x rules
     outright — no baseline allowance, no suppressions expected *)
  match find_repo_root () with
  | None -> print_endline "self-check skipped: repository root not found"
  | Some root ->
      let cwd = Sys.getcwd () in
      Fun.protect
        ~finally:(fun () -> Sys.chdir cwd)
        (fun () ->
          Sys.chdir root;
          let findings =
            Lint.lint_paths [ "lib/server"; "lib/cluster"; "lib/engine" ]
          in
          let concurrency =
            List.filter
              (fun (f : Lint.finding) ->
                List.mem f.Lint.code
                  [ "SRC010"; "SRC011"; "SRC012"; "SRC013"; "SRC014" ])
              findings
          in
          List.iter
            (fun (f : Lint.finding) ->
              Alcotest.failf "concurrency finding: %s %s:%d %s" f.Lint.code
                f.Lint.file f.Lint.line f.Lint.message)
            concurrency)

(* ------------------------------------------------------------------ *)
(* The driver: flags, exit codes and stdout                             *)

let lint_src = Filename.concat (Filename.concat ".." "lint") "lint_src.exe"

let run_lint_src args =
  let out = Filename.temp_file "lint_src" ".out" in
  let status =
    Sys.command (Printf.sprintf "%s %s > %s 2>/dev/null" lint_src args out)
  in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  (status, text)

let test_driver_cli () =
  let status, text = run_lint_src "--list-rules" in
  Alcotest.(check int) "--list-rules exit" 0 status;
  Alcotest.(check (list string))
    "--list-rules codes"
    (List.map (fun (code, _, _) -> code) Lint.rule_table)
    (List.filter_map
       (fun line ->
         match String.split_on_char ' ' line with
         | code :: _ when code <> "" -> Some code
         | _ -> None)
       (String.split_on_char '\n' text));
  List.iter
    (fun (args, expected) ->
      let status, _ = run_lint_src args in
      Alcotest.(check int) (args ^ " exit") expected status)
    [
      ("--explain SRC020", 0);
      ("--explain SRC999", 2);
      ("no_such_path", 2);
      ("--update-baseline fixtures/src/src_float_eq.ml", 2);
    ];
  let status, text =
    run_lint_src "--strict --format json fixtures/src/src_float_eq.ml"
  in
  Alcotest.(check int) "--strict --format json exit" 1 status;
  let module Json = Mrm_util.Json in
  match Json.parse (String.trim text) with
  | Error e -> Alcotest.failf "--format json printed no JSON (%s):\n%s" e text
  | Ok json ->
      let codes =
        List.filter_map
          (fun d -> Option.bind (Json.member "code" d) Json.to_str)
          (Option.value (Json.to_list json) ~default:[])
      in
      Alcotest.(check bool) "holds SRC001" true (List.mem "SRC001" codes)

let () =
  Alcotest.run "srclint"
    [
      ( "rules",
        [
          Alcotest.test_case "SRC001 float equality" `Quick
            test_src001_float_eq;
          Alcotest.test_case "SRC002 polymorphic comparison" `Quick
            test_src002_poly_compare;
          Alcotest.test_case "SRC003 unsafe" `Quick test_src003_unsafe;
          Alcotest.test_case "SRC004 catch-all" `Quick test_src004_swallow;
          Alcotest.test_case "SRC005 parallel write" `Quick
            test_src005_parallel_write;
          Alcotest.test_case "SRC006 print" `Quick test_src006_print;
          Alcotest.test_case "SRC090 syntax error" `Quick
            test_src090_syntax_error;
          Alcotest.test_case "rule table registry" `Quick
            test_rule_table_registry;
        ] );
      ( "concurrency rules",
        [
          Alcotest.test_case "SRC010 lock leak" `Quick test_src010_lock_leak;
          Alcotest.test_case "SRC011 blocking under lock" `Quick
            test_src011_block_under_lock;
          Alcotest.test_case "SRC012 lock-order cycle" `Quick
            test_src012_lock_order;
          Alcotest.test_case "SRC013 unguarded shared state" `Quick
            test_src013_shared_state;
          Alcotest.test_case "SRC014 condition discipline" `Quick
            test_src014_condition;
          Alcotest.test_case "SRC01x severities" `Quick test_src01x_severities;
          QCheck_alcotest.to_alcotest cfg_round_trip_property;
        ] );
      ( "suppressions",
        [
          Alcotest.test_case "suppressed fixture is clean" `Quick
            test_suppressed_fixture;
          Alcotest.test_case "scan and coverage" `Quick test_suppress_scan;
          Alcotest.test_case "mli files" `Quick test_suppress_mli;
          Alcotest.test_case "last line without newline" `Quick
            test_suppress_last_line;
          Alcotest.test_case "blank-line gap after standalone" `Quick
            test_suppress_blank_line_gap;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "round trip" `Quick test_baseline_round_trip;
          Alcotest.test_case "allowance accounting" `Quick test_baseline_apply;
        ] );
      ( "output",
        [ Alcotest.test_case "github commands" `Quick test_github_rendering ] );
      ( "driver",
        [ Alcotest.test_case "flags and exit codes" `Quick test_driver_cli ] );
      ( "self-check",
        [
          Alcotest.test_case "repo modulo baseline" `Quick test_repo_self_check;
          Alcotest.test_case "threaded subsystems pass SRC01x" `Quick
            test_concurrency_self_check;
        ] );
    ]
