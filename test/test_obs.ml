(* Tests for mrm_obs: metrics cells, trace sinks, the JSONL schema, and
   the guarantee that instrumentation never changes solver numerics. *)

module Trace = Mrm_obs.Trace
module Metrics = Mrm_obs.Metrics
module Json = Mrm_util.Json
module Model = Mrm_core.Model
module Randomization = Mrm_core.Randomization
module Generator = Mrm_ctmc.Generator
module Pool = Mrm_engine.Pool

let generator2 = Generator.of_triplets ~states:2 [ (0, 1, 2.); (1, 0, 3.) ]

let model2 =
  Model.make ~generator:generator2 ~rates:[| 2.0; -1.0 |]
    ~variances:[| 0.5; 1.5 |] ~initial:[| 0.7; 0.3 |]

(* Every test leaves the global sink at Null so suites can run in any
   order (and so stderr stays clean under MRM2_TRACE=stderr runs). *)
let with_sink sink f =
  Trace.set_sink sink;
  Fun.protect ~finally:(fun () -> Trace.set_sink Trace.Null) f

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

let test_metrics_counters () =
  Metrics.reset ();
  let c = Metrics.counter "test.alpha" in
  let c' = Metrics.counter "test.alpha" in
  Metrics.incr c;
  Metrics.incr ~by:4 c';
  Alcotest.(check int) "same cell by name" 5 (Metrics.count c);
  Metrics.incr ~by:0 c;
  Alcotest.(check int) "by:0 is a no-op" 5 (Metrics.count c);
  match Metrics.incr ~by:(-1) c with
  | () -> Alcotest.fail "negative increment accepted"
  | exception Invalid_argument _ -> ()

let test_metrics_gauges () =
  Metrics.reset ();
  let g = Metrics.gauge "test.gauge" in
  Alcotest.(check bool) "unset reads nan" true
    (Float.is_nan (Metrics.gauge_value g));
  Metrics.set g 2.5;
  Alcotest.(check (float 0.)) "set" 2.5 (Metrics.gauge_value g);
  Metrics.observe_max g 1.0;
  Alcotest.(check (float 0.)) "max keeps larger" 2.5 (Metrics.gauge_value g);
  Metrics.observe_max g 7.0;
  Alcotest.(check (float 0.)) "max takes larger" 7.0 (Metrics.gauge_value g);
  let h = Metrics.gauge "test.gauge.fresh" in
  Metrics.observe_max h 3.0;
  Alcotest.(check (float 0.)) "max seeds unset gauge" 3.0
    (Metrics.gauge_value h)

let test_metrics_snapshot_and_reset () =
  Metrics.reset ();
  let c = Metrics.counter "test.snap.counter" in
  let g = Metrics.gauge "test.snap.gauge" in
  let unset = Metrics.gauge "test.snap.unset" in
  Metrics.incr ~by:3 c;
  Metrics.set g 1.5;
  let snap = Metrics.snapshot () in
  Alcotest.(check int) "counter in snapshot" 3
    (List.assoc "test.snap.counter" snap.Metrics.counters);
  Alcotest.(check (float 0.)) "gauge in snapshot" 1.5
    (List.assoc "test.snap.gauge" snap.Metrics.gauges);
  Alcotest.(check bool) "unset gauge omitted" false
    (List.mem_assoc "test.snap.unset" snap.Metrics.gauges);
  let names = List.map fst snap.Metrics.counters in
  Alcotest.(check (list string)) "counters sorted" (List.sort compare names)
    names;
  (* reset zeroes but keeps the registered cells (and live handles). *)
  Metrics.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Metrics.count c);
  Alcotest.(check bool) "gauge unset again" true
    (Float.is_nan (Metrics.gauge_value g));
  Metrics.incr c;
  Alcotest.(check int) "old handle still valid" 1
    (Metrics.count (Metrics.counter "test.snap.counter"));
  ignore unset

let test_metrics_json () =
  Metrics.reset ();
  Metrics.incr ~by:2 (Metrics.counter "test.json.counter");
  Metrics.set (Metrics.gauge "test.json.gauge") 4.5;
  let json = Metrics.to_json () in
  let counter =
    Option.bind (Json.member "counters" json) (fun c ->
        Option.bind (Json.member "test.json.counter" c) Json.to_int)
  in
  let gauge =
    Option.bind (Json.member "gauges" json) (fun g ->
        Option.bind (Json.member "test.json.gauge" g) Json.to_float)
  in
  Alcotest.(check (option int)) "counter exported" (Some 2) counter;
  Alcotest.(check (option (float 0.))) "gauge exported" (Some 4.5) gauge

let test_metrics_domain_safe () =
  (* Concurrent increments from pool workers must not lose updates. On
     4.14 the pool is sequential and this degenerates to a smoke test. *)
  Metrics.reset ();
  let c = Metrics.counter "test.pool.counter" in
  let n = 1000 in
  Pool.with_pool ~jobs:4 (fun pool ->
      Pool.run pool n (fun _ -> Metrics.incr c));
  Alcotest.(check int) "no lost increments" n (Metrics.count c)

let test_solver_metrics_recorded () =
  Metrics.reset ();
  let r = Randomization.moments model2 ~t:0.7 ~order:2 in
  let snap = Metrics.snapshot () in
  Alcotest.(check int) "one solve" 1
    (List.assoc "randomization.solves" snap.Metrics.counters);
  Alcotest.(check int) "iterations = G" r.Randomization.diagnostics.iterations
    (List.assoc "randomization.iterations" snap.Metrics.counters);
  Alcotest.(check (float 0.)) "truncation gauge = G"
    (float_of_int r.Randomization.diagnostics.iterations)
    (List.assoc "randomization.truncation_point" snap.Metrics.gauges)

(* ------------------------------------------------------------------ *)
(* Trace                                                                *)

let test_sink_of_spec () =
  let check spec expected =
    Alcotest.(check bool)
      (Printf.sprintf "spec %S" spec)
      true
      (Trace.sink_of_spec spec = expected)
  in
  check "" Trace.Null;
  check "0" Trace.Null;
  check "off" Trace.Null;
  check "null" Trace.Null;
  check "stderr" Trace.Stderr;
  check "1" Trace.Stderr;
  check "/tmp/some/trace.jsonl" (Trace.Jsonl "/tmp/some/trace.jsonl")

let test_trace_disabled_is_transparent () =
  Trace.set_sink Trace.Null;
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  (* with_span must pass values and exceptions through unchanged. *)
  Alcotest.(check int) "value through" 42
    (Trace.with_span "test.null" (fun () -> 42));
  match
    Trace.with_span "test.raise" (fun () -> failwith "boom")
  with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure msg -> Alcotest.(check string) "exn through" "boom" msg

let read_jsonl path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (Json.parse_exn line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let str_member key json = Option.bind (Json.member key json) Json.to_str
let num_member key json = Option.bind (Json.member key json) Json.to_float

let test_trace_jsonl_roundtrip () =
  let path = Filename.temp_file "mrm2_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  with_sink (Trace.Jsonl path) (fun () ->
      let result =
        Trace.with_span "outer" ~attrs:[ ("order", Trace.Int 3) ] (fun () ->
            Trace.event "tick" ~attrs:[ ("k", Trace.Float 0.5) ];
            let inner =
              Trace.with_span "inner" (fun () ->
                  Trace.add_attr "note" (Trace.Str "deep");
                  7)
            in
            Trace.add_attr "flag" (Trace.Bool true);
            inner + 1)
      in
      Alcotest.(check int) "span result" 8 result;
      Trace.flush ());
  (* set_sink Null (inside with_sink) closed the file; parse it back. *)
  let records = read_jsonl path in
  Alcotest.(check int) "three records" 3 (List.length records);
  let find_span name =
    List.find
      (fun r ->
        str_member "type" r = Some "span" && str_member "name" r = Some name)
      records
  in
  let outer = find_span "outer" and inner = find_span "inner" in
  let event =
    List.find (fun r -> str_member "type" r = Some "event") records
  in
  Alcotest.(check (option string)) "event name" (Some "tick")
    (str_member "name" event);
  (* Hierarchy: inner.parent = outer.id, outer.parent = null. *)
  let id json = Option.bind (Json.member "id" json) Json.to_int in
  Alcotest.(check bool) "inner linked to outer" true
    (Option.bind (Json.member "parent" inner) Json.to_int = id outer);
  Alcotest.(check bool) "outer is a root" true
    (Json.member "parent" outer = Some Json.Null);
  (* Timestamps: elapsed = end - start >= 0, and the event lies inside
     the outer span (clock is clamped monotone). *)
  List.iter
    (fun span ->
      match
        (num_member "start" span, num_member "end" span,
         num_member "elapsed" span)
      with
      | Some s, Some e, Some d ->
          Alcotest.(check bool) "span times ordered" true
            (s <= e && d >= 0. && abs_float (d -. (e -. s)) <= 1e-9)
      | _ -> Alcotest.fail "span missing timestamps")
    [ outer; inner ];
  (* Attributes survive the round trip with their types. *)
  let attr key json = Option.bind (Json.member "attrs" json) (Json.member key) in
  Alcotest.(check bool) "outer order attr" true
    (Option.bind (attr "order" outer) Json.to_int = Some 3);
  Alcotest.(check bool) "outer flag attr" true
    (Option.bind (attr "flag" outer) Json.to_bool = Some true);
  Alcotest.(check (option string)) "inner note attr" (Some "deep")
    (Option.bind (attr "note" inner) Json.to_str);
  Alcotest.(check bool) "event float attr" true
    (Option.bind (attr "k" event) Json.to_float = Some 0.5)

let test_root_span_leaves_nesting () =
  (* A root span opened inside an open span has no parent and is never
     on the nesting stack: the next nested span still hangs off the
     outer span, and add_attr inside the root span reaches the outer. *)
  let path = Filename.temp_file "mrm2_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  with_sink (Trace.Jsonl path) (fun () ->
      Trace.with_span "outer" (fun () ->
          Trace.with_root_span "root" ~attrs:[ ("cached", Trace.Bool true) ]
            (fun () ->
              Trace.add_attr "seen" (Trace.Bool true);
              Trace.with_span "inside-root" ignore);
          Trace.with_span "inner" ignore);
      Trace.flush ());
  let records = read_jsonl path in
  let find_span name =
    List.find (fun r -> str_member "name" r = Some name) records
  in
  let id json = Option.bind (Json.member "id" json) Json.to_int in
  let parent json = Option.bind (Json.member "parent" json) Json.to_int in
  let attr key json =
    Option.bind (Json.member "attrs" json) (Json.member key)
  in
  let outer = find_span "outer" and root = find_span "root" in
  Alcotest.(check bool) "root parent is null" true
    (Json.member "parent" root = Some Json.Null);
  Alcotest.(check bool) "root keeps its up-front attrs" true
    (Option.bind (attr "cached" root) Json.to_bool = Some true);
  Alcotest.(check bool) "add_attr skips the root span" true
    (attr "seen" root = None && attr "seen" outer <> None);
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " parented to outer")
        true
        (parent (find_span name) = id outer))
    [ "inside-root"; "inner" ]

let test_traced_solver_emits_span () =
  let path = Filename.temp_file "mrm2_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let r =
    with_sink (Trace.Jsonl path) (fun () ->
        let r = Randomization.moments model2 ~t:0.7 ~order:2 in
        Trace.flush ();
        r)
  in
  let records = read_jsonl path in
  let solve =
    List.find
      (fun j -> str_member "name" j = Some "randomization.moments")
      records
  in
  let attr key = Option.bind (Json.member "attrs" solve) (Json.member key) in
  Alcotest.(check bool) "G attribute matches diagnostics" true
    (Option.bind (attr "G") Json.to_int
    = Some r.Randomization.diagnostics.iterations);
  Alcotest.(check bool) "t attribute" true
    (Option.bind (attr "t") Json.to_float = Some 0.7);
  Alcotest.(check bool) "has elapsed" true
    (match num_member "elapsed" solve with Some d -> d >= 0. | None -> false);
  (* The per-phase children are present and linked to the solve span. *)
  let id = Option.bind (Json.member "id" solve) Json.to_int in
  List.iter
    (fun phase ->
      let child =
        List.find_opt (fun j -> str_member "name" j = Some phase) records
      in
      match child with
      | None -> Alcotest.failf "missing phase span %s" phase
      | Some c ->
          Alcotest.(check bool)
            (Printf.sprintf "%s parented to solve" phase)
            true
            (Option.bind (Json.member "parent" c) Json.to_int = id))
    [ "randomization.setup"; "randomization.sweep"; "randomization.finalize" ]

let test_tracing_does_not_change_numerics () =
  let solve () = Randomization.moments model2 ~t:1.3 ~order:4 in
  Trace.set_sink Trace.Null;
  let plain = solve () in
  let path = Filename.temp_file "mrm2_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let traced = with_sink (Trace.Jsonl path) solve in
  Array.iteri
    (fun n row ->
      Array.iteri
        (fun i v ->
          if
            Int64.bits_of_float v
            <> Int64.bits_of_float traced.Randomization.moments.(n).(i)
          then
            Alcotest.failf "moment (%d,%d) changed under tracing" n i)
        row)
    plain.Randomization.moments;
  Alcotest.(check int) "same iteration count"
    plain.Randomization.diagnostics.iterations
    traced.Randomization.diagnostics.iterations

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mrm_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "gauges" `Quick test_metrics_gauges;
          Alcotest.test_case "snapshot and reset" `Quick
            test_metrics_snapshot_and_reset;
          Alcotest.test_case "json export" `Quick test_metrics_json;
          Alcotest.test_case "domain-safe increments" `Quick
            test_metrics_domain_safe;
          Alcotest.test_case "solver instrumentation" `Quick
            test_solver_metrics_recorded;
        ] );
      ( "trace",
        [
          Alcotest.test_case "sink spec parsing" `Quick test_sink_of_spec;
          Alcotest.test_case "disabled sink is transparent" `Quick
            test_trace_disabled_is_transparent;
          Alcotest.test_case "jsonl round trip" `Quick
            test_trace_jsonl_roundtrip;
          Alcotest.test_case "root span leaves nesting intact" `Quick
            test_root_span_leaves_nesting;
          Alcotest.test_case "solver span schema" `Quick
            test_traced_solver_emits_span;
          Alcotest.test_case "numerics unchanged" `Quick
            test_tracing_does_not_change_numerics;
        ] );
    ]
