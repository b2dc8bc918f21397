(* End-to-end smoke driver behind the @route-smoke dune alias (not an
   alcotest binary): spawns two real `mrm2 serve` replicas and an
   `mrm2 route` front-end on temporary Unix sockets and checks the
   distributed serving contract from outside —
   - a scripted `mrm2 call` through the router answers every distinct
     job, and a repeat of the same stream comes back 100% cached
     (consistent hashing returned every digest to its owning replica);
   - a small `mrm2 loadgen` bench runs through the router and emits a
     well-formed benchmark record;
   - SIGTERM kills one replica in the middle of a lockstep request
     stream and every accepted request still receives a bit-for-bit
     correct response (failover, zero wrong answers), with the router's
     stats reporting the mark-down and at least one failover;
   - the killed replica, the surviving replica and the router all
     drain to exit 0, and the router's metrics report carries the
     cluster.* counters.

   The router's probe interval is set high on purpose: the kill must be
   detected passively, on the forward path, not papered over by a
   lucky probe. Usage: route_smoke MRM2_EXE. *)

module Json = Mrm_util.Json

let fail fmt =
  Printf.ksprintf (fun m -> prerr_endline ("route_smoke: " ^ m); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lines_of_file path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")

let contains ~sub s =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let spawn exe argv ~stdout ~stderr =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out =
    Unix.openfile stdout [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let err =
    Unix.openfile stderr [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let pid = Unix.create_process exe argv devnull out err in
  Unix.close devnull;
  Unix.close out;
  Unix.close err;
  pid

let wait_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _, Unix.WSIGNALED s -> fail "process killed by signal %d" s
  | _, Unix.WSTOPPED s -> fail "process stopped by signal %d" s

let job ~id ~t =
  Printf.sprintf
    "{\"id\":\"%s\",\"model\":\"onoff\",\"sigma2\":1,\"size\":16,\"t\":%g,\"order\":3}"
    id t

let await_ready ~what ~pid ~err_file =
  let deadline = Unix.gettimeofday () +. 15. in
  let rec poll () =
    if Unix.gettimeofday () > deadline then
      fail "%s not ready after 15s; stderr:\n%s" what (read_file err_file)
    else if contains ~sub:"listening on" (read_file err_file) then ()
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _, _ ->
          fail "%s exited before becoming ready; stderr:\n%s" what
            (read_file err_file));
      Unix.sleepf 0.05;
      poll ()
    end
  in
  poll ()

(* Every temporary file this program names, removed when it exits:
   [fail]'s exit and an uncaught exception included. *)
let temp_files = ref []

let tmp suffix =
  let path = Filename.temp_file "mrm2_route" suffix in
  temp_files := path :: !temp_files;
  path

let () =
  at_exit (fun () ->
      List.iter
        (fun path -> try Sys.remove path with Sys_error _ -> ())
        !temp_files)

let () =
  if Array.length Sys.argv < 2 then fail "usage: route_smoke MRM2_EXE";
  let mrm2 = Sys.argv.(1) in
  let sock name =
    let path = tmp ("." ^ name ^ ".sock") in
    Sys.remove path;
    path
  in
  let r1_sock = sock "r1" and r2_sock = sock "r2" in
  let router_sock = sock "router" in

  (* -------------------------------------------------------------- *)
  (* two replicas + the router, all real processes *)
  let r1_err = tmp ".r1.err" in
  let r1 =
    spawn mrm2
      [| mrm2; "serve"; "--socket"; r1_sock |]
      ~stdout:(tmp ".r1.out") ~stderr:r1_err
  in
  let r2_err = tmp ".r2.err" in
  let r2 =
    spawn mrm2
      [| mrm2; "serve"; "--socket"; r2_sock |]
      ~stdout:(tmp ".r2.out") ~stderr:r2_err
  in
  await_ready ~what:"replica r1" ~pid:r1 ~err_file:r1_err;
  await_ready ~what:"replica r2" ~pid:r2 ~err_file:r2_err;
  let router_err = tmp ".router.err" in
  let router =
    spawn mrm2
      [|
        mrm2; "route"; "--socket"; router_sock; "--backend"; r1_sock;
        "--backend"; r2_sock; "--probe-interval"; "30"; "--io-timeout";
        "20"; "--metrics";
      |]
      ~stdout:(tmp ".router.out") ~stderr:router_err
  in
  await_ready ~what:"router" ~pid:router ~err_file:router_err;

  (* -------------------------------------------------------------- *)
  (* distinct jobs through the router; then the same stream again,
     which must be answered entirely from the sharded caches *)
  let ids = List.init 12 (fun i -> Printf.sprintf "j%d" i) in
  let job_of_id id =
    let i = int_of_string (String.sub id 1 (String.length id - 1)) in
    job ~id ~t:(0.3 +. (0.1 *. float_of_int i))
  in
  let jobs_file = tmp ".jobs.jsonl" in
  write_file jobs_file (String.concat "\n" (List.map job_of_id ids @ [ "" ]));
  let run_call label =
    let out = tmp ("." ^ label ^ ".out") and err = tmp ("." ^ label ^ ".err") in
    let pid =
      spawn mrm2
        [| mrm2; "call"; "--socket"; router_sock; jobs_file |]
        ~stdout:out ~stderr:err
    in
    (match wait_exit pid with
    | 0 -> ()
    | code ->
        fail "mrm2 call (%s) exited %d; stderr:\n%s" label code
          (read_file err));
    let lines = lines_of_file out in
    if List.length lines <> List.length ids then
      fail "%s: expected %d responses, got %d" label (List.length ids)
        (List.length lines);
    List.map
      (fun line ->
        match Json.parse line with
        | Error e -> fail "%s: malformed response (%s): %s" label e line
        | Ok json -> (
            match Option.bind (Json.member "status" json) Json.to_str with
            | Some "ok" -> (line, json)
            | _ -> fail "%s: bad response %s" label line))
      lines
  in
  let first = run_call "fresh" in
  let cached json =
    Option.bind (Json.member "cached" json) Json.to_bool
    |> Option.value ~default:false
  in
  List.iter
    (fun (line, json) ->
      if cached json then fail "fresh solve reported cached: %s" line)
    first;
  let second = run_call "repeat" in
  List.iter
    (fun (line, json) ->
      if not (cached json) then
        fail "repeat job not served from the sharded cache: %s" line)
    second;
  let strip json =
    match json with
    | Json.Obj fields ->
        Json.to_string
          (Json.Obj (List.filter (fun (k, _) -> k <> "cached") fields))
    | other -> Json.to_string other
  in
  List.iter2
    (fun (l1, j1) (_, j2) ->
      if strip j1 <> strip j2 then
        fail "cache hit differs from the fresh solve: %s" l1)
    first second;

  (* baseline: id -> points, for the bit-for-bit check under failover *)
  let points json =
    match Json.member "points" json with
    | Some p -> Json.to_string p
    | None -> fail "ok response without points"
  in
  let baseline = List.map (fun (_, json) -> points json) first in

  (* -------------------------------------------------------------- *)
  (* a small closed-loop bench through the router *)
  let bench_out = tmp ".bench.out" and bench_err = tmp ".bench.err" in
  let bench =
    spawn mrm2
      [|
        mrm2; "loadgen"; "--socket"; router_sock; "--requests"; "120";
        "--workers"; "4"; "--keys"; "12"; "--skew"; "1"; "--size"; "8";
      |]
      ~stdout:bench_out ~stderr:bench_err
  in
  (match wait_exit bench with
  | 0 -> ()
  | code ->
      fail "mrm2 loadgen exited %d; stderr:\n%s" code (read_file bench_err));
  (match lines_of_file bench_out with
  | [ line ] -> (
      match Json.parse line with
      | Error e -> fail "loadgen record is not JSON (%s): %s" e line
      | Ok json ->
          let num name =
            match Option.bind (Json.member name json) Json.to_float with
            | Some v -> v
            | None -> fail "loadgen record lacks %s: %s" name line
          in
          if num "ok" < 120. then fail "loadgen dropped answers: %s" line;
          if num "dropped" > 0. then fail "loadgen dropped requests: %s" line;
          ignore (num "throughput_rps");
          ignore (num "cache_hit_rate");
          ignore (num "shed_rate");
          (match Json.member "latency_ms" json with
          | Some (Json.Obj _) -> ()
          | _ -> fail "loadgen record lacks latency_ms: %s" line);
          (match Json.member "router" json with
          | Some (Json.Obj _) -> ()
          | _ -> fail "loadgen record lacks the router stats: %s" line))
  | other -> fail "expected 1 loadgen record, got %d lines" (List.length other));

  (* -------------------------------------------------------------- *)
  (* kill replica r1 in the middle of a lockstep stream: every request
     must still be answered, bit-for-bit equal to the baseline *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX router_sock);
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  let rounds = 4 in
  let killed = ref false in
  for round = 0 to rounds - 1 do
    List.iteri
      (fun i id ->
        let n = (round * List.length ids) + i in
        if n = 6 then begin
          Unix.kill r1 Sys.sigterm;
          killed := true
        end;
        output_string oc (job_of_id id ^ "\n");
        flush oc;
        match input_line ic with
        | exception End_of_file ->
            fail "router dropped request %d (%s) after the kill" n id
        | line -> (
            match Json.parse line with
            | Error e -> fail "request %d: malformed response (%s)" n e
            | Ok json -> (
                (match
                   Option.bind (Json.member "status" json) Json.to_str
                 with
                | Some "ok" -> ()
                | _ -> fail "request %d (%s): wrong answer: %s" n id line);
                let expected = List.nth baseline i in
                if points json <> expected then
                  fail "request %d (%s): points differ from baseline" n id)))
      ids
  done;
  Unix.close fd;
  if not !killed then fail "kill point never reached";
  (match wait_exit r1 with
  | 0 -> ()
  | code ->
      fail "killed replica exited %d (graceful drain expected); stderr:\n%s"
        code (read_file r1_err));

  (* -------------------------------------------------------------- *)
  (* the router's stats must reflect the passive mark-down *)
  let stats_file = tmp ".stats.jsonl" in
  write_file stats_file "{\"cluster\":\"stats\",\"id\":\"s\"}\n";
  let stats_out = tmp ".stats.out" in
  let stats_pid =
    spawn mrm2
      [| mrm2; "call"; "--socket"; router_sock; stats_file |]
      ~stdout:stats_out ~stderr:(tmp ".stats.err")
  in
  (match wait_exit stats_pid with
  | 0 -> ()
  | code -> fail "stats request exited %d" code);
  (match lines_of_file stats_out with
  | [ line ] -> (
      match Json.parse line with
      | Error e -> fail "stats response not JSON (%s): %s" e line
      | Ok json ->
          let counter name =
            match
              Option.bind (Json.member "cluster" json) (Json.member name)
              |> Fun.flip Option.bind Json.to_float
            with
            | Some v -> v
            | None -> fail "stats lack %s: %s" name line
          in
          if counter "cluster.marked_down" < 1. then
            fail "kill not detected: %s" line;
          if counter "cluster.failovers" < 1. then
            fail "no failover recorded: %s" line;
          if counter "cluster.unavailable" > 0. then
            fail "requests were failed as unavailable: %s" line)
  | other -> fail "expected 1 stats line, got %d" (List.length other));

  (* -------------------------------------------------------------- *)
  (* graceful drain of the router and the surviving replica *)
  Unix.kill router Sys.sigterm;
  (match wait_exit router with
  | 0 -> ()
  | code ->
      fail "router exited %d after SIGTERM; stderr:\n%s" code
        (read_file router_err));
  if Sys.file_exists router_sock then
    fail "router socket path not unlinked on drain";
  Unix.kill r2 Sys.sigterm;
  (match wait_exit r2 with
  | 0 -> ()
  | code -> fail "surviving replica exited %d after SIGTERM" code);

  (* the router's exit metrics report carries the cluster counters *)
  let report = read_file router_err in
  List.iter
    (fun metric ->
      if not (contains ~sub:metric report) then
        fail "router metrics report is missing %s; stderr:\n%s" metric report)
    [
      "cluster.connections";
      "cluster.requests";
      "cluster.forwarded";
      "cluster.failovers";
      "cluster.marked_down";
      "cluster.replicas_up";
    ];
  if not (contains ~sub:"drained" report) then
    fail "router did not report a graceful drain; stderr:\n%s" report;
  print_endline "route_smoke: all checks passed"
