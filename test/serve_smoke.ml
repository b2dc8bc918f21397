(* End-to-end smoke driver behind the @serve-smoke dune alias (not an
   alcotest binary): spawns a real `mrm2 serve` process on a temporary
   Unix-domain socket and checks the service contract from outside —
   an invalid --queue or --jobs refused with exit 2 before anything is
   bound, a scripted `mrm2 call` session whose duplicate job is served
   from the cache, two concurrent clients each receiving complete
   well-formed JSONL, SIGTERM during an in-flight solve still
   completing that solve before a clean exit 0, and the exit metrics
   report carrying the server.* counters.

   Usage: serve_smoke MRM2_EXE. Exits non-zero with a message on the
   first violated check. *)

module Json = Mrm_util.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("serve_smoke: " ^ m); exit 1) fmt

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
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

(* spawn [argv] with stdout/stderr captured into files; return the pid *)
let spawn exe argv ~stdout ~stderr =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out = Unix.openfile stdout [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let err = Unix.openfile stderr [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
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

(* [Some code] when [pid] exits within [seconds]; otherwise the process
   is killed and the result is [None]. *)
let wait_exit_within seconds pid =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.05;
        poll ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        None
    | _, Unix.WEXITED code -> Some code
    | _, Unix.WSIGNALED s -> fail "process killed by signal %d" s
    | _, Unix.WSTOPPED s -> fail "process stopped by signal %d" s
  in
  poll ()

let job ~id ~size ~t =
  Printf.sprintf
    "{\"id\":\"%s\",\"model\":\"onoff\",\"sigma2\":1,\"size\":%d,\"t\":%g,\"order\":3}"
    id size t

(* Every temporary file this program names, removed when it exits:
   [fail]'s exit and an uncaught exception included. *)
let temp_files = ref []

let tmp suffix =
  let path = Filename.temp_file "mrm2_smoke" suffix in
  temp_files := path :: !temp_files;
  path

let () =
  at_exit (fun () ->
      List.iter
        (fun path -> try Sys.remove path with Sys_error _ -> ())
        !temp_files)

let () =
  if Array.length Sys.argv < 2 then fail "usage: serve_smoke MRM2_EXE";
  let mrm2 = Sys.argv.(1) in
  let socket = tmp ".sock" in
  Sys.remove socket;
  let serve_out = tmp ".serve.out" and serve_err = tmp ".serve.err" in

  (* -------------------------------------------------------------- *)
  (* an invalid --queue or --jobs is a usage error: exit 2 with the
     reason, and nothing bound. A server that starts anyway is killed
     after 10 s. *)
  let expect_refused flag value reason =
    let what = Printf.sprintf "serve %s %s" flag value in
    let refused =
      spawn mrm2
        [| mrm2; "serve"; "--socket"; socket; flag; value |]
        ~stdout:serve_out ~stderr:serve_err
    in
    (match wait_exit_within 10. refused with
    | Some 2 -> ()
    | Some code ->
        fail "%s exited %d; stderr:\n%s" what code (read_file serve_err)
    | None ->
        (try Sys.remove socket with Sys_error _ -> ());
        fail "%s still running after 10 s; stderr:\n%s" what
          (read_file serve_err));
    (match read_file serve_err with
    | err when contains ~sub:reason err -> ()
    | err -> fail "%s gave no reason; stderr:\n%s" what err);
    if Sys.file_exists socket then fail "%s left a socket behind" what
  in
  expect_refused "--queue" "0" "mrm2 serve: Server.start: queue_capacity 0";
  expect_refused "--jobs" "0" "mrm2 serve: --jobs 0 must be >= 1";

  (* -------------------------------------------------------------- *)
  (* start the service and wait for readiness *)
  let server =
    spawn mrm2
      [| mrm2; "serve"; "--socket"; socket; "--metrics" |]
      ~stdout:serve_out ~stderr:serve_err
  in
  let deadline = Unix.gettimeofday () +. 15. in
  let rec await_ready () =
    if Unix.gettimeofday () > deadline then
      fail "server not ready after 15s; stderr:\n%s" (read_file serve_err)
    else if contains ~sub:"listening on" (read_file serve_err) then ()
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] server with
      | 0, _ -> ()
      | _, _ ->
          fail "server exited before becoming ready; stderr:\n%s"
            (read_file serve_err));
      Unix.sleepf 0.05;
      await_ready ()
    end
  in
  await_ready ();

  (* -------------------------------------------------------------- *)
  (* scripted mrm2 call session: the duplicate job is a cache hit *)
  let session_jobs = tmp ".jobs.jsonl" in
  write_file session_jobs
    (String.concat "\n"
       [ job ~id:"fresh" ~size:64 ~t:1.; job ~id:"repeat" ~size:64 ~t:1.; "" ]);
  let call_out = tmp ".call.out" and call_err = tmp ".call.err" in
  let client =
    spawn mrm2
      [| mrm2; "call"; "--socket"; socket; session_jobs |]
      ~stdout:call_out ~stderr:call_err
  in
  (match wait_exit client with
  | 0 -> ()
  | code -> fail "mrm2 call exited %d; stderr:\n%s" code (read_file call_err));
  (match lines_of_file call_out with
  | [ fresh; repeat ] ->
      let check_ok label line =
        match Json.parse line with
        | Error e -> fail "%s response is not JSON (%s): %s" label e line
        | Ok json -> (
            match Option.bind (Json.member "status" json) Json.to_str with
            | Some "ok" -> json
            | other ->
                fail "%s response status %s: %s" label
                  (Option.value other ~default:"missing")
                  line)
      in
      let fresh_json = check_ok "fresh" fresh in
      let repeat_json = check_ok "repeat" repeat in
      let cached json =
        Option.bind (Json.member "cached" json) Json.to_bool
        |> Option.value ~default:false
      in
      if cached fresh_json then fail "first solve must not be cached";
      if not (cached repeat_json) then
        fail "duplicate job must be served from the cache: %s" repeat;
      (* the cached outcome is the stored solve bit for bit: identical
         JSON except the requester's id and the cached flag *)
      let strip json =
        match json with
        | Json.Obj fields ->
            Json.to_string
              (Json.Obj
                 (List.filter (fun (k, _) -> k <> "id" && k <> "cached") fields))
        | other -> Json.to_string other
      in
      if strip fresh_json <> strip repeat_json then
        fail "cache hit differs from the fresh solve:\n%s\n%s" fresh repeat
  | other -> fail "expected 2 responses, got %d" (List.length other));
  (match read_file call_err with
  | err when contains ~sub:"1 cached" err -> ()
  | err -> fail "client summary should report 1 cached response, got: %s" err);

  (* -------------------------------------------------------------- *)
  (* two concurrent clients: both sessions complete, well-formed JSONL *)
  let spawn_client i =
    let jobs = tmp (Printf.sprintf ".c%d.jsonl" i) in
    write_file jobs
      (String.concat "\n"
         [
           job ~id:(Printf.sprintf "c%d-a" i) ~size:64 ~t:(0.5 +. float_of_int i);
           job ~id:(Printf.sprintf "c%d-b" i) ~size:64 ~t:(1.5 +. float_of_int i);
           "";
         ]);
    let out = tmp (Printf.sprintf ".c%d.out" i) in
    let pid =
      spawn mrm2
        [| mrm2; "call"; "--socket"; socket; jobs |]
        ~stdout:out ~stderr:(tmp (Printf.sprintf ".c%d.err" i))
    in
    (pid, out, i)
  in
  let clients = List.map spawn_client [ 0; 1 ] in
  List.iter
    (fun (pid, out, i) ->
      (match wait_exit pid with
      | 0 -> ()
      | code -> fail "concurrent client %d exited %d" i code);
      let lines = lines_of_file out in
      if List.length lines <> 2 then
        fail "concurrent client %d: expected 2 responses, got %d" i
          (List.length lines);
      List.iter
        (fun line ->
          match Json.parse line with
          | Error e ->
              fail "concurrent client %d: malformed response (%s): %s" i e line
          | Ok json -> (
              match Option.bind (Json.member "status" json) Json.to_str with
              | Some "ok" -> ()
              | _ -> fail "concurrent client %d: bad response %s" i line))
        lines)
    clients;

  (* -------------------------------------------------------------- *)
  (* graceful drain: SIGTERM lands while a solve is in flight; the
     response must still arrive complete, then the server exits 0 *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  output_string oc (job ~id:"inflight" ~size:2000 ~t:1. ^ "\n");
  flush oc;
  Unix.sleepf 0.1;
  (* the ~2000-state solve takes several hundred ms: the signal lands
     mid-solve *)
  Unix.kill server Sys.sigterm;
  (match input_line ic with
  | line -> (
      match Json.parse line with
      | Error e -> fail "in-flight response truncated by drain (%s): %s" e line
      | Ok json -> (
          match Option.bind (Json.member "status" json) Json.to_str with
          | Some "ok" -> ()
          | _ -> fail "in-flight solve failed during drain: %s" line))
  | exception End_of_file ->
      fail "drain dropped the in-flight request before answering");
  (* after the response the drained server closes the connection *)
  (match input_line ic with
  | line -> fail "unexpected extra line after drain: %s" line
  | exception End_of_file -> ());
  Unix.close fd;
  (match wait_exit server with
  | 0 -> ()
  | code ->
      fail "server exited %d after SIGTERM; stderr:\n%s" code
        (read_file serve_err));
  if Sys.file_exists socket then fail "socket path not unlinked on drain";

  (* -------------------------------------------------------------- *)
  (* the exit metrics report carries the service counters *)
  let report = read_file serve_err in
  List.iter
    (fun metric ->
      if not (contains ~sub:metric report) then
        fail "metrics report is missing %s; stderr:\n%s" metric report)
    [
      "server.connections";
      "server.requests";
      "server.cache_hits";
      "server.cache_misses";
      "server.drains";
      "server.queue_peak";
    ];
  if not (contains ~sub:"drained" report) then
    fail "server did not report a graceful drain; stderr:\n%s" report;
  print_endline "serve_smoke: all checks passed"
