(* The serving workloads' system under test, as real processes: two
   `mrm2 serve --jobs 1` replicas behind one `mrm2 route`, on Unix
   sockets under .ledger/ in the directory the ledger runs from. The
   socket paths are relative and fixed: short whatever the checkout's
   location, and the same ring identities in every run, so the hash
   ring splits the key space between the replicas identically each
   time. The ledger is the only load source. *)

module Json = Mrm_util.Json
module Wire = Mrm_cluster.Wire

let scratch = ".ledger"
let sock_dir = Filename.concat scratch "sock"
let log_dir = Filename.concat scratch "log"
let replica_sock k = Filename.concat sock_dir (Printf.sprintf "r%d" k)
let router_sock = Filename.concat sock_dir "router"
let router = `Unix router_sock
let replica k = `Unix (replica_sock k)
let replicas = 2

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* Child processes *)

(* Pids not yet reaped; touched from the main thread only. *)
let live : int list ref = ref []

(* Children run with the program's defaults: no inherited MRM2_* setting
   (trace sink, job count, race checker) changes what is measured. *)
let child_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv ->
         not (String.length kv >= 5 && String.sub kv 0 5 = "MRM2_"))
  |> Array.of_list

let spawn ~mrm2 ~log args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close devnull;
        Unix.close out)
      (fun () ->
        Unix.create_process_env mrm2
          (Array.of_list (mrm2 :: args))
          (child_env ()) devnull out out)
  in
  live := pid :: !live;
  pid

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _, _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* SIGTERM (a graceful drain), then SIGKILL if it is not gone after
   [grace] seconds; returns once the process is reaped. *)
let stop ?(grace = 20.) pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. grace in
  let rec wait () =
    if exited pid then ()
    else if Unix.gettimeofday () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    end
    else begin
      Unix.sleepf 0.005;
      wait ()
    end
  in
  wait ();
  live := List.filter (fun p -> p <> pid) !live

let stop_all () = List.iter (stop ~grace:5.) !live

let await_ready ~what ~pid ~log =
  let deadline = Unix.gettimeofday () +. 30. in
  let rec poll () =
    let text = Option.value ~default:"" (Host.read_opt log) in
    if contains ~sub:"listening on" text then ()
    else if exited pid then begin
      live := List.filter (fun p -> p <> pid) !live;
      failwith (Printf.sprintf "%s exited before listening:\n%s" what text)
    end
    else if Unix.gettimeofday () > deadline then
      failwith (Printf.sprintf "%s not listening after 30 s:\n%s" what text)
    else begin
      Unix.sleepf 0.002;
      poll ()
    end
  in
  poll ()

(* ------------------------------------------------------------------ *)
(* The cluster *)

type t = { replica_pids : int array; router_pid : int }

let replica_log k = Filename.concat log_dir (Printf.sprintf "r%d.log" k)
let router_log = Filename.concat log_dir "router.log"

let start ~mrm2 ~cache_entries =
  mkdir_p sock_dir;
  mkdir_p log_dir;
  let replica_pids =
    Array.init replicas (fun k ->
        spawn ~mrm2 ~log:(replica_log k)
          [ "serve"; "--socket"; replica_sock k; "--jobs"; "1";
            "--cache-entries"; string_of_int cache_entries; "--metrics" ])
  in
  Array.iteri
    (fun k pid ->
      await_ready ~what:(Printf.sprintf "replica r%d" k) ~pid
        ~log:(replica_log k))
    replica_pids;
  let backends =
    List.concat_map
      (fun k -> [ "--backend"; replica_sock k ])
      (List.init replicas Fun.id)
  in
  let router_pid =
    spawn ~mrm2 ~log:router_log
      ([ "route"; "--socket"; router_sock ] @ backends @ [ "--metrics" ])
  in
  await_ready ~what:"router" ~pid:router_pid ~log:router_log;
  { replica_pids; router_pid }

(* Counter and gauge lines of an `mrm2 ... --metrics` exit report. *)
let parse_report text =
  List.filter_map
    (fun line ->
      match
        List.filter (fun w -> w <> "") (String.split_on_char ' ' line)
      with
      | [ name; value ] when String.contains name '.' ->
          Option.map (fun v -> (name, v)) (float_of_string_opt value)
      | _ -> None)
    (String.split_on_char '\n' text)

type drained = {
  peak_rss_kb : int;  (** VmHWM summed over the router and the replicas *)
  reports : (string * float) list array;  (** each replica's exit report *)
}

(* Read the peak resident sets while the processes live, then drain the
   router before its backends. *)
let shutdown t =
  let pids = t.router_pid :: Array.to_list t.replica_pids in
  let peak_rss_kb = List.fold_left (fun acc p -> acc + Host.vm_hwm_kb p) 0 pids in
  List.iter (fun p -> stop p) pids;
  let reports =
    Array.init replicas (fun k ->
        parse_report (Option.value ~default:"" (Host.read_opt (replica_log k))))
  in
  { peak_rss_kb; reports }

(* ------------------------------------------------------------------ *)
(* Clients *)

let connect endpoint = Wire.connect ~timeout:120. endpoint

let exchange conn line =
  match Wire.exchange conn line with
  | Ok reply -> reply
  | Error reason -> failwith ("lost the connection: " ^ reason)

(* The router's {"cluster":"stats"} snapshot: cluster.* name -> value. *)
let cluster_stats () =
  let conn = connect router in
  Fun.protect
    ~finally:(fun () -> Wire.close conn)
    (fun () ->
      match Json.parse (exchange conn {|{"cluster":"stats"}|}) with
      | Ok json -> (
          match Json.member "cluster" json with
          | Some (Json.Obj fields) ->
              List.filter_map
                (fun (name, v) -> Option.map (fun x -> (name, x)) (Json.to_float v))
                fields
          | _ -> [])
      | Error e -> failwith ("cluster stats: " ^ e))

let is_ok reply = contains ~sub:{|"status":"ok"|} reply
let is_cached reply = contains ~sub:{|"cached":true|} reply

type 'a session = {
  state : 'a;
  plain : Stats.samples;  (** seconds per ok round trip, untraced *)
  traced : Stats.samples;  (** the same, for requests inside a span *)
  mutable sent : int;
  mutable failed : int;
}

(* [closed_loop] holds one lockstep session against [endpoint] for
   [seconds], as a `mrm2 call` client does: it sends request [i] and
   waits for its reply before sending request [i + 1]. A request then
   passes through the ledger, the router and one replica in turn, so at
   most one of them works at any moment. With two sessions the four
   processes outnumbered the two vCPUs of the machine the results come
   from, and serve-hot's p50 moved by a third between runs of the same
   code. With recording on, odd-numbered requests run inside a span, so
   traced and untraced round trips share the same conditions.
   [on_reply state i line reply] returns whether the reply is ok. *)
let closed_loop ~spans ~endpoint ~seconds ~line_of ~state ~on_reply =
  let s =
    { state; plain = Stats.samples (); traced = Stats.samples (); sent = 0; failed = 0 }
  in
  let started = Unix.gettimeofday () in
  let deadline = started +. seconds in
  let conn = ref (connect endpoint) in
  while Unix.gettimeofday () < deadline do
    let i = s.sent in
    let line = line_of i in
    let traced = spans.Spans.enabled && i land 1 = 1 in
    let send () = Wire.exchange !conn line in
    let reply, elapsed =
      if traced then
        Spans.span spans "ledger.request"
          ~attrs:[ ("i", Json.Num (float_of_int i)) ]
          (fun _ -> send ())
      else Spans.time send
    in
    s.sent <- s.sent + 1;
    match reply with
    | Ok r when on_reply state i line r ->
        Stats.add (if traced then s.traced else s.plain) elapsed
    | Ok _ -> s.failed <- s.failed + 1
    | Error _ ->
        s.failed <- s.failed + 1;
        Wire.close !conn;
        conn := connect endpoint
  done;
  Wire.close !conn;
  (s, Unix.gettimeofday () -. started)
