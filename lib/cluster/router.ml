(* The sharding front-end: accepts through the same Listener as
   `mrm2 serve`, speaks the same JSONL wire format, and forwards every
   request to the replica that owns its Batch.digest on the
   consistent-hash ring — so repeat jobs land on the replica whose LRU
   already holds the answer and the per-replica caches compose into
   one sharded distributed cache.

   Request path (per connection-handler thread):
     parse -> digest -> ring preference list -> skip down replicas ->
     shed check on the target -> forward (pooled connection) ->
     pass the replica's response line through.

   Failover: a forward that fails in transport, or answers the SRV004
   drain error, marks the replica down (passive detection), and the
   request is retried on the next successor — solves are deterministic
   and idempotent, so a retried request returns the bit-for-bit same
   answer. A prober thread probes every replica each interval; a downed
   replica is re-admitted after [readmit_after] consecutive healthy
   probes. Overload is shed per-replica with SRV002 (see {!Shed}). *)

module Json = Mrm_util.Json
module Metrics = Mrm_obs.Metrics
module Trace = Mrm_obs.Trace
module Protocol = Mrm_server.Protocol
module Server = Mrm_server.Server
module Listener = Mrm_server.Listener
module Batch = Mrm_batch.Batch

type config = {
  listen : Server.endpoint;
  backends : (string * Server.endpoint) list;
  vnodes : int;
  probe_interval : float;
  probe_timeout : float;
  readmit_after : int;
  max_inflight : int;
  max_attempts : int;
  io_timeout : float;
  default_eps : float;
}

let default_config ~listen ~backends =
  {
    listen;
    backends;
    vnodes = 64;
    probe_interval = 1.0;
    probe_timeout = 1.0;
    readmit_after = 2;
    max_inflight = 32;
    max_attempts = 3;
    io_timeout = 30.;
    default_eps = 1e-9;
  }

(* ------------------------------------------------------------------ *)
(* Metrics *)

let m_connections = Metrics.counter "cluster.connections"
let m_requests = Metrics.counter "cluster.requests"
let m_parse_errors = Metrics.counter "cluster.parse_errors"
let m_forwarded = Metrics.counter "cluster.forwarded"
let m_failovers = Metrics.counter "cluster.failovers"
let m_shed = Metrics.counter "cluster.shed"
let m_unavailable = Metrics.counter "cluster.unavailable"
let m_probes = Metrics.counter "cluster.probes"
let m_probe_failures = Metrics.counter "cluster.probe_failures"
let m_marked_down = Metrics.counter "cluster.marked_down"
let m_readmitted = Metrics.counter "cluster.readmitted"
let g_replicas_up = Metrics.gauge "cluster.replicas_up"
let g_inflight_peak = Metrics.gauge "cluster.inflight_peak"

(* ------------------------------------------------------------------ *)
(* State *)

(* Everything request processing reads; the sockets live in the
   handle's [Listener]. *)
type state = {
  cfg : config;
  ring : Ring.t;
  replicas : Replica.t array;
  by_name : (string, Replica.t) Hashtbl.t;  (* immutable after start *)
  shed : Shed.t;
}

type handle = { state : state; listener : Listener.t; prober : Thread.t }

let listen_address h = Listener.address h.listener

let up_count h =
  Array.fold_left
    (fun n r -> if Replica.healthy r then n + 1 else n)
    0 h.replicas

let note_replicas_up h =
  Metrics.set g_replicas_up (float_of_int (up_count h))

(* ------------------------------------------------------------------ *)
(* Request processing *)

(* Compares in place: this runs on every forwarded response. *)
let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec at i = i + m <= n && (matches i 0 || at (i + 1)) in
  at 0

(* A replica answering the drain error is as down as one that closed
   the connection. Error responses are small single-line objects, so
   the length bound keeps this check off the fat ok-responses. *)
let is_drain_response response =
  String.length response < 1024 && contains_sub ~sub:"\"SRV004\"" response

(* The router answers `{"cluster":"stats"}` itself: a snapshot of the
   cluster.* counters/gauges plus per-replica health — the loadgen and
   the smoke tests read failover/shed counts through the front door. *)
let is_stats_request json =
  match Option.bind (Json.member "cluster" json) Json.to_str with
  | Some "stats" -> true
  | Some _ | None -> false

let stats_response h ~id =
  let snap = Metrics.snapshot () in
  let starts_with ~prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  let counters =
    List.filter_map
      (fun (name, v) ->
        if starts_with ~prefix:"cluster." name then
          Some (name, Json.Num (float_of_int v))
        else None)
      snap.Metrics.counters
  in
  let gauges =
    List.filter_map
      (fun (name, v) ->
        if starts_with ~prefix:"cluster." name then Some (name, Json.Num v)
        else None)
      snap.Metrics.gauges
  in
  let replicas =
    Array.to_list
      (Array.map
         (fun r ->
           Json.Obj
             [
               ("name", Json.Str (Replica.name r));
               ("healthy", Json.Bool (Replica.healthy r));
               ("inflight", Json.Num
                  (float_of_int (Shed.inflight h.shed (Replica.name r))));
             ])
         h.replicas)
  in
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Str id);
         ("status", Json.Str "ok");
         ("cluster", Json.Obj (counters @ gauges));
         ("replicas", Json.List replicas);
       ])

(* Make sure the forwarded line carries an explicit id: the backend
   numbers anonymous requests by its own connection line counter, which
   need not match ours. *)
let line_with_id ~json ~id line =
  if Option.is_some (Json.member "id" json) then line
  else
    match json with
    | Json.Obj fields -> Json.to_string (Json.Obj (("id", Json.Str id) :: fields))
    | _ -> line

let forward h ~json ~request line =
  let id = request.Protocol.job.Batch.id in
  let digest = request.Protocol.digest in
  Trace.with_span "cluster.request"
    ~attrs:[ ("id", Trace.Str id); ("digest", Trace.Str digest) ]
  @@ fun () ->
  let line = line_with_id ~json ~id line in
  let finish outcome response =
    Trace.add_attr "outcome" (Trace.Str outcome);
    response
  in
  let unavailable () =
    Metrics.incr m_unavailable;
    finish "unavailable"
      (Protocol.error_response ~id ~code:"SRV006"
         (Printf.sprintf "no healthy replica for this request (%d configured)"
            (Array.length h.replicas)))
  in
  let rec attempt forwards prefs =
    match prefs with
    | [] -> unavailable ()
    | _ when forwards >= h.cfg.max_attempts -> unavailable ()
    | name :: rest ->
        let replica = Hashtbl.find h.by_name name in
        if not (Replica.healthy replica) then attempt forwards rest
        else if not (Shed.try_admit h.shed name) then begin
          (* Overload on the owning replica sheds; it must NOT spill to
             successors — that breaks cache placement and cascades. *)
          Metrics.incr m_shed;
          finish "shed"
            (Protocol.error_response ~id ~code:"SRV002"
               (Printf.sprintf
                  "replica %s at its in-flight cap (%d) — retry later" name
                  (Shed.limit h.shed)))
        end
        else begin
          let result =
            Fun.protect
              ~finally:(fun () ->
                Shed.release h.shed name;
                Metrics.observe_max g_inflight_peak
                  (float_of_int (Shed.peak h.shed)))
              (fun () -> Replica.call replica line)
          in
          match result with
          | Ok response when not (is_drain_response response) ->
              Metrics.incr m_forwarded;
              Trace.add_attr "replica" (Trace.Str name);
              Trace.add_attr "forwards" (Trace.Int (forwards + 1));
              finish "forwarded" response
          | Ok _ | Error _ ->
              (* Transport failure or SRV004: passive mark-down, spill
                 to the next successor. The solve is deterministic, so
                 the retried request returns the bit-for-bit same
                 answer. *)
              Metrics.incr m_failovers;
              if Replica.mark_down replica then begin
                Metrics.incr m_marked_down;
                note_replicas_up h
              end;
              attempt (forwards + 1) rest
        end
  in
  attempt 0 (Ring.successors h.ring digest)

let process h ~lineno line =
  Metrics.incr m_requests;
  let default_id = Printf.sprintf "req-%d" lineno in
  let malformed ~id msg =
    Metrics.incr m_parse_errors;
    Protocol.error_response ~id ~code:"SRV001" msg
  in
  match Json.parse line with
  | Error msg -> malformed ~id:default_id msg
  | Ok json when is_stats_request json ->
      stats_response h ~id:(Protocol.id_of_json ~default_id json)
  | Ok json -> (
      match
        Protocol.request_of_json ~default_eps:h.cfg.default_eps
          ~now:(Unix.gettimeofday ()) ~default_id json
      with
      | Error msg -> malformed ~id:(Protocol.id_of_json ~default_id json) msg
      | Ok request -> forward h ~json ~request line)

(* ------------------------------------------------------------------ *)
(* Prober *)

let probe_round h =
  Array.iter
    (fun replica ->
      Metrics.incr m_probes;
      match
        Replica.probe replica ~timeout:h.cfg.probe_timeout
          ~readmit_after:h.cfg.readmit_after
      with
      | `Still_up -> ()
      | `Went_down ->
          Metrics.incr m_probe_failures;
          Metrics.incr m_marked_down
      | `Still_down -> ()
      | `Readmitted -> Metrics.incr m_readmitted)
    h.replicas;
  note_replicas_up h

(* Sleep one interval (cut short by a drain), then probe. *)
let prober_loop h listener =
  while Listener.sleep listener h.cfg.probe_interval do
    probe_round h
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let validate_config cfg =
  if cfg.backends = [] then invalid_arg "Router: no backends";
  let names = List.map fst cfg.backends in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Router: duplicate backend names";
  if cfg.max_attempts < 1 then
    invalid_arg (Printf.sprintf "Router: max_attempts %d" cfg.max_attempts);
  if cfg.readmit_after < 1 then
    invalid_arg (Printf.sprintf "Router: readmit_after %d" cfg.readmit_after)

let start cfg =
  validate_config cfg;
  let replicas =
    Array.of_list
      (List.map
         (fun (name, endpoint) ->
           Replica.create ~io_timeout:cfg.io_timeout ~name endpoint)
         cfg.backends)
  in
  let by_name = Hashtbl.create (Array.length replicas) in
  Array.iter (fun r -> Hashtbl.replace by_name (Replica.name r) r) replicas;
  let state =
    {
      cfg;
      ring = Ring.create ~vnodes:cfg.vnodes (List.map fst cfg.backends);
      replicas;
      by_name;
      shed = Shed.create ~limit:cfg.max_inflight;
    }
  in
  let listener =
    Listener.start ~connections:m_connections cfg.listen (process state)
  in
  note_replicas_up state;
  let prober = Thread.create (prober_loop state) listener in
  { state; listener; prober }

let drain h = ignore (Listener.drain h.listener)

let wait h =
  Thread.join h.prober;
  Listener.wait h.listener;
  Array.iter Replica.shutdown h.state.replicas

let run ?(on_ready = ignore) cfg =
  let h = Listener.with_shutdown_signals ~drain (fun () -> start cfg) in
  on_ready (listen_address h);
  wait h;
  0
