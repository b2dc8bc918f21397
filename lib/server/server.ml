module Batch = Mrm_batch.Batch
module Pool = Mrm_engine.Pool
module Metrics = Mrm_obs.Metrics
module Trace = Mrm_obs.Trace
module Diagnostics = Mrm_check.Diagnostics

type endpoint = Listener.endpoint

type config = {
  endpoint : endpoint;
  queue_capacity : int;
  cache_entries : int;
  cache_bytes : int;
  pool_jobs : int;
  default_eps : float;
  validate : bool;
}

let default_config endpoint =
  {
    endpoint;
    queue_capacity = 64;
    cache_entries = 256;
    cache_bytes = 64 * 1024 * 1024;
    pool_jobs = 1;
    default_eps = 1e-9;
    validate = true;
  }

(* ------------------------------------------------------------------ *)
(* Metrics *)

let m_connections = Metrics.counter "server.connections"
let m_requests = Metrics.counter "server.requests"
let m_parse_errors = Metrics.counter "server.parse_errors"
let m_validation_failures = Metrics.counter "server.validation_failures"
let m_rejected = Metrics.counter "server.rejected"
let m_timeouts = Metrics.counter "server.timeouts"
let m_cache_hits = Metrics.counter "server.cache_hits"
let m_cache_misses = Metrics.counter "server.cache_misses"
let m_cache_evictions = Metrics.counter "server.cache_evictions"
let m_drains = Metrics.counter "server.drains"
let g_queue_peak = Metrics.gauge "server.queue_peak"
let g_cache_entries = Metrics.gauge "server.cache_entries"

(* ------------------------------------------------------------------ *)
(* The solve slot: a FIFO ticket lock. One solve runs at a time, on the
   connection thread holding the slot; at most [capacity] misses wait
   behind it. *)

type slot = {
  mutex : Mutex.t;
  turn : Condition.t;  (* a solve finished: the next ticket may run *)
  capacity : int;
  mutable issued : int;  (* tickets handed out *)
  mutable finished : int;  (* releases; ticket [finished] holds the slot *)
  mutable pool : Pool.t option;  (* set by [start] holding the slot *)
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Take a ticket and block until it holds the slot, or answer [false]
   when [capacity] misses already wait. [ahead] counts the solve in
   the slot and the misses waiting; the depth an arriving miss sees is
   itself plus those waiting, [max 1 ahead]. *)
let acquire slot =
  with_lock slot.mutex @@ fun () ->
  let ahead = slot.issued - slot.finished in
  if ahead > slot.capacity then false
  else begin
    let ticket = slot.issued in
    slot.issued <- ticket + 1;
    Metrics.observe_max g_queue_peak (float_of_int (Int.max 1 ahead));
    while slot.finished < ticket do
      Condition.wait slot.turn slot.mutex
    done;
    true
  end

let release slot =
  with_lock slot.mutex @@ fun () ->
  slot.finished <- slot.finished + 1;
  Condition.broadcast slot.turn

(* ------------------------------------------------------------------ *)
(* Handle *)

type handle = { listener : Listener.t; slot : slot }

let listen_address h = Listener.address h.listener

(* ------------------------------------------------------------------ *)
(* Request processing *)

(* The cache maps a digest to the hit response of its solved outcome,
   encoded once (Protocol.cached_body); only the id is the caller's. *)
let answer_hit ~id body =
  Metrics.incr m_cache_hits;
  Protocol.cached_response ~id body

let expired (request : Protocol.request) =
  match request.Protocol.expires with
  | Some e -> Unix.gettimeofday () > e
  | None -> false

(* Runs while the caller holds the solve slot, so only one thread at a
   time is inside this span and the solver's nested spans. *)
let serve_request ~cache slot (request : Protocol.request) =
  let job = request.Protocol.job in
  let id = job.Batch.id in
  Trace.with_span "server.request"
    ~attrs:
      [ ("id", Trace.Str id); ("digest", Trace.Str request.Protocol.digest) ]
  @@ fun () ->
  if expired request then begin
    Metrics.incr m_timeouts;
    Trace.add_attr "outcome" (Trace.Str "timeout");
    Protocol.error_response ~id ~code:"SRV003"
      "deadline exceeded before the solve started"
  end
  else
    (* A duplicate may have been solved while this one waited. *)
    match Lru_cache.find_opt cache request.Protocol.digest with
    | Some body ->
        Trace.add_attr "cached" (Trace.Bool true);
        answer_hit ~id body
    | None ->
        Metrics.incr m_cache_misses;
        Trace.add_attr "cached" (Trace.Bool false);
        let outcome = (Batch.run ?pool:slot.pool [| job |]).(0) in
        (match outcome.Batch.result with
        | Ok _ ->
            Lru_cache.add cache request.Protocol.digest
              (Protocol.cached_body outcome);
            Metrics.set g_cache_entries
              (float_of_int (Lru_cache.length cache))
        | Error _ -> ());
        Protocol.response_of_outcome ~cached:false outcome

(* Every request that is not a cache hit: validate, wait for the solve
   slot, then serve it on this connection thread. *)
let solve_miss cfg ~cache slot (request : Protocol.request) =
  let id = request.Protocol.job.Batch.id in
  match if cfg.validate then Protocol.validate request.Protocol.job else [] with
  | _ :: _ as report ->
      Metrics.incr m_validation_failures;
      Protocol.error_response ~id ~code:"SRV005" ~diagnostics:report
        (Printf.sprintf "model failed validation: %s"
           (String.concat ", " (Diagnostics.codes report)))
  | [] ->
      if acquire slot then
        Fun.protect
          ~finally:(fun () -> release slot)
          (fun () -> serve_request ~cache slot request)
      else begin
        Metrics.incr m_rejected;
        Protocol.error_response ~id ~code:"SRV002"
          (Printf.sprintf "request queue full (capacity %d) — retry later"
             slot.capacity)
      end

(* Runs on the connection-handler thread: parse, then answer an
   unexpired cache hit right here, skipping validation: only validated,
   solved jobs are cached, and the digest covers every input validation
   reads. The hit span is a root span, since the slot holder may be
   inside nested spans at the same time. *)
let process cfg ~cache slot ~lineno line =
  Metrics.incr m_requests;
  let now = Unix.gettimeofday () in
  let default_id = Printf.sprintf "req-%d" lineno in
  match
    Protocol.parse_request ~default_eps:cfg.default_eps ~now ~default_id
      line
  with
  | Error msg ->
      Metrics.incr m_parse_errors;
      Protocol.error_response ~id:default_id ~code:"SRV001" msg
  | Ok request -> (
      let id = request.Protocol.job.Batch.id in
      let digest = request.Protocol.digest in
      match
        if expired request then None else Lru_cache.find_opt cache digest
      with
      | Some body ->
          Trace.with_root_span "server.request"
            ~attrs:
              [ ("id", Trace.Str id); ("digest", Trace.Str digest);
                ("cached", Trace.Bool true) ]
            (fun () -> answer_hit ~id body)
      | None -> solve_miss cfg ~cache slot request)

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let start (cfg : config) =
  if cfg.queue_capacity < 1 then
    invalid_arg
      (Printf.sprintf "Server.start: queue_capacity %d" cfg.queue_capacity);
  (* An entry weighs its stored response bytes. *)
  let cache =
    Lru_cache.create ~max_entries:cfg.cache_entries ~max_weight:cfg.cache_bytes
      ~on_evict:(fun _key -> Metrics.incr m_cache_evictions)
      ~weight:String.length ()
  in
  (* Start holds ticket 0 until the pool exists. It binds first, so a
     refused endpoint leaks no domains; a miss accepted meanwhile just
     waits for the slot. *)
  let slot =
    {
      mutex = Mutex.create ();
      turn = Condition.create ();
      capacity = cfg.queue_capacity;
      issued = 1;
      finished = 0;
      pool = None;
    }
  in
  let listener =
    Listener.start ~connections:m_connections cfg.endpoint
      (process cfg ~cache slot)
  in
  if cfg.pool_jobs > 1 then
    slot.pool <- Some (Pool.create ~jobs:cfg.pool_jobs ());
  release slot;
  { listener; slot }

let drain h = if Listener.drain h.listener then Metrics.incr m_drains

let wait h =
  (* Every handler has exited, so no solve is in flight or waiting. *)
  Listener.wait h.listener;
  Option.iter Pool.shutdown h.slot.pool

let run ?(on_ready = ignore) cfg =
  let h = Listener.with_shutdown_signals ~drain (fun () -> start cfg) in
  on_ready (listen_address h);
  wait h;
  0
