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
  workers : int;
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
    workers = 1;
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
(* Requests in flight: a reply cell each handler blocks on *)

type reply = {
  rmutex : Mutex.t;
  rcond : Condition.t;
  mutable answer : string option;
}

type work = { request : Protocol.request; reply : reply }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let resolve reply response =
  with_lock reply.rmutex @@ fun () ->
  reply.answer <- Some response;
  Condition.signal reply.rcond

let await reply =
  with_lock reply.rmutex @@ fun () ->
  while Option.is_none reply.answer do
    Condition.wait reply.rcond reply.rmutex
  done;
  Option.get reply.answer

(* ------------------------------------------------------------------ *)
(* Handle *)

type handle = {
  listener : Listener.t;
  queue : work Rqueue.t;
  pool : Pool.t option;
  workers : Thread.t list;
}

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

(* Runs on a solver worker thread; everything here is sequential per
   worker, so the per-request span nests correctly (workers = 1) or at
   worst interleaves emission (workers > 1). *)
let serve_request ~cache ~pool (request : Protocol.request) =
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
    (* A duplicate may have been solved while this one sat in the queue. *)
    match Lru_cache.find_opt cache request.Protocol.digest with
    | Some body ->
        Trace.add_attr "cached" (Trace.Bool true);
        answer_hit ~id body
    | None ->
        Metrics.incr m_cache_misses;
        Trace.add_attr "cached" (Trace.Bool false);
        let outcome = (Batch.run ?pool [| job |]).(0) in
        (match outcome.Batch.result with
        | Ok _ ->
            Lru_cache.add cache request.Protocol.digest
              (Protocol.cached_body outcome);
            Metrics.set g_cache_entries
              (float_of_int (Lru_cache.length cache))
        | Error _ -> ());
        Protocol.response_of_outcome ~cached:false outcome

let worker_loop ~cache ~pool queue =
  let rec loop () =
    match Rqueue.pop queue with
    | None -> ()
    | Some { request; reply } ->
        resolve reply (serve_request ~cache ~pool request);
        loop ()
  in
  loop ()

(* Runs on the connection-handler thread for every request that is not
   a cache hit: validate, enqueue, block until the worker resolves the
   reply. *)
let enqueue cfg queue (request : Protocol.request) =
  let id = request.Protocol.job.Batch.id in
  match if cfg.validate then Protocol.validate request.Protocol.job else [] with
  | _ :: _ as report ->
      Metrics.incr m_validation_failures;
      Protocol.error_response ~id ~code:"SRV005" ~diagnostics:report
        (Printf.sprintf "model failed validation: %s"
           (String.concat ", " (Diagnostics.codes report)))
  | [] -> (
      let reply =
        { rmutex = Mutex.create (); rcond = Condition.create (); answer = None }
      in
      match Rqueue.push queue { request; reply } with
      | `Full ->
          Metrics.incr m_rejected;
          Protocol.error_response ~id ~code:"SRV002"
            (Printf.sprintf "request queue full (capacity %d) — retry later"
               (Rqueue.capacity queue))
      | `Closed ->
          Protocol.error_response ~id ~code:"SRV004"
            "server is draining and no longer accepts requests"
      | `Ok ->
          Metrics.observe_max g_queue_peak (float_of_int (Rqueue.length queue));
          await reply)

(* Runs on the connection-handler thread: parse, then answer an
   unexpired cache hit right here, skipping validation: only validated,
   solved jobs are cached, and the digest covers every input validation
   reads. The hit span is a root span, since the worker may be inside
   nested spans at the same time. *)
let process cfg ~cache queue ~lineno line =
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
      | None -> enqueue cfg queue request)

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let start (cfg : config) =
  if cfg.workers < 1 then
    invalid_arg (Printf.sprintf "Server.start: workers %d" cfg.workers);
  let queue = Rqueue.create ~capacity:cfg.queue_capacity in
  (* An entry weighs its stored response bytes. *)
  let cache =
    Lru_cache.create ~max_entries:cfg.cache_entries ~max_weight:cfg.cache_bytes
      ~on_evict:(fun _key -> Metrics.incr m_cache_evictions)
      ~weight:String.length ()
  in
  (* Bind before creating the pool, so a refused endpoint leaks no
     domains; a request accepted before the workers start just waits
     in the queue. *)
  let listener =
    Listener.start ~connections:m_connections cfg.endpoint
      (process cfg ~cache queue)
  in
  let pool =
    if cfg.pool_jobs > 1 then Some (Pool.create ~jobs:cfg.pool_jobs ())
    else None
  in
  let workers =
    List.init cfg.workers (fun _ ->
        Thread.create (fun () -> worker_loop ~cache ~pool queue) ())
  in
  { listener; queue; pool; workers }

let drain h = if Listener.drain h.listener then Metrics.incr m_drains

let wait h =
  (* Every accepted request is finished before the queue closes. *)
  Listener.wait h.listener;
  Rqueue.close h.queue;
  List.iter Thread.join h.workers;
  Option.iter Pool.shutdown h.pool

let run ?(on_ready = ignore) cfg =
  let h = Listener.with_shutdown_signals ~drain (fun () -> start cfg) in
  on_ready (listen_address h);
  wait h;
  0
