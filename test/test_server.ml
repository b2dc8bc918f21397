(* Tests for the solver service: the LRU result cache (promotion,
   entry/weight eviction, statistics), the wire protocol (deadline_s
   parsing, SRV error rendering, cached flag), and the server itself
   end to end — in-process Server.start / Client.call / Server.drain on
   TCP and Unix-domain endpoints, including the cache-hit bit-for-bit
   guarantee, concurrent clients, and the solve slot's FIFO order,
   backpressure and deadlines. *)

module Lru_cache = Mrm_server.Lru_cache
module Protocol = Mrm_server.Protocol
module Server = Mrm_server.Server
module Client = Mrm_server.Client
module Batch = Mrm_batch.Batch
module Json = Mrm_util.Json
module Diagnostics = Mrm_check.Diagnostics
module Metrics = Mrm_obs.Metrics

(* ------------------------------------------------------------------ *)
(* LRU cache *)

let test_lru_promotion () =
  let evicted = ref [] in
  let cache =
    Lru_cache.create ~max_entries:2
      ~on_evict:(fun k -> evicted := k :: !evicted)
      ~weight:(fun _ -> 1) ()
  in
  Lru_cache.add cache "a" 1;
  Lru_cache.add cache "b" 2;
  (* promote "a": the next eviction must take "b" *)
  Alcotest.(check (option int)) "hit a" (Some 1) (Lru_cache.find_opt cache "a");
  Lru_cache.add cache "c" 3;
  Alcotest.(check (list string)) "b evicted" [ "b" ] !evicted;
  Alcotest.(check bool) "a survives" true (Lru_cache.mem cache "a");
  Alcotest.(check bool) "c present" true (Lru_cache.mem cache "c");
  Alcotest.(check (option int)) "miss b" None (Lru_cache.find_opt cache "b");
  let stats = Lru_cache.stats cache in
  Alcotest.(check int) "hits" 1 stats.Lru_cache.hits;
  Alcotest.(check int) "misses" 1 stats.Lru_cache.misses;
  Alcotest.(check int) "evictions" 1 stats.Lru_cache.evictions

let test_lru_weight_eviction () =
  let cache =
    Lru_cache.create ~max_entries:100 ~max_weight:10
      ~weight:String.length ()
  in
  Lru_cache.add cache "a" "xxxx";
  (* 4 *)
  Lru_cache.add cache "b" "yyyy";
  (* 8 *)
  Alcotest.(check int) "weight before" 8 (Lru_cache.total_weight cache);
  Lru_cache.add cache "c" "zzzz";
  (* 12 > 10: evict LRU "a" *)
  Alcotest.(check int) "weight after" 8 (Lru_cache.total_weight cache);
  Alcotest.(check bool) "a evicted by weight" false (Lru_cache.mem cache "a");
  (* a value heavier than the whole cache is never stored *)
  Lru_cache.add cache "huge" (String.make 11 'h');
  Alcotest.(check bool) "oversized never stored" false
    (Lru_cache.mem cache "huge");
  Alcotest.(check int) "length" 2 (Lru_cache.length cache)

let test_lru_replace_and_clear () =
  let cache = Lru_cache.create ~max_entries:2 ~weight:(fun _ -> 1) () in
  Lru_cache.add cache "a" 1;
  Lru_cache.add cache "b" 2;
  (* replacing promotes: "a" becomes MRU, so adding "c" evicts "b" *)
  Lru_cache.add cache "a" 10;
  Alcotest.(check int) "replace keeps length" 2 (Lru_cache.length cache);
  Lru_cache.add cache "c" 3;
  Alcotest.(check (option int))
    "replaced value" (Some 10)
    (Lru_cache.find_opt cache "a");
  Alcotest.(check bool) "b evicted after replace-promote" false
    (Lru_cache.mem cache "b");
  Lru_cache.clear cache;
  Alcotest.(check int) "cleared" 0 (Lru_cache.length cache);
  Alcotest.(check int) "cleared weight" 0 (Lru_cache.total_weight cache)

let test_lru_oversize_replacement () =
  (* Replacing a key with a value heavier than the whole cache drops
     that key alone — the other entries stay. *)
  let evicted = ref [] in
  let cache =
    Lru_cache.create ~max_entries:10 ~max_weight:10
      ~on_evict:(fun k -> evicted := k :: !evicted)
      ~weight:String.length ()
  in
  Lru_cache.add cache "a" "aaa";
  Lru_cache.add cache "b" "bbb";
  Lru_cache.add cache "c" "cc";
  Lru_cache.add cache "b" (String.make 11 'B');
  Alcotest.(check (list string)) "only b evicted" [ "b" ] !evicted;
  Alcotest.(check (option string)) "a survives" (Some "aaa")
    (Lru_cache.find_opt cache "a");
  Alcotest.(check (option string)) "c survives" (Some "cc")
    (Lru_cache.find_opt cache "c");
  Alcotest.(check bool) "b gone" false (Lru_cache.mem cache "b");
  Alcotest.(check int) "weight = a + c" 5 (Lru_cache.total_weight cache);
  Alcotest.(check int) "one eviction counted" 1
    (Lru_cache.stats cache).Lru_cache.evictions

let test_lru_invalid_caps () =
  List.iter
    (fun f ->
      match f () with
      | (_ : int Lru_cache.t) ->
          Alcotest.fail "cap < 1 must raise Invalid_argument"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> Lru_cache.create ~max_entries:0 ~weight:(fun _ -> 1) ());
      (fun () -> Lru_cache.create ~max_weight:0 ~weight:(fun _ -> 1) ());
    ]

(* The cache is shared by every connection-handler thread of the
   server: hammer one instance from several threads with overlapping
   deterministic key sets and check that the mutex keeps the caps and
   the statistics exact — no lost hit counts, no double evictions, no
   excursion above the entry or weight cap at any observable moment. *)
let test_lru_concurrent () =
  let max_entries = 32 and max_weight = 64 in
  let evict_calls = Atomic.make 0 in
  let cache =
    Lru_cache.create ~max_entries ~max_weight
      ~on_evict:(fun _ -> Atomic.incr evict_calls)
      ~weight:(fun _ -> 2) ()
  in
  let violation = Atomic.make false in
  let observe () =
    if
      Lru_cache.length cache > max_entries
      || Lru_cache.total_weight cache > max_weight
    then Atomic.set violation true
  in
  let threads = 4 and ops = 2000 in
  let hits = Array.make threads 0 in
  let misses = Array.make threads 0 in
  let worker t () =
    for i = 0 to ops - 1 do
      (* overlapping key ranges so threads contend on the same entries *)
      let k = Printf.sprintf "k%d" ((i * (t + 1)) mod 48) in
      if i mod 2 = 0 then Lru_cache.add cache k i
      else begin
        match Lru_cache.find_opt cache k with
        | Some _ -> hits.(t) <- hits.(t) + 1
        | None -> misses.(t) <- misses.(t) + 1
      end;
      if i mod 64 = 0 then observe ()
    done
  in
  let sampler_stop = Atomic.make false in
  let sampler =
    Thread.create
      (fun () ->
        while not (Atomic.get sampler_stop) do
          observe ();
          Thread.yield ()
        done)
      ()
  in
  let workers = List.init threads (fun t -> Thread.create (worker t) ()) in
  List.iter Thread.join workers;
  Atomic.set sampler_stop true;
  Thread.join sampler;
  Alcotest.(check bool) "caps never exceeded" false (Atomic.get violation);
  let stats = Lru_cache.stats cache in
  let total array = Array.fold_left ( + ) 0 array in
  Alcotest.(check int) "every hit counted once" (total hits)
    stats.Lru_cache.hits;
  Alcotest.(check int) "every miss counted once" (total misses)
    stats.Lru_cache.misses;
  Alcotest.(check int) "no double (or lost) evictions"
    (Atomic.get evict_calls) stats.Lru_cache.evictions;
  Alcotest.(check bool) "entry cap holds at rest" true
    (Lru_cache.length cache <= max_entries);
  Alcotest.(check bool) "weight cap holds at rest" true
    (Lru_cache.total_weight cache <= max_weight)

(* ------------------------------------------------------------------ *)
(* Wire protocol *)

let job_line ?(id = "j1") ?(t = 1.) ?extra () =
  Printf.sprintf
    "{\"id\":\"%s\",\"model\":\"onoff\",\"sigma2\":1,\"size\":4,\"t\":%g,\"order\":2%s}"
    id t
    (match extra with None -> "" | Some e -> "," ^ e)

let test_protocol_deadline_parsing () =
  let now = 1000. in
  (* no deadline *)
  (match Protocol.parse_request ~now ~default_id:"d" (job_line ()) with
  | Ok req ->
      Alcotest.(check (option (float 0.))) "no deadline" None
        req.Protocol.expires;
      Alcotest.(check string) "digest is the cache key"
        (Batch.digest req.Protocol.job)
        req.Protocol.digest
  | Error e -> Alcotest.failf "plain job rejected: %s" e);
  (* deadline_s anchored at [now] *)
  (match
     Protocol.parse_request ~now ~default_id:"d"
       (job_line ~extra:"\"deadline_s\":2.5" ())
   with
  | Ok req ->
      Alcotest.(check (option (float 1e-9))) "expires = now + s"
        (Some 1002.5) req.Protocol.expires
  | Error e -> Alcotest.failf "deadline job rejected: %s" e);
  (* bad deadlines are SRV001 material *)
  List.iter
    (fun bad ->
      match
        Protocol.parse_request ~now ~default_id:"d"
          (job_line ~extra:(Printf.sprintf "\"deadline_s\":%s" bad) ())
      with
      | Ok _ -> Alcotest.failf "deadline_s %s must be rejected" bad
      | Error e ->
          if not (String.length e > 0) then Alcotest.fail "empty error")
    [ "0"; "-1"; "\"soon\"" ];
  (* an out-of-domain built-in (negative variance) is SRV001 material,
     returned as an error rather than raised into the handler thread *)
  match
    Protocol.parse_request ~now ~default_id:"d"
      "{\"id\":\"bad\",\"model\":\"onoff\",\"sigma2\":-5,\"size\":8,\"t\":0.5}"
  with
  | Ok _ -> Alcotest.fail "negative variance must be rejected"
  | Error e ->
      if not (String.length e > 0) then Alcotest.fail "empty error"
  | exception Invalid_argument msg ->
      Alcotest.failf "builder exception escaped parse_request: %s" msg

let test_protocol_responses () =
  let job =
    match
      Protocol.parse_request ~now:0. ~default_id:"d" (job_line ~id:"r1" ())
    with
    | Ok req -> req.Protocol.job
    | Error e -> Alcotest.failf "job: %s" e
  in
  let outcome = (Batch.run [| job |]).(0) in
  let fresh = Json.parse_exn (Protocol.response_of_outcome ~cached:false outcome) in
  let hit = Json.parse_exn (Protocol.response_of_outcome ~cached:true outcome) in
  Alcotest.(check (option string)) "status ok" (Some "ok")
    (Protocol.response_status fresh);
  Alcotest.(check bool) "fresh not cached" false
    (Protocol.response_cached fresh);
  Alcotest.(check bool) "hit cached" true (Protocol.response_cached hit);
  (* the cached flag is the only difference *)
  let strip_cached = function
    | Json.Obj fields ->
        Json.Obj (List.filter (fun (k, _) -> k <> "cached") fields)
    | other -> other
  in
  Alcotest.(check string) "hit is the stored outcome bit for bit"
    (Json.to_string (strip_cached fresh))
    (Json.to_string (strip_cached hit))

(* A cache hit splices the requester's id into the response bytes
   stored at insert; that must equal a fresh encode of the outcome
   under the new id, byte for byte, whatever the id holds. *)
let id_gen =
  QCheck2.Gen.(
    map (String.concat "")
      (list_size (int_range 0 8)
         (oneof
            [
              map (String.make 1) char;
              oneofl
                [ "\""; "\\"; "\n"; "\r"; "\t"; "\b"; "\012"; "\000"; "\031";
                  "\127"; "\195\169"; "\226\134\146"; "\240\159\152\128";
                  "req-7" ];
            ])))

let outcome_gen =
  QCheck2.Gen.(
    let number = oneof [ float; oneofl [ 0.; -0.; 1e-300; nan; infinity ] ] in
    let numbers = array_size (int_range 0 6) number in
    let points =
      map
        (fun points -> Batch.Points points)
        (array_size (int_range 0 4)
           (map3
              (fun time values iterations -> { Batch.time; values; iterations })
              number numbers
              (option (int_range 0 100_000))))
    in
    let density =
      let* marginal = numbers in
      let* mean_level = number and* reward_rate = number and* tau = number in
      let* cr_iterations = int_range 0 50 and* residual = number in
      let* stationary_warnings = list_size (int_range 0 2) id_gen in
      return
        (Batch.Density
           { Batch.marginal; mean_level; reward_rate; tau; cr_iterations;
             residual; stationary_warnings })
    in
    let* id = id_gen and* duplicate_of = option id_gen in
    let* digest = map Digest.to_hex (map Digest.string string) in
    let* elapsed = number and* solution = oneof [ points; density ] in
    return
      { Batch.id; digest; duplicate_of; elapsed; result = Ok solution })

let prop_cached_response_matches_encode =
  QCheck2.Test.make ~count:300
    ~name:"cached_response ~id (cached_body o) = fresh encode under id"
    ~print:(fun (o, id) ->
      Printf.sprintf "id %S, outcome %s" id
        (Protocol.response_of_outcome ~cached:true o))
    QCheck2.Gen.(pair outcome_gen id_gen)
    (fun (o, id) ->
      String.equal
        (Protocol.cached_response ~id (Protocol.cached_body o))
        (Protocol.response_of_outcome ~cached:true { o with Batch.id = id }))

let test_protocol_error_response () =
  let diagnostics =
    [ Diagnostics.error ~code:"MRM004" "initial distribution does not sum to 1" ]
  in
  let line =
    Protocol.error_response ~id:"bad-1" ~code:"SRV005" ~diagnostics
      "model failed validation"
  in
  let json = Json.parse_exn line in
  Alcotest.(check (option string)) "status" (Some "error")
    (Protocol.response_status json);
  Alcotest.(check (option string)) "code" (Some "SRV005")
    (Option.bind (Json.member "code" json) Json.to_str);
  Alcotest.(check (option string)) "id" (Some "bad-1")
    (Option.bind (Json.member "id" json) Json.to_str);
  Alcotest.(check bool) "diagnostics embedded" true
    (Json.member "diagnostics" json <> None);
  (* every SRV code the server can emit is registered *)
  Alcotest.(check (list string)) "error table"
    [ "SRV001"; "SRV002"; "SRV003"; "SRV004"; "SRV005"; "SRV006" ]
    (List.map fst Protocol.error_table)

let test_protocol_validate_clean_model () =
  match Protocol.parse_request ~now:0. ~default_id:"d" (job_line ()) with
  | Error e -> Alcotest.failf "job: %s" e
  | Ok req ->
      Alcotest.(check (list string)) "built-in model validates" []
        (Diagnostics.codes (Protocol.validate req.Protocol.job))

(* ------------------------------------------------------------------ *)
(* Server end to end (in-process) *)

let with_input_lines lines f =
  let path = Filename.temp_file "mrm2_server_in" ".jsonl" in
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic))

let with_server config f =
  let handle = Server.start config in
  Fun.protect
    ~finally:(fun () ->
      Server.drain handle;
      Server.wait handle)
    (fun () -> f handle)

let tcp_endpoint handle =
  match Server.listen_address handle with
  | Unix.ADDR_INET (_, port) -> `Tcp ("127.0.0.1", port)
  | Unix.ADDR_UNIX path -> `Unix path

(* The raw hit line a fresh response line must come back as: the same
   bytes with only the requester's id and the cached flag changed. *)
let as_hit ~fresh_id ~id fresh =
  let prefix = Printf.sprintf "{\"id\":%S," fresh_id
  and suffix = ",\"cached\":false}" in
  let n = String.length fresh
  and p = String.length prefix
  and s = String.length suffix in
  if
    n < p + s
    || String.sub fresh 0 p <> prefix
    || String.sub fresh (n - s) s <> suffix
  then Alcotest.failf "unexpected fresh line %s" fresh
  else
    Printf.sprintf "{\"id\":%S,%s,\"cached\":true}" id
      (String.sub fresh p (n - p - s))

let test_server_cache_and_deadline_tcp () =
  let config = Server.default_config (`Tcp ("127.0.0.1", 0)) in
  with_server config @@ fun handle ->
  let responses = ref [] in
  let summary =
    with_input_lines
      [
        job_line ~id:"first" ();
        job_line ~id:"again" ();
        (* same digest, new id *)
        job_line ~id:"late" ~extra:"\"deadline_s\":1e-9" ();
      ]
      (fun ic ->
        Client.call (tcp_endpoint handle) ~input:ic ~on_response:(fun l ->
            responses := l :: !responses))
  in
  Alcotest.(check int) "sent" 3 summary.Client.sent;
  Alcotest.(check int) "one cache hit" 1 summary.Client.cache_hits;
  Alcotest.(check int) "deadline rejected" 1 summary.Client.errors;
  match List.rev !responses with
  | [ fresh; hit; late ] ->
      Alcotest.(check (option string)) "fresh ok" (Some "ok")
        (Protocol.response_status (Json.parse_exn fresh));
      Alcotest.(check string) "cache hit bit-for-bit"
        (as_hit ~fresh_id:"first" ~id:"again" fresh)
        hit;
      (* expired even though its digest is cached *)
      Alcotest.(check (option string)) "expired deadline -> SRV003"
        (Some "SRV003")
        (Option.bind (Json.member "code" (Json.parse_exn late)) Json.to_str)
  | other -> Alcotest.failf "expected 3 responses, got %d" (List.length other)

let test_server_malformed_line_keeps_connection () =
  let config = Server.default_config (`Tcp ("127.0.0.1", 0)) in
  with_server config @@ fun handle ->
  let responses = ref [] in
  let summary =
    with_input_lines
      [ "this is not json"; job_line ~id:"after-garbage" () ]
      (fun ic ->
        Client.call (tcp_endpoint handle) ~input:ic ~on_response:(fun l ->
            responses := l :: !responses))
  in
  Alcotest.(check int) "both answered" 2 summary.Client.sent;
  Alcotest.(check int) "one error" 1 summary.Client.errors;
  match List.rev_map Json.parse_exn !responses with
  | [ bad; good ] ->
      Alcotest.(check (option string)) "SRV001" (Some "SRV001")
        (Option.bind (Json.member "code" bad) Json.to_str);
      Alcotest.(check (option string)) "connection survives" (Some "ok")
        (Protocol.response_status good)
  | _ -> Alcotest.fail "expected 2 responses"

(* A built-in out of its domain is SRV001 carrying the constructor's
   message, and the connection stays open. *)
let test_server_out_of_domain_builtin () =
  let config = Server.default_config (`Tcp ("127.0.0.1", 0)) in
  with_server config @@ fun handle ->
  let responses = ref [] in
  let _summary =
    with_input_lines
      [
        {|{"model":"onoff","size":0,"t":1}|};
        {|{"model":"onoff","sigma2":1e308,"t":1}|};
      ]
      (fun ic ->
        Client.call (tcp_endpoint handle) ~input:ic ~on_response:(fun l ->
            responses := l :: !responses))
  in
  Alcotest.(check (list string))
    "SRV001 responses"
    [
      Protocol.error_response ~id:"req-1" ~code:"SRV001"
        "Onoff: sources must be positive";
      Protocol.error_response ~id:"req-2" ~code:"SRV001"
        "Model.make: variance inf at state 2";
    ]
    (List.rev !responses)

(* An SRV001 reply to a line that parses as JSON carries the line's own
   string id; a line without one keeps the connection's line number. *)
let test_server_srv001_keeps_id () =
  let config = Server.default_config (`Tcp ("127.0.0.1", 0)) in
  with_server config @@ fun handle ->
  let responses = ref [] in
  let _summary =
    with_input_lines
      [
        {|{"id":"g","file":"fixtures/broken_rate.mrm","t":1}|};
        {|{"id":"e","model":"onoff","size":8,"t":1,"eps":1e999}|};
        {|{"id":7,"model":"onoff","size":0,"t":1}|};
      ]
      (fun ic ->
        Client.call (tcp_endpoint handle) ~input:ic ~on_response:(fun l ->
            responses := Json.parse_exn l :: !responses))
  in
  Alcotest.(check (list (pair (option string) (option string))))
    "ids and codes"
    [
      (Some "g", Some "SRV001"); (Some "e", Some "SRV001");
      (Some "req-3", Some "SRV001");
    ]
    (List.rev_map
       (fun r ->
         ( Option.bind (Json.member "id" r) Json.to_str,
           Option.bind (Json.member "code" r) Json.to_str ))
       !responses)

let test_server_unix_socket_lifecycle () =
  let path = Filename.temp_file "mrm2_serve" ".sock" in
  Sys.remove path;
  let config = Server.default_config (`Unix path) in
  let handle = Server.start config in
  Alcotest.(check bool) "socket bound" true (Sys.file_exists path);
  let summary =
    with_input_lines
      [ job_line ~id:"u1" () ]
      (fun ic ->
        Client.call (`Unix path) ~input:ic ~on_response:(fun _ -> ()))
  in
  Alcotest.(check int) "answered over unix socket" 1 summary.Client.sent;
  Alcotest.(check int) "no errors" 0 summary.Client.errors;
  Server.drain handle;
  Server.drain handle;
  (* idempotent *)
  Server.wait handle;
  Alcotest.(check bool) "socket path unlinked on drain" false
    (Sys.file_exists path)

let test_server_concurrent_clients () =
  let config = Server.default_config (`Tcp ("127.0.0.1", 0)) in
  with_server config @@ fun handle ->
  let endpoint = tcp_endpoint handle in
  let lines i =
    [ job_line ~id:(Printf.sprintf "c%d-a" i) ~t:(0.5 +. float_of_int i) ();
      job_line ~id:(Printf.sprintf "c%d-b" i) ~t:(1.5 +. float_of_int i) () ]
  in
  let run i =
    let responses = ref [] in
    let summary =
      with_input_lines (lines i) (fun ic ->
          Client.call endpoint ~input:ic ~on_response:(fun l ->
              responses := l :: !responses))
    in
    (summary, List.rev !responses)
  in
  let results = Array.make 2 None in
  let threads =
    List.init 2 (fun i ->
        Thread.create (fun () -> results.(i) <- Some (run i)) ())
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun i result ->
      match result with
      | None -> Alcotest.failf "client %d never finished" i
      | Some (summary, responses) ->
          Alcotest.(check int)
            (Printf.sprintf "client %d: complete JSONL" i)
            2 summary.Client.sent;
          Alcotest.(check int)
            (Printf.sprintf "client %d: no errors" i)
            0 summary.Client.errors;
          List.iteri
            (fun j line ->
              let json = Json.parse_exn line in
              Alcotest.(check (option string))
                (Printf.sprintf "client %d response %d well-formed" i j)
                (Some "ok")
                (Protocol.response_status json);
              Alcotest.(check (option string))
                (Printf.sprintf "client %d response %d in order" i j)
                (Some
                   (Printf.sprintf "c%d-%s" i (if j = 0 then "a" else "b")))
                (Option.bind (Json.member "id" json) Json.to_str))
            responses)
    results

(* The solve that holds the slot while the slot tests queue work behind
   it, and about how many seconds it takes: an onoff job whose horizon
   is scaled from an in-process solve at t = 1 so that it takes a second
   or more however fast the solver is. The test's own steps take well
   under that. Solve time grows about linearly with the horizon, a
   little less (G = qt + O(sqrt qt)). Measured once, on first use. *)
let slow_job =
  lazy
    (let line t =
       Printf.sprintf
         "{\"id\":\"slow\",\"model\":\"onoff\",\"sigma2\":1,\"size\":3000,\
          \"t\":%g,\"order\":3}"
         t
     in
     match Protocol.parse_request ~now:0. ~default_id:"slow" (line 1.) with
     | Error msg -> Alcotest.fail msg
     | Ok request ->
         let once = (Batch.run [| request.Protocol.job |]).(0).Batch.elapsed in
         let scale = Float.max 1. (Float.ceil (1. /. once)) in
         (line scale, scale *. once))

let test_server_hit_bypasses_queue () =
  (* A slow solve holds the solve slot and the one waiting place is
     taken by a second solve: a warm key is still answered from the
     cache, before the slow solve's reply, instead of being refused with
     SRV002. The test thread alone drives all three connections. *)
  let config =
    { (Server.default_config (`Tcp ("127.0.0.1", 0))) with
      Server.queue_capacity = 1 }
  in
  let hits = Metrics.counter "server.cache_hits"
  and misses = Metrics.counter "server.cache_misses"
  and queue_peak = Metrics.gauge "server.queue_peak" in
  let hits0 = Metrics.count hits and misses0 = Metrics.count misses in
  with_server config @@ fun handle ->
  let module Wire = Mrm_server.Wire in
  let connect () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Server.listen_address handle);
    Wire.of_fd fd
  in
  let slow = connect () and queued = connect () and c = connect () in
  Fun.protect ~finally:(fun () -> List.iter Wire.close [ slow; queued; c ])
  @@ fun () ->
  let exchange conn line =
    Wire.write_line conn line;
    Wire.read_line conn
  in
  let wait_until what ready =
    let deadline = Unix.gettimeofday () +. 30. in
    while not (ready ()) do
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "timed out waiting for %s" what;
      Thread.delay 0.001
    done
  in
  let slow_line, _ = Lazy.force slow_job in
  let warm = exchange c (job_line ~id:"warm" ()) in
  Wire.write_line slow slow_line;
  (* A miss is counted as its solve starts. *)
  wait_until "the slow solve to start" (fun () ->
      Metrics.count misses >= misses0 + 2);
  Metrics.set queue_peak 0.;
  Wire.write_line queued (job_line ~id:"queued" ~t:2. ());
  wait_until "the second solve to be queued" (fun () ->
      Metrics.gauge_value queue_peak >= 1.);
  let hit = exchange c (job_line ~id:"hit" ()) in
  let slow_replied, _, _ = Unix.select [ Wire.fd slow ] [] [] 0. in
  Alcotest.(check string) "warm key answered from the cache"
    (as_hit ~fresh_id:"warm" ~id:"hit" warm)
    hit;
  Alcotest.(check bool) "hit answered before the slow solve's reply" true
    (slow_replied = []);
  List.iter
    (fun (name, conn) ->
      Alcotest.(check (option string))
        (name ^ " solved") (Some "ok")
        (Protocol.response_status (Json.parse_exn (Wire.read_line conn))))
    [ ("slow", slow); ("queued", queued) ];
  Alcotest.(check int) "one hit" 1 (Metrics.count hits - hits0);
  Alcotest.(check int) "three solves" 3 (Metrics.count misses - misses0)

let test_server_slot_order_and_backpressure () =
  (* A slow solve holds the slot and three misses wait behind it, sent
     one at a time: C with a deadline, then A and B, which share a
     digest. A fourth miss D is refused at once. Then C's deadline has
     passed by its turn, A solves, and B is answered from A's bytes (so
     A ran first). C's deadline is a quarter of the time the slow solve
     still has to run when C is sent, so it passes while the slot is
     held however fast the solver is. *)
  let slow_line, hold = Lazy.force slow_job in
  let config =
    { (Server.default_config (`Tcp ("127.0.0.1", 0))) with
      Server.queue_capacity = 3 }
  in
  let misses = Metrics.counter "server.cache_misses"
  and rejected = Metrics.counter "server.rejected"
  and timeouts = Metrics.counter "server.timeouts"
  and queue_peak = Metrics.gauge "server.queue_peak" in
  let misses0 = Metrics.count misses
  and rejected0 = Metrics.count rejected
  and timeouts0 = Metrics.count timeouts in
  with_server config @@ fun handle ->
  let module Wire = Mrm_server.Wire in
  let connect () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Server.listen_address handle);
    Wire.of_fd fd
  in
  let slow = connect () and a = connect () and b = connect ()
  and c = connect () and d = connect () in
  Fun.protect ~finally:(fun () -> List.iter Wire.close [ slow; a; b; c; d ])
  @@ fun () ->
  let wait_until what ready =
    let deadline = Unix.gettimeofday () +. 30. in
    while not (ready ()) do
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "timed out waiting for %s" what;
      Thread.delay 0.001
    done
  in
  let started = Unix.gettimeofday () in
  Wire.write_line slow slow_line;
  wait_until "the slow solve to start" (fun () ->
      Metrics.count misses >= misses0 + 1);
  Metrics.set queue_peak 0.;
  let left = hold -. (Unix.gettimeofday () -. started) in
  if left <= 0. then
    Alcotest.failf "the slow solve (%.3f s in process) ended before C was sent"
      hold;
  let deadline = Printf.sprintf "\"deadline_s\":%.17g" (left /. 4.) in
  List.iteri
    (fun k (name, conn, line) ->
      Wire.write_line conn line;
      wait_until (name ^ " to wait for the slot") (fun () ->
          Metrics.gauge_value queue_peak >= float_of_int (k + 1)))
    [ ("C", c, job_line ~id:"C" ~t:2. ~extra:deadline ());
      ("A", a, job_line ~id:"A" ());
      ("B", b, job_line ~id:"B" ()) ];
  Wire.write_line d (job_line ~id:"D" ~t:3. ());
  let refused = Wire.read_line d in
  let slow_replied, _, _ = Unix.select [ Wire.fd slow ] [] [] 0. in
  Alcotest.(check bool) "D answered while the slow solve runs" true
    (slow_replied = []);
  Alcotest.(check string) "D refused: queue full"
    (Protocol.error_response ~id:"D" ~code:"SRV002"
       "request queue full (capacity 3) — retry later")
    refused;
  Alcotest.(check int) "one rejection" 1 (Metrics.count rejected - rejected0);
  Alcotest.(check (option string)) "slow solved" (Some "ok")
    (Protocol.response_status (Json.parse_exn (Wire.read_line slow)));
  Alcotest.(check string) "C expired while waiting"
    (Protocol.error_response ~id:"C" ~code:"SRV003"
       "deadline exceeded before the solve started")
    (Wire.read_line c);
  let fresh = Wire.read_line a in
  Alcotest.(check (option string)) "A solved" (Some "ok")
    (Protocol.response_status (Json.parse_exn fresh));
  Alcotest.(check string) "B answered from A's bytes"
    (as_hit ~fresh_id:"A" ~id:"B" fresh)
    (Wire.read_line b);
  Alcotest.(check int) "one timeout" 1 (Metrics.count timeouts - timeouts0)

(* ------------------------------------------------------------------ *)
(* Stale Unix socket handling (Server.bind_endpoint rules) *)

let test_stale_socket_unlinked () =
  let path = Filename.temp_file "mrm2_stale" ".sock" in
  Sys.remove path;
  (* leave a socket file behind with no listener, as a crash would *)
  let orphan = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind orphan (Unix.ADDR_UNIX path);
  Unix.close orphan;
  Alcotest.(check bool) "stale file on disk" true (Sys.file_exists path);
  let config = Server.default_config (`Unix path) in
  let handle = Server.start config in
  Fun.protect
    ~finally:(fun () ->
      Server.drain handle;
      Server.wait handle)
    (fun () ->
      let summary =
        with_input_lines
          [ job_line ~id:"after-stale" () ]
          (fun ic ->
            Client.call (`Unix path) ~input:ic ~on_response:(fun _ -> ()))
      in
      Alcotest.(check int) "server answers over reclaimed path" 1
        summary.Client.sent;
      Alcotest.(check int) "no errors" 0 summary.Client.errors)

let test_live_socket_refused () =
  let path = Filename.temp_file "mrm2_live" ".sock" in
  Sys.remove path;
  let first = Server.start (Server.default_config (`Unix path)) in
  Fun.protect
    ~finally:(fun () ->
      Server.drain first;
      Server.wait first)
    (fun () ->
      (* a second server must NOT clobber the live listener *)
      match Server.start (Server.default_config (`Unix path)) with
      | (_ : Server.handle) ->
          Alcotest.fail "second bind over a live listener must raise"
      | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
          (* and the first server must still be serving *)
          let summary =
            with_input_lines
              [ job_line ~id:"still-alive" () ]
              (fun ic ->
                Client.call (`Unix path) ~input:ic ~on_response:(fun _ -> ()))
          in
          Alcotest.(check int) "original listener intact" 1
            summary.Client.sent)

let test_non_socket_path_refused () =
  let path = Filename.temp_file "mrm2_notasock" ".txt" in
  (* a regular file: never unlink someone's data *)
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match Server.start (Server.default_config (`Unix path)) with
      | (_ : Server.handle) ->
          Alcotest.fail "binding over a regular file must raise"
      | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
          Alcotest.(check bool) "file untouched" true (Sys.file_exists path))

(* ------------------------------------------------------------------ *)
(* Client retry/backoff *)

let test_client_retries_exhausted () =
  let t0 = Unix.gettimeofday () in
  match
    with_input_lines
      [ job_line ~id:"nobody-home" () ]
      (fun ic ->
        Client.call ~retries:2 (`Tcp ("127.0.0.1", 1)) ~input:ic
          ~on_response:(fun _ -> ()))
  with
  | (_ : Client.summary) -> Alcotest.fail "unreachable endpoint must raise"
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
      (* two backoff sleeps happened: >= 0.5 * (0.05 + 0.1) *)
      Alcotest.(check bool) "backoff waited" true
        (Unix.gettimeofday () -. t0 >= 0.07)

let test_client_retry_until_server_appears () =
  let path = Filename.temp_file "mrm2_lateserve" ".sock" in
  Sys.remove path;
  let handle_cell = ref None in
  let starter =
    Thread.create
      (fun () ->
        Thread.delay 0.15;
        handle_cell := Some (Server.start (Server.default_config (`Unix path))))
      ()
  in
  let summary =
    Fun.protect
      ~finally:(fun () ->
        Thread.join starter;
        match !handle_cell with
        | Some handle ->
            Server.drain handle;
            Server.wait handle
        | None -> ())
      (fun () ->
        with_input_lines
          [ job_line ~id:"patient" () ]
          (fun ic ->
            (* the socket does not exist yet: ENOENT, retried with
               backoff until the server comes up *)
            Client.call ~retries:8 (`Unix path) ~input:ic
              ~on_response:(fun _ -> ())))
  in
  Alcotest.(check int) "answered once the server appeared" 1
    summary.Client.sent;
  Alcotest.(check int) "no errors" 0 summary.Client.errors;
  Alcotest.(check bool) "at least one retry recorded" true
    (summary.Client.retries >= 1)

(* ------------------------------------------------------------------ *)
(* Shared wire helper (EINTR-retrying line I/O)                         *)

module Wire = Mrm_server.Wire
module Listener = Mrm_server.Listener
module Router = Mrm_cluster.Router

(* Run [f] while an interval timer delivers SIGALRM every few
   milliseconds to a no-op handler. OCaml installs handlers without
   SA_RESTART, so any blocking read/write in [f] keeps getting
   interrupted with EINTR — exactly what the systhreads tick signal
   does in production. *)
let with_signal_storm f =
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  let stop () =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = 0.; it_value = 0. });
    Sys.set_signal Sys.sigalrm previous
  in
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = 0.005; it_value = 0.005 });
  Fun.protect ~finally:stop f

let test_wire_read_survives_eintr () =
  (* Regression: a blocked read must ride out EINTR instead of treating
     it as a disconnect (the old channel-based server/client I/O
     surfaced it as Sys_error and dropped the connection). The writer
     delays long enough for dozens of SIGALRMs to interrupt the read. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let reader = Wire.of_fd a in
  Fun.protect
    ~finally:(fun () ->
      Wire.close reader;
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      with_signal_storm (fun () ->
          let writer =
            Thread.create
              (fun () ->
                Thread.delay 0.15;
                let payload = Bytes.of_string "delayed response\n" in
                let len = Bytes.length payload in
                let rec push off =
                  if off < len then
                    match Unix.single_write b payload off (len - off) with
                    | n -> push (off + n)
                    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                        push off
                in
                push 0)
              ()
          in
          let line = Wire.read_line reader in
          Thread.join writer;
          Alcotest.(check string)
            "line received through the storm" "delayed response" line))

let test_wire_write_survives_eintr () =
  (* Symmetric regression for the send side: pump enough data through a
     socketpair that writes block on the kernel buffer while the drainer
     is deliberately slow and signals keep firing. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer = Wire.of_fd a in
  let reader = Wire.of_fd b in
  Fun.protect
    ~finally:(fun () ->
      Wire.close writer;
      Wire.close reader)
    (fun () ->
      with_signal_storm (fun () ->
          let big = String.make 400_000 'x' in
          let lines = 4 in
          let got = ref 0 in
          let drainer =
            Thread.create
              (fun () ->
                for _ = 1 to lines do
                  Thread.delay 0.02;
                  if Wire.read_line reader = big then incr got
                done)
              ()
          in
          for _ = 1 to lines do
            Wire.write_line writer big
          done;
          Thread.join drainer;
          Alcotest.(check int) "all payloads crossed intact" lines !got))

let test_wire_residue_and_close () =
  (* Two lines arriving in one read are split via the residue buffer;
     EOF surfaces as Closed. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Wire.of_fd a in
  let payload = Bytes.of_string "first\nsecond\n" in
  ignore (Unix.write b payload 0 (Bytes.length payload));
  Unix.close b;
  Fun.protect
    ~finally:(fun () -> Wire.close conn)
    (fun () ->
      Alcotest.(check string) "first" "first" (Wire.read_line conn);
      Alcotest.(check string) "second" "second" (Wire.read_line conn);
      match Wire.read_line conn with
      | (_ : string) -> Alcotest.fail "EOF must raise Closed"
      | exception Wire.Closed -> ())

let test_wire_long_line_linear () =
  (* One 8 MB line written in 4 KB pieces, the last piece also carrying
     a second line: both come back exact, and reading is linear in the
     line length (the residue is scanned once, not per read). *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Wire.of_fd a in
  let long = String.init (8 * 1024 * 1024) (fun i -> Char.chr (97 + (i mod 26))) in
  let payload = Bytes.of_string (long ^ "\nsecond\n") in
  let piece = 4096 in
  Fun.protect
    ~finally:(fun () ->
      Wire.close conn;
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let writer =
        Thread.create
          (fun () ->
            let len = Bytes.length payload in
            let rec push off =
              if off < len then begin
                (* the final write holds the tail of the long line and
                   the whole second line *)
                let n = if len - off <= piece + 7 then len - off else piece in
                let rec put o stop =
                  if o < stop then put (o + Unix.single_write b payload o (stop - o)) stop
                in
                put off (off + n);
                push (off + n)
              end
            in
            push 0)
          ()
      in
      let t0 = Unix.gettimeofday () in
      let first = Wire.read_line conn in
      let second = Wire.read_line conn in
      let elapsed = Unix.gettimeofday () -. t0 in
      Thread.join writer;
      Alcotest.(check bool) "8 MB line exact" true (String.equal first long);
      Alcotest.(check string) "second line" "second" second;
      if elapsed >= 2. then
        Alcotest.failf "reading the 8 MB line took %.2f s" elapsed)

let test_wire_rcvtimeo_is_timeout () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float a Unix.SO_RCVTIMEO 0.05;
  let conn = Wire.of_fd a in
  Fun.protect
    ~finally:(fun () ->
      Wire.close conn;
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      match Wire.read_line conn with
      | (_ : string) -> Alcotest.fail "deadline must raise Timeout"
      | exception Wire.Timeout -> ())

(* A Router with one Server behind it, as an endpoint [f] can call. *)
let with_router_over_server f =
  with_server (Server.default_config (`Tcp ("127.0.0.1", 0))) (fun server ->
      let router =
        Router.start
          {
            (Router.default_config ~listen:(`Tcp ("127.0.0.1", 0))
               ~backends:[ ("r0", tcp_endpoint server) ])
            with
            Router.probe_interval = 60.;
          }
      in
      Fun.protect
        ~finally:(fun () ->
          Router.drain router;
          Router.wait router)
        (fun () ->
          match Router.listen_address router with
          | Unix.ADDR_INET (_, port) -> f (`Tcp ("127.0.0.1", port))
          | Unix.ADDR_UNIX path -> f (`Unix path)))

let test_session_survives_eintr () =
  (* End to end: a whole client session completes under the signal
     storm — no spurious Disconnected — against a bare server and
     against a router forwarding to one. *)
  List.iter
    (fun (target, with_endpoint) ->
      with_endpoint (fun endpoint ->
          with_signal_storm (fun () ->
              let jobs =
                List.init 5 (fun k -> job_line ~id:(string_of_int k) ())
              in
              let summary =
                with_input_lines jobs (fun ic ->
                    Client.call endpoint ~input:ic ~on_response:(fun _ -> ()))
              in
              Alcotest.(check int) (target ^ ": all answered") 5
                summary.Client.sent;
              Alcotest.(check int) (target ^ ": no errors") 0
                summary.Client.errors)))
    [
      ( "server",
        fun f ->
          with_server (Server.default_config (`Tcp ("127.0.0.1", 0)))
            (fun handle -> f (tcp_endpoint handle)) );
      ("router", with_router_over_server);
    ]

(* ------------------------------------------------------------------ *)
(* Listener                                                             *)

let test_listener_drain_closes_connections () =
  (* An idle connection open across the drain, and one that connects
     only after the stop flag is set, must both end in Closed (the late
     one is never served: the acceptor has stopped, and closing the
     listening socket resets it), and wait must return. *)
  let listener =
    Listener.start
      ~connections:(Mrm_obs.Metrics.counter "test.listener.connections")
      (`Tcp ("127.0.0.1", 0))
      (fun ~lineno line -> Printf.sprintf "%d:%s" lineno line)
  in
  let endpoint =
    match Listener.address listener with
    | Unix.ADDR_INET (_, port) -> `Tcp ("127.0.0.1", port)
    | Unix.ADDR_UNIX path -> `Unix path
  in
  let idle = Mrm_cluster.Wire.connect ~timeout:5. endpoint in
  Alcotest.(check string) "served before the drain" "1:ping"
    (match Mrm_cluster.Wire.exchange idle "ping" with
    | Ok r -> r
    | Error e -> Alcotest.failf "exchange: %s" e);
  Alcotest.(check bool) "first drain begins it" true (Listener.drain listener);
  Alcotest.(check bool) "drain is idempotent" false (Listener.drain listener);
  (* The listening socket is still open until wait, so the kernel
     completes this handshake. *)
  let late = Mrm_cluster.Wire.connect ~timeout:5. endpoint in
  let closed name conn =
    match Mrm_cluster.Wire.read_line conn with
    | (_ : string) -> Alcotest.failf "%s: expected Closed, got a line" name
    | exception Mrm_cluster.Wire.Closed -> ()
    | exception Mrm_cluster.Wire.Timeout ->
        Alcotest.failf "%s: still open after the drain" name
  in
  closed "idle connection" idle;
  Listener.wait listener;
  closed "late connection" late;
  Mrm_cluster.Wire.close idle;
  Mrm_cluster.Wire.close late

let () =
  Alcotest.run "server"
    [
      ( "lru-cache",
        [
          Alcotest.test_case "promotion + stats" `Quick test_lru_promotion;
          Alcotest.test_case "weight eviction" `Quick
            test_lru_weight_eviction;
          Alcotest.test_case "replace + clear" `Quick
            test_lru_replace_and_clear;
          Alcotest.test_case "oversize replacement drops one key" `Quick
            test_lru_oversize_replacement;
          Alcotest.test_case "invalid caps" `Quick test_lru_invalid_caps;
          Alcotest.test_case "concurrent hit/insert/evict" `Quick
            test_lru_concurrent;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "deadline_s parsing" `Quick
            test_protocol_deadline_parsing;
          Alcotest.test_case "cached flag" `Quick test_protocol_responses;
          QCheck_alcotest.to_alcotest prop_cached_response_matches_encode;
          Alcotest.test_case "error responses" `Quick
            test_protocol_error_response;
          Alcotest.test_case "validate clean model" `Quick
            test_protocol_validate_clean_model;
        ] );
      ( "server",
        [
          Alcotest.test_case "cache hit + deadline over TCP" `Quick
            test_server_cache_and_deadline_tcp;
          Alcotest.test_case "malformed line keeps connection" `Quick
            test_server_malformed_line_keeps_connection;
          Alcotest.test_case "out-of-domain built-in is SRV001" `Quick
            test_server_out_of_domain_builtin;
          Alcotest.test_case "unix socket lifecycle" `Quick
            test_server_unix_socket_lifecycle;
          Alcotest.test_case "concurrent clients" `Quick
            test_server_concurrent_clients;
          Alcotest.test_case "cache hit bypasses a full queue" `Quick
            test_server_hit_bypasses_queue;
          Alcotest.test_case "slot order, backpressure, deadline" `Quick
            test_server_slot_order_and_backpressure;
          Alcotest.test_case "stale socket reclaimed" `Quick
            test_stale_socket_unlinked;
          Alcotest.test_case "live socket refused" `Quick
            test_live_socket_refused;
          Alcotest.test_case "non-socket path refused" `Quick
            test_non_socket_path_refused;
          Alcotest.test_case "SRV001 keeps the request id" `Quick
            test_server_srv001_keeps_id;
        ] );
      ( "client",
        [
          Alcotest.test_case "retries exhausted" `Quick
            test_client_retries_exhausted;
          Alcotest.test_case "retry until server appears" `Quick
            test_client_retry_until_server_appears;
        ] );
      ( "wire",
        [
          Alcotest.test_case "read survives EINTR" `Quick
            test_wire_read_survives_eintr;
          Alcotest.test_case "write survives EINTR" `Quick
            test_wire_write_survives_eintr;
          Alcotest.test_case "residue buffer + Closed" `Quick
            test_wire_residue_and_close;
          Alcotest.test_case "8 MB line in linear time" `Quick
            test_wire_long_line_linear;
          Alcotest.test_case "SO_RCVTIMEO -> Timeout" `Quick
            test_wire_rcvtimeo_is_timeout;
          Alcotest.test_case "session survives EINTR" `Quick
            test_session_survives_eintr;
        ] );
      ( "listener",
        [
          Alcotest.test_case "drain closes idle and late connections" `Quick
            test_listener_drain_closes_connections;
        ] );
    ]
