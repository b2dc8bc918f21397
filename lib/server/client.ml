module Json = Mrm_util.Json
module Rng = Mrm_util.Rng

type endpoint = Server.endpoint

exception Disconnected of string

let connect ?(timeout = 0.) endpoint =
  let fd =
    match (endpoint : endpoint) with
    | `Unix path ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try Unix.connect fd (Unix.ADDR_UNIX path)
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        fd
    | `Tcp (host, port) ->
        let addr =
          if host = "" || host = "localhost" then Unix.inet_addr_loopback
          else begin
            match Unix.inet_addr_of_string host with
            | addr -> addr
            | exception Failure _ ->
                (Unix.gethostbyname host).Unix.h_addr_list.(0)
          end
        in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try Unix.connect fd (Unix.ADDR_INET (addr, port))
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        fd
  in
  if timeout > 0. then begin
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout
  end;
  fd

type summary = {
  sent : int;
  errors : int;
  srv_errors : int;
  cache_hits : int;
  retries : int;
}

let empty_summary =
  { sent = 0; errors = 0; srv_errors = 0; cache_hits = 0; retries = 0 }

(* Classify one response line into the summary. A response that is not
   valid JSON counts as an error (the wire guarantees one JSON object
   per line); a structured service failure additionally counts as an
   SRV error — the front end turns those into a distinct exit code. *)
let absorb summary response =
  let is_error, is_srv, cached =
    match Json.parse response with
    | Error _ -> (true, false, false)
    | Ok json ->
        let is_error =
          match Protocol.response_status json with
          | Some "error" -> true
          | Some _ -> false
          | None -> true
        in
        let is_srv =
          match Option.bind (Json.member "code" json) Json.to_str with
          | Some code ->
              String.length code >= 3 && String.sub code 0 3 = "SRV"
          | None -> false
        in
        (is_error, is_error && is_srv, Protocol.response_cached json)
  in
  {
    summary with
    sent = summary.sent + 1;
    errors = (summary.errors + if is_error then 1 else 0);
    srv_errors = (summary.srv_errors + if is_srv then 1 else 0);
    cache_hits = (summary.cache_hits + if cached then 1 else 0);
  }

let request_id line lineno =
  match Json.parse line with
  | Ok json -> begin
      match Option.bind (Json.member "id" json) Json.to_str with
      | Some id -> id
      | None -> Printf.sprintf "req-%d" lineno
    end
  | Error _ -> Printf.sprintf "req-%d" lineno

(* One lockstep exchange over an open connection. Raises [Disconnected]
   when the transport fails before the response arrives — a receive
   timeout ([Wire.Timeout]), a closed peer ([Wire.Closed]), or any
   other socket failure. EINTR from the systhreads tick signal is
   retried inside {!Wire} and never surfaces here (the channel-based
   predecessor mistook it for a disconnect). *)
let exchange ~conn ~summary line lineno =
  let id = request_id line lineno in
  let fail msg = raise (Disconnected (Printf.sprintf "%s: %s" id msg)) in
  (match Wire.write_line conn line with
  | () -> ()
  | exception Wire.Timeout -> fail "send timed out"
  | exception Wire.Closed -> fail "connection closed"
  | exception Unix.Unix_error (err, _, _) -> fail (Unix.error_message err));
  match Wire.read_line conn with
  | exception Wire.Timeout -> fail "receive timed out"
  | exception Wire.Closed -> fail "connection closed"
  | exception Unix.Unix_error (err, _, _) -> fail (Unix.error_message err)
  | response ->
      summary := absorb !summary response;
      response

(* ------------------------------------------------------------------ *)
(* Retrying driver *)

let retryable_error = function
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ENOENT | Unix.EPIPE
  | Unix.ETIMEDOUT | Unix.EHOSTUNREACH | Unix.ENETUNREACH | Unix.EAGAIN ->
      true
  | _ -> false

(* Capped exponential backoff with multiplicative jitter: attempt n
   waits base * 2^n (capped) scaled by a uniform factor in [0.5, 1.5) —
   a herd of retrying clients decorrelates instead of stampeding. *)
let backoff_delay rng ~attempt =
  let base = 0.05 and cap = 1.0 in
  let exp = base *. (2. ** float_of_int attempt) in
  Float.min cap exp *. (0.5 +. Rng.uniform rng)

let call ?(retries = 0) ?(timeout = 0.)
    ?(on_retry = fun ~attempt:_ ~delay:_ _ -> ()) endpoint ~input
    ~on_response =
  (* Slurp the job lines up front: a mid-session reconnect resumes from
     the failed request (solves are deterministic and idempotent, so a
     request answered just before the cut simply re-answers from the
     server's cache). *)
  let lines =
    let acc = ref [] in
    let lineno = ref 0 in
    let rec read () =
      match input_line input with
      | exception End_of_file -> ()
      | line ->
          incr lineno;
          let trimmed = String.trim line in
          if trimmed <> "" then acc := (trimmed, !lineno) :: !acc;
          read ()
    in
    read ();
    Array.of_list (List.rev !acc)
  in
  let rng = Rng.create () in
  let summary = ref empty_summary in
  let next = ref 0 in
  let failures = ref 0 in
  (* consecutive, reset on success *)
  let retry ~what =
    if !failures >= retries then false
    else begin
      let delay = backoff_delay rng ~attempt:!failures in
      incr failures;
      summary := { !summary with retries = !summary.retries + 1 };
      on_retry ~attempt:!failures ~delay what;
      Thread.delay delay;
      true
    end
  in
  while !next < Array.length lines do
    match connect ~timeout endpoint with
    | exception Unix.Unix_error (err, _, _)
      when retryable_error err
           && retry ~what:("connect: " ^ Unix.error_message err) ->
        ()
    | fd ->
        let conn = Wire.of_fd fd in
        let drive () =
          while !next < Array.length lines do
            let line, lineno = lines.(!next) in
            let response = exchange ~conn ~summary line lineno in
            failures := 0;
            incr next;
            on_response response
          done
        in
        let outcome =
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              match drive () with
              | () -> `Done
              | exception Disconnected what -> `Dropped what)
        in
        (match outcome with
        | `Done -> ()
        | `Dropped what ->
            if not (retry ~what) then raise (Disconnected what))
  done;
  !summary
