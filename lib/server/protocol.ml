module Json = Mrm_util.Json
module Batch = Mrm_batch.Batch
module Check = Mrm_check.Check
module Diagnostics = Mrm_check.Diagnostics
module Model = Mrm_core.Model

type request = { job : Batch.job; digest : string; expires : float option }

let error_table =
  [
    ("SRV001", "malformed request line (bad JSON or bad job spec)");
    ("SRV002", "request queue full — retry later (backpressure)");
    ("SRV003", "deadline exceeded before the solve started");
    ("SRV004", "server is draining and no longer accepts requests");
    ("SRV005", "model failed server-side validation (see diagnostics)");
    ("SRV006", "no healthy replica available (cluster router)");
  ]

let deadline_of_json json =
  match Json.member "deadline_s" json with
  | None -> Ok None
  | Some v -> (
      match Json.to_float v with
      | Some s when s > 0. && Float.is_finite s -> Ok (Some s)
      | _ -> Error "field \"deadline_s\": expected a positive number")

let request_of_json ?default_eps ~now ~default_id json =
  match deadline_of_json json with
  | Error e -> Error e
  | Ok deadline -> (
      match Batch.job_of_json ~default_id ?default_eps json with
      | Error e -> Error e
      | Ok job ->
          Ok
            {
              job;
              digest = Batch.digest job;
              expires = Option.map (fun s -> now +. s) deadline;
            })

let parse_request ?default_eps ~now ~default_id line =
  Result.bind (Json.parse line) (request_of_json ?default_eps ~now ~default_id)

let id_of_json ~default_id json =
  Option.value (Option.bind (Json.member "id" json) Json.to_str)
    ~default:default_id

let validate (job : Batch.job) =
  let t =
    if Array.length job.Batch.times = 0 then 1.
    else Array.fold_left Float.max 0. job.Batch.times
  in
  let config =
    {
      Check.default_config with
      Check.t;
      order = job.Batch.order;
      eps = job.Batch.eps;
    }
  in
  Diagnostics.errors (Check.check ~config (Model.check_data job.Batch.model))

(* ------------------------------------------------------------------ *)
(* Responses *)

let response_json ~cached outcome =
  match Batch.outcome_to_json outcome with
  | Json.Obj fields -> Json.Obj (fields @ [ ("cached", Json.Bool cached) ])
  | other -> other

let response_of_outcome ~cached outcome =
  Json.to_string (response_json ~cached outcome)

(* [outcome_to_json] leads with the id, so dropping that member here and
   splicing one back in front below rebuilds the whole line. *)
let cached_body outcome =
  match response_json ~cached:true outcome with
  | Json.Obj (("id", _) :: members) -> Json.to_string (Json.Obj members)
  | _ -> invalid_arg "Protocol.cached_body: outcome JSON does not lead with id"

let cached_response ~id body =
  let quoted = Json.to_string (Json.Str id) in
  let line = Buffer.create (String.length quoted + String.length body + 6) in
  Buffer.add_string line "{\"id\":";
  Buffer.add_string line quoted;
  Buffer.add_char line ',';
  Buffer.add_substring line body 1 (String.length body - 1);
  Buffer.contents line

let error_response ~id ~code ?diagnostics message =
  let diagnostics_field =
    match diagnostics with
    | None | Some [] -> []
    | Some report ->
        (* Diagnostics renders its own JSON; round-trip through the
           parser to embed it as a subtree of the response object. *)
        [ ("diagnostics",
           Json.parse_exn (Diagnostics.report_to_json report)) ]
  in
  Json.to_string
    (Json.Obj
       ([
          ("id", Json.Str id);
          ("status", Json.Str "error");
          ("code", Json.Str code);
          ("error", Json.Str message);
        ]
       @ diagnostics_field))

let response_status json =
  Option.bind (Json.member "status" json) Json.to_str

let response_cached json =
  match Option.bind (Json.member "cached" json) Json.to_bool with
  | Some b -> b
  | None -> false
