(* Dynamic verification of the engine's write-disjointness invariant.

   The partitioned kernels are only deterministic (and memory-safe in
   the "no torn results" sense) because every job writes its own
   [lo, hi) slice and the slices tile the index space. That convention
   is invisible to the type system; under MRM2_RACECHECK=1 every sweep
   validates it before dispatch and aborts loudly on violation — a
   cheap, exact race detector for the one race class the parallel
   randomization sweep can actually have. *)

module Diagnostics = Mrm_check.Diagnostics

exception Race of Diagnostics.t

let () =
  Printexc.register_printer (function
    | Race d -> Some (Format.asprintf "Mrm_engine.Racecheck.Race: %a" Diagnostics.pp d)
    | _ -> None)

let m_sweeps = Mrm_obs.Metrics.counter "racecheck.sweeps"

(* Enabled by MRM2_RACECHECK (1/true/on/yes), read once at startup —
   eagerly, not as a lazy value: kernels query it from several domains
   at once, and racing forces of one lazy raise
   [CamlinternalLazy.Undefined]. [set_enabled] overrides for tests
   without touching the environment. *)
let override = ref None

let env_enabled =
  match Sys.getenv_opt "MRM2_RACECHECK" with
  | Some raw -> begin
      match String.lowercase_ascii (String.trim raw) with
      | "1" | "true" | "on" | "yes" -> true
      | _ -> false
    end
  | None -> false

let enabled () = match !override with Some b -> b | None -> env_enabled

let set_enabled o = override := o

let pp_range ppf (lo, hi) = Format.fprintf ppf "[%d,%d)" lo hi
let range_str r = Format.asprintf "%a" pp_range r

let fail ~what ~code ~context message =
  raise
    (Race
       (Diagnostics.error ~code
          ~context:(("kernel", what) :: context)
          message))

let check_ranges ~what ~rows ranges =
  Mrm_obs.Metrics.incr m_sweeps;
  Array.iteri
    (fun k (lo, hi) ->
      if lo < 0 || hi > rows || hi < lo then
        fail ~what ~code:"RACE003"
          ~context:
            [
              ("job", string_of_int k);
              ("range", range_str (lo, hi));
              ("rows", string_of_int rows);
            ]
          (Printf.sprintf
             "job %d writes malformed range %s outside [0,%d)" k
             (range_str (lo, hi)) rows))
    ranges;
  (* sort job indices by range start; overlap and coverage are then
     adjacent-pair properties *)
  let order = Array.init (Array.length ranges) Fun.id in
  Array.sort
    (fun a b ->
      match Int.compare (fst ranges.(a)) (fst ranges.(b)) with
      | 0 -> Int.compare (snd ranges.(a)) (snd ranges.(b))
      | c -> c)
    order;
  let nonempty =
    Array.to_list order |> List.filter (fun k -> snd ranges.(k) > fst ranges.(k))
  in
  let pair_context a b =
    [
      ("job_a", string_of_int a);
      ("range_a", range_str ranges.(a));
      ("job_b", string_of_int b);
      ("range_b", range_str ranges.(b));
    ]
  in
  let rec scan covered_to = function
    | [] ->
        if covered_to < rows then
          fail ~what ~code:"RACE002"
            ~context:
              [
                ("gap", range_str (covered_to, rows));
                ("rows", string_of_int rows);
              ]
            (Printf.sprintf
               "write ranges do not cover the index space: gap %s"
               (range_str (covered_to, rows)))
    | k :: rest ->
        let lo, hi = ranges.(k) in
        if lo < covered_to then begin
          (* name both parties: the previous job is the one that wrote
             up to [covered_to] *)
          let prev =
            match
              List.find_opt
                (fun j ->
                  (not (Int.equal j k))
                  && snd ranges.(j) > lo
                  && fst ranges.(j) <= lo)
                nonempty
            with
            | Some j -> j
            | None -> k (* unreachable: some prefix job covered past lo *)
          in
          fail ~what ~code:"RACE001" ~context:(pair_context prev k)
            (Printf.sprintf
               "parallel write ranges overlap: job %d %s intersects job %d %s"
               prev
               (range_str ranges.(prev))
               k (range_str ranges.(k)))
        end
        else if lo > covered_to then
          fail ~what ~code:"RACE002"
            ~context:
              [ ("gap", range_str (covered_to, lo)); ("rows", string_of_int rows) ]
            (Printf.sprintf
               "write ranges do not cover the index space: gap %s"
               (range_str (covered_to, lo)))
        else scan hi rest
  in
  scan 0 nonempty

let code_table =
  [
    ("RACE001", Diagnostics.Error, "parallel write ranges overlap");
    ("RACE002", Diagnostics.Error, "write ranges leave part of the index space uncovered");
    ("RACE003", Diagnostics.Error, "malformed write range (out of bounds or inverted)");
  ]
