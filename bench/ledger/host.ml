(* Facts about the machine and build a record was measured on, and the
   peak resident set of a process, all read from /proc, /sys and the
   checkout itself; and the CPU the measurement is pinned to, set with
   taskset. *)

module Json = Mrm_util.Json

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_opt path =
  match read_file path with
  | s -> Some (String.trim s)
  | exception Sys_error _ -> None

(* "0-1,3" -> [0; 1; 3] *)
let cpu_list spec =
  List.concat_map
    (fun part ->
      match String.split_on_char '-' (String.trim part) with
      | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b when a <= b -> List.init (b - a + 1) (fun k -> a + k)
          | _ -> [])
      | [ a ] -> Option.to_list (int_of_string_opt a)
      | _ -> [])
    (String.split_on_char ',' spec)

let nproc () =
  match read_opt "/sys/devices/system/cpu/online" with
  | Some spec when cpu_list spec <> [] -> List.length (cpu_list spec)
  | Some _ | None -> Mrm_engine.Pool.recommended_jobs ()

(* A field of /proc/<pid>/status (pid 0: this process). *)
let status_field pid name =
  let field line =
    match String.split_on_char ':' line with
    | [ key; value ] when key = name -> Some (String.trim value)
    | _ -> None
  in
  Option.bind
    (read_opt
       (Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid)))
    (fun s -> List.find_map field (String.split_on_char '\n' s))

(* ------------------------------------------------------------------ *)
(* CPU affinity *)

(* Sets the CPUs every thread of this process may run on; the processes
   it starts afterwards inherit them. False when taskset is missing or
   refuses. *)
let set_affinity spec =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      match
        Unix.create_process "taskset"
          [| "taskset"; "-a"; "-p"; "-c"; spec; string_of_int (Unix.getpid ()) |]
          null null null
      with
      | pid -> (
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> true
          | _ -> false)
      | exception Unix.Unix_error _ -> false)

(* (the CPUs allowed before pinning, the CPU pinned to) *)
let pinned : (string * int) option ref = ref None

(* Pins this process, and the mrm2 processes it will start, to the last
   CPU it may run on, and returns that CPU. A serving request then goes
   from the ledger to the router to a replica and back without waking
   an idle vCPU, which on the machine the results come from made
   serve-hot's p50 a third lower and halved its spread between runs. *)
let pin () =
  match Option.map cpu_list (status_field 0 "Cpus_allowed_list") with
  | Some [ cpu ] -> Some cpu
  | Some (_ :: _ as cpus) ->
      let cpu = List.fold_left max 0 cpus in
      let allowed = String.concat "," (List.map string_of_int cpus) in
      if set_affinity (string_of_int cpu) then begin
        pinned := Some (allowed, cpu);
        Some cpu
      end
      else None
  | Some [] | None -> None

(* Runs [f] on every CPU the process was allowed before [pin]: for the
   2-domain pool probe. *)
let with_all_cpus f =
  match !pinned with
  | None -> f ()
  | Some (allowed, cpu) ->
      if not (set_affinity allowed) then failwith "taskset: cannot restore the CPU set";
      Fun.protect ~finally:(fun () -> ignore (set_affinity (string_of_int cpu))) f

(* "107520K" -> bytes *)
let parse_size s =
  let n = String.length s in
  if n = 0 then None
  else
    let scale, digits =
      match s.[n - 1] with
      | 'K' -> (1024, String.sub s 0 (n - 1))
      | 'M' -> (1024 * 1024, String.sub s 0 (n - 1))
      | _ -> (1, s)
    in
    Option.map (fun v -> v * scale) (int_of_string_opt digits)

(* Size in bytes of cpu0's cache at [level] (unified or data). *)
let cache_bytes level =
  let rec scan index =
    if index > 9 then None
    else
      let dir = Printf.sprintf "/sys/devices/system/cpu/cpu0/cache/index%d" index in
      match read_opt (Filename.concat dir "level") with
      | None -> None
      | Some l when l = string_of_int level
                    && read_opt (Filename.concat dir "type") <> Some "Instruction" ->
          Option.bind (read_opt (Filename.concat dir "size")) parse_size
      | Some _ -> scan (index + 1)
  in
  scan 0

(* The commit of the checkout, read from .git without running git; the
   benchmark also runs from exported trees, which have no .git. *)
let git_commit () =
  match read_opt ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      match String.index_opt head ' ' with
      | Some i when String.sub head 0 i = "ref:" -> (
          let ref_name = String.sub head (i + 1) (String.length head - i - 1) in
          match read_opt (Filename.concat ".git" ref_name) with
          | Some commit -> commit
          | None -> (
              match read_opt ".git/packed-refs" with
              | None -> "unknown"
              | Some packed ->
                  List.fold_left
                    (fun found line ->
                      match String.split_on_char ' ' line with
                      | [ commit; name ] when name = ref_name -> commit
                      | _ -> found)
                    "unknown"
                    (String.split_on_char '\n' packed)))
      | Some _ | None -> head)

(* Peak resident set (VmHWM) of a live process, in kB. *)
let vm_hwm_kb pid =
  match status_field pid "VmHWM" with
  | Some value -> (
      match String.split_on_char ' ' value with
      | kb :: _ -> Option.value ~default:0 (int_of_string_opt kb)
      | [] -> 0)
  | None -> 0

let facts ~connections ~cpu ~seed =
  let num x = Json.Num (float_of_int x) in
  let opt_num = function Some x -> num x | None -> Json.Null in
  Json.Obj
    [
      ("nproc", num (nproc ()));
      ("l2_bytes", opt_num (cache_bytes 2));
      ("l3_bytes", opt_num (cache_bytes 3));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("commit", Json.Str (git_commit ()));
      ("recommended_jobs", num (Mrm_engine.Pool.recommended_jobs ()));
      ("connections", num connections);
      ("pinned_cpu", opt_num cpu);
      ("seed", num seed);
    ]
