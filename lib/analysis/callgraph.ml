(* Module-qualified call graph over the whole analyzed tree, plus the
   configurable "blocking" frontier.

   Resolution is syntactic name matching: a callee written
   [Mrm_engine.Pool.run] resolves by its last two components
   ("Pool.run"); an unqualified callee resolves inside its own module
   first, then program-wide when the bare name is unambiguous. This is
   deliberately fuzzy — there is no typing pass — and errs towards
   resolving, which only ever adds one-level summary information. *)

type t = { by_name : (string, Cfg.t) Hashtbl.t (* "Module.fn" -> cfg *) }

let default_blocking =
  [
    "Unix.read"; "Unix.write"; "Unix.select"; "Unix.accept"; "Unix.sleepf";
    "Unix.sleep"; "Thread.delay"; "Thread.join"; "Thread.wait_signal";
    "Condition.wait"; "Randomization.moments";
    "Randomization.moments_at_times"; "Randomization.moment_series";
    "Batch.run"; "Pool.run"; "Pool.parallel_for"; "Pool.map_array";
  ]

let build cfgs =
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun (cfg : Cfg.t) ->
      if not (Hashtbl.mem by_name cfg.Cfg.name) then
        Hashtbl.replace by_name cfg.Cfg.name cfg)
    cfgs;
  { by_name }

(* last [k] dot-components of a path string *)
let last_components k s =
  let parts = String.split_on_char '.' s in
  let n = List.length parts in
  if n <= k then s
  else String.concat "." (List.filteri (fun i _ -> i >= n - k) parts)

(* Unqualified callees resolve in their own module only: matching a
   bare name program-wide would confuse a local helper with an
   unrelated module's function of the same name (and local [let rec]
   helpers shadow everything anyway). *)
let resolve_name find ~current_module callee =
  if String.contains callee '.' then
    match find (last_components 2 callee) with
    | Some v -> Some v
    | None -> find callee
  else find (current_module ^ "." ^ callee)

let resolve t ~current_module callee =
  resolve_name (Hashtbl.find_opt t.by_name) ~current_module callee

let is_blocking ?(frontier = default_blocking) callee =
  List.mem (last_components 2 callee) frontier
  || List.mem callee frontier

let callees (cfg : Cfg.t) =
  Array.to_list cfg.Cfg.nodes
  |> List.filter_map (fun (n : Cfg.node) ->
         match n.Cfg.event with
         | Cfg.Call callee -> Some (callee, n)
         | _ -> None)

let all t = Hashtbl.fold (fun _ cfg acc -> cfg :: acc) t.by_name []
