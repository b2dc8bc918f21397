(* Per-function control-flow graphs over the parsetree.

   Nodes are concurrency-relevant events (lock/unlock, blocking-style
   calls, condition-variable operations, writes to module-level mutable
   state, raises); edges are Seq (normal flow) or Exn (exceptional
   flow). The builder understands the cleanup idioms the codebase
   relies on — [Fun.protect ~finally], [Mutex.protect], and the local
   [let locked t f = Mutex.lock ...; Fun.protect ... f] wrapper shape —
   so a protected region's unlock appears on both the normal and the
   exceptional path. Closures handed to [Thread.create],
   [Domain.spawn] or a pool runner become separate thread-root graphs
   analyzed with an empty lock set.

   Everything is syntactic: no typing pass runs, locks are named by
   module + identifier/field (aliased mutexes collapse or split
   wrongly), and first-class functions stored in records escape the
   graph entirely. The known unsoundness limits are documented in
   DESIGN.md §9. *)

open Parsetree

type lock = string

type notify_kind = Signal | Broadcast

type event =
  | Enter
  | Exit  (** normal return *)
  | Exn_exit  (** exceptional return *)
  | Join  (** structural no-op: merge point, loop head, handler entry *)
  | Lock of lock
  | Unlock of lock
  | Call of string  (** callee as written, e.g. "Pool.run" or "run" *)
  | Cond_wait of { cond : string; mutex : lock option; looped : bool }
  | Cond_notify of { cond : string; kind : notify_kind }
  | Write of { target : string; what : string }
      (** write to module-level mutable state of the current module *)
  | Raise

type edge_kind = Seq | Exn

type node = { id : int; event : event; line : int; col : int }

type t = {
  name : string;  (** qualified: "Module.function" *)
  file : string;
  is_thread_root : bool;
  nodes : node array;
  succs : (int * edge_kind) list array;  (** indexed by node id *)
}

(* ------------------------------------------------------------------ *)
(* Module facts: lock-wrapper shapes and module-level mutable state,
   recovered by a cheap pre-scan so the builder can expand wrapper
   calls and tag shared-state writes. *)

type lock_source =
  | From_param of int  (** wrapper param [i] is the mutex itself *)
  | From_param_field of int * string  (** the mutex is [param_i.field] *)

type wrapper = {
  wrapper_name : string;  (** unqualified *)
  wrapper_module : string;
  lock_source : lock_source;
  thunk_index : int;  (** which param receives the critical section *)
}

type facts = {
  wrappers : wrapper list;
  mutables : (string, string) Hashtbl.t;
      (** module-level mutable bindings of this module: name -> kind
          ("ref", "Hashtbl", "Queue", "Buffer") *)
}

let module_of_path path =
  let base = Filename.remove_extension (Filename.basename path) in
  let base =
    match String.index_opt base '.' with
    | Some i -> String.sub base 0 i
    | None -> base
  in
  String.capitalize_ascii base

let last_component lid = List.nth_opt (List.rev (Longident.flatten lid)) 0

let ident_path (e : expression) =
  match e.pexp_desc with Pexp_ident { txt; _ } -> Some txt | _ -> None

let path_string lid = String.concat "." (Longident.flatten lid)

(* Collapse [f @@ x], [x |> f] and curried chains into one flat
   application of the ultimate head. *)
let rec normalize_apply (e : expression) =
  match e.pexp_desc with
  | Pexp_apply
      ({ pexp_desc = Pexp_ident { txt = Lident "@@"; _ }; _ }, [ (_, f); (_, x) ])
    ->
      normalize_apply
        { e with pexp_desc = Pexp_apply (f, [ (Asttypes.Nolabel, x) ]) }
  | Pexp_apply
      ({ pexp_desc = Pexp_ident { txt = Lident "|>"; _ }; _ }, [ (_, x); (_, f) ])
    ->
      normalize_apply
        { e with pexp_desc = Pexp_apply (f, [ (Asttypes.Nolabel, x) ]) }
  | Pexp_apply (f, args) -> begin
      match (normalize_apply f).pexp_desc with
      | Pexp_apply (g, args0) ->
          { e with pexp_desc = Pexp_apply (g, args0 @ args) }
      | _ -> e
    end
  | _ -> e

(* strip [fun p1 ... pn -> body] to (param names, body) *)
let rec strip_fun acc (e : expression) =
  match e.pexp_desc with
  | Pexp_fun (_, _, p, body) ->
      let name =
        match p.ppat_desc with
        | Ppat_var { txt; _ } -> txt
        | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> txt
        | _ -> "_"
      in
      strip_fun (name :: acc) body
  | Pexp_newtype (_, body) -> strip_fun acc body
  | _ -> (List.rev acc, e)

let rec is_fun_literal (e : expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_open (_, e) | Pexp_constraint (e, _) | Pexp_newtype (_, e) ->
      is_fun_literal e
  | _ -> false

let rec fun_body (e : expression) =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> fun_body body
  | Pexp_open (_, e) | Pexp_constraint (e, _) | Pexp_newtype (_, e) ->
      fun_body e
  | _ -> e

(* Wrapper shapes:
     let w ... m ... f ... = Mutex.lock LK; Fun.protect ~finally:(fun () -> Mutex.unlock LK) f
     let w ... m ... f ... = Mutex.protect LK f
   where LK is a param or param.field and f is a param. *)
let wrapper_of_binding ~module_name name (rhs : expression) =
  let params, body = strip_fun [] rhs in
  if params = [] then None
  else
    let param_index n =
      let rec go i = function
        | [] -> None
        | p :: _ when p = n -> Some i
        | _ :: tl -> go (i + 1) tl
      in
      go 0 params
    in
    let lock_source_of (e : expression) =
      match e.pexp_desc with
      | Pexp_ident { txt = Lident n; _ } ->
          Option.map (fun i -> From_param i) (param_index n)
      | Pexp_field
          ({ pexp_desc = Pexp_ident { txt = Lident n; _ }; _ }, { txt; _ }) ->
          Option.bind (param_index n) (fun i ->
              Option.map
                (fun f -> From_param_field (i, f))
                (last_component txt))
      | _ -> None
    in
    let thunk_of (e : expression) =
      match e.pexp_desc with
      | Pexp_ident { txt = Lident n; _ } -> param_index n
      | _ -> None
    in
    let make lock_source thunk_index =
      { wrapper_name = name; wrapper_module = module_name; lock_source;
        thunk_index }
    in
    match (normalize_apply body).pexp_desc with
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Ldot (Lident "Mutex", "protect"); _ };
            _ },
          [ (_, m); (_, f) ] ) -> begin
        match (lock_source_of m, thunk_of f) with
        | Some ls, Some ti -> Some (make ls ti)
        | _ -> None
      end
    | Pexp_sequence (first, second) -> begin
        match
          ((normalize_apply first).pexp_desc, (normalize_apply second).pexp_desc)
        with
        | ( Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Ldot (Lident "Mutex", "lock"); _ };
                  _ },
                [ (_, m) ] ),
            Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Ldot (Lident "Fun", "protect"); _ };
                  _ },
                args ) ) -> begin
            let thunk_arg =
              List.find_opt (fun (l, _) -> l = Asttypes.Nolabel) args
            in
            match (lock_source_of m, thunk_arg) with
            | Some ls, Some (_, f) ->
                Option.map (make ls) (thunk_of f)
            | _ -> None
          end
        | _ -> None
      end
    | _ -> None

let mutable_kind_of (rhs : expression) =
  match (normalize_apply rhs).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident "ref"; _ }; _ }, _) ->
      Some "ref"
  | Pexp_apply
      ({ pexp_desc = Pexp_ident { txt = Ldot (Lident m, "create"); _ }; _ }, _)
    when m = "Hashtbl" || m = "Queue" || m = "Buffer" ->
      Some m
  | _ -> None

let scan_module ~module_name (str : structure) =
  let wrappers = ref [] in
  let mutables = Hashtbl.create 8 in
  let rec item (si : structure_item) =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt = name; _ } -> begin
                if is_fun_literal vb.pvb_expr then
                  match wrapper_of_binding ~module_name name vb.pvb_expr with
                  | Some w -> wrappers := w :: !wrappers
                  | None -> ()
                else
                  match mutable_kind_of vb.pvb_expr with
                  | Some kind -> Hashtbl.replace mutables name kind
                  | None -> ()
              end
            | _ -> ())
          vbs
    | Pstr_module
        { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } ->
        List.iter item sub
    | _ -> ()
  in
  List.iter item str;
  { wrappers = List.rev !wrappers; mutables }

(* ------------------------------------------------------------------ *)
(* Builder *)

(* Calls that cannot raise: no Exn edge is added for them, which is
   what keeps explicit lock/unlock brackets over plain state updates
   free of SRC010 noise. Everything unknown may raise. *)
let safe_calls =
  [
    "Mutex.lock"; "Mutex.unlock"; "Condition.signal"; "Condition.broadcast";
    "Condition.wait"; "Thread.self"; "Thread.id"; "Thread.yield";
    "Hashtbl.replace"; "Hashtbl.add"; "Hashtbl.remove"; "Hashtbl.mem";
    "Hashtbl.find_opt"; "Hashtbl.length"; "Hashtbl.reset"; "Hashtbl.clear";
    "Queue.add"; "Queue.push"; "Queue.take_opt"; "Queue.peek_opt";
    "Queue.length"; "Queue.is_empty"; "Queue.clear"; "Queue.create";
    "Buffer.add_string"; "Buffer.add_char"; "Buffer.contents";
    "Buffer.length"; "Buffer.clear";
    "Option.is_none"; "Option.is_some"; "Option.value"; "Option.map";
    "Option.iter"; "Option.bind"; "Option.fold";
    "List.length"; "List.rev"; "List.mem"; "List.memq"; "List.cons";
    "Array.length"; "String.length"; "Printf.sprintf"; "Unix.gettimeofday";
    "Int.equal"; "Int.compare"; "Int.max"; "Int.min"; "String.equal";
    "String.compare"; "Float.equal"; "Float.compare"; "Bool.equal";
    "Domain.cpu_relax"; "Domain.self"; "Printexc.get_raw_backtrace";
  ]

let safe_unqualified =
  [
    "ref"; "!"; ":="; "incr"; "decr"; "not"; "ignore"; "fst"; "snd";
    "min"; "max"; "abs"; "succ"; "pred"; "float_of_int"; "int_of_float";
    "+"; "-"; "*"; "/"; "+."; "-."; "*."; "/."; "="; "<>"; "<"; ">";
    "<="; ">="; "=="; "!="; "&&"; "||"; "@"; "^"; "mod"; "land"; "lor";
  ]

let atomic_safe lid =
  match lid with Longident.Ldot (Lident "Atomic", _) -> true | _ -> false

let is_safe_call lid =
  atomic_safe lid
  ||
  match lid with
  | Longident.Lident n -> List.mem n safe_unqualified
  | _ ->
      let s = path_string lid in
      List.mem s safe_calls
      || (match Longident.flatten lid with
         | _ :: _ :: _ as comps ->
             let rec last2 = function
               | [ a; b ] -> a ^ "." ^ b
               | _ :: tl -> last2 tl
               | [] -> ""
             in
             List.mem (last2 comps) safe_calls
         | _ -> false)

let raise_like = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

let spawn_heads = [ "Thread.create"; "Domain.spawn" ]

(* matched by unqualified name, like SRC005 does *)
let pool_runners = [ "run"; "parallel_for"; "map_array"; "for_ranges" ]

type builder = {
  module_name : string;
  facts : facts;
  all_wrappers : wrapper list;  (** program-wide, for cross-module calls *)
  mutable nodes : node list;  (* reversed *)
  mutable n : int;
  mutable edge_list : (int * int * edge_kind) list;
  mutable pending_roots : (string * expression) list;
}

type env = { exn : int; looped : bool; fname : string }

let pos_of (loc : Location.t) =
  let p = loc.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let add_node b env preds event loc =
  let line, col = pos_of loc in
  let id = b.n in
  b.n <- id + 1;
  b.nodes <- { id; event; line; col } :: b.nodes;
  List.iter (fun p -> b.edge_list <- (p, id, Seq) :: b.edge_list) preds;
  ignore env;
  id

let add_edge b src dst kind = b.edge_list <- (src, dst, kind) :: b.edge_list

let lock_name b (e : expression) =
  match e.pexp_desc with
  | Pexp_field (_, { txt; _ }) ->
      b.module_name ^ "."
      ^ Option.value ~default:"<lock>" (last_component txt)
  | Pexp_ident { txt = Longident.Lident n; _ } -> b.module_name ^ "." ^ n
  | Pexp_ident { txt; _ } -> path_string txt
  | _ -> b.module_name ^ ".<lock>"

let find_wrapper b name =
  let candidates =
    List.filter
      (fun w -> w.wrapper_name = name)
      (b.facts.wrappers @ b.all_wrappers)
  in
  match
    List.find_opt (fun w -> w.wrapper_module = b.module_name) candidates
  with
  | Some w -> Some w
  | None -> ( match candidates with [ w ] -> Some w | _ -> None)

let head_ident (e : expression) =
  let rec go (e : expression) =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; _ } -> Some n
    | Pexp_field (e, _) -> go e
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt = Longident.Lident "!"; _ }; _ },
         [ (_, e) ]) ->
        go e
    | _ -> None
  in
  go e

let is_module_mutable b name = Hashtbl.mem b.facts.mutables name

(* ------------------------------------------------------------------ *)
(* Expression walk: [walk b env preds e] wires [e] into the graph and
   returns the node ids from which control continues normally. *)

let rec walk b env preds (e : expression) =
  let e = normalize_apply e in
  match e.pexp_desc with
  | Pexp_apply (f, args) -> walk_apply b env preds e f args
  | Pexp_sequence (a, rest) -> walk b env (walk b env preds a) rest
  | Pexp_let (rf, vbs, body) ->
      let env_vb =
        if rf = Asttypes.Recursive then { env with looped = true } else env
      in
      let preds =
        List.fold_left
          (fun preds vb ->
            if is_fun_literal vb.pvb_expr then begin
              (* local function: its body may run at any later call
                 site; model as an optional branch here *)
              let exits = walk b env_vb preds (fun_body vb.pvb_expr) in
              preds @ exits
            end
            else walk b env preds vb.pvb_expr)
          preds vbs
      in
      walk b env preds body
  | Pexp_ifthenelse (c, a, bo) ->
      let pc = walk b env preds c in
      let ea = walk b env pc a in
      let eb = match bo with Some x -> walk b env pc x | None -> pc in
      ea @ eb
  | Pexp_match (scrut, cases) ->
      let ps = walk b env preds scrut in
      List.concat_map (fun case -> walk_case b env ps case) cases
  | Pexp_function cases ->
      (* closure value: body may run wherever it is applied *)
      preds @ List.concat_map (fun case -> walk_case b env preds case) cases
  | Pexp_fun _ ->
      preds @ walk b env preds (fun_body e)
  | Pexp_try (body, cases) ->
      let handler = add_node b env [] Join e.pexp_loc in
      let body_exits = walk b { env with exn = handler } preds body in
      let catch_all =
        List.exists
          (fun case ->
            case.pc_guard = None
            &&
            let rec all (p : pattern) =
              match p.ppat_desc with
              | Ppat_any | Ppat_var _ -> true
              | Ppat_alias (p, _) -> all p
              | Ppat_or (a, b) -> all a || all b
              | _ -> false
            in
            all case.pc_lhs)
          cases
      in
      if not catch_all then add_edge b handler env.exn Exn;
      let case_exits =
        List.concat_map (fun case -> walk_case b env [ handler ] case) cases
      in
      body_exits @ case_exits
  | Pexp_while (c, body) ->
      let head = add_node b env preds Join e.pexp_loc in
      let ce = walk b env [ head ] c in
      let be = walk b { env with looped = true } ce body in
      List.iter (fun p -> add_edge b p head Seq) be;
      ce
  | Pexp_for (_, lo, hi, _, body) ->
      let p1 = walk b env preds lo in
      let p2 = walk b env p1 hi in
      let be = walk b env p2 body in
      p2 @ be
  | Pexp_setfield (obj, _, v) ->
      let preds = walk b env preds v in
      let preds = walk b env preds obj in
      begin
        match head_ident obj with
        | Some n when is_module_mutable b n ->
            let target = b.module_name ^ "." ^ n in
            [ add_node b env preds
                (Write { target; what = "field mutation" })
                e.pexp_loc ]
        | _ -> preds
      end
  | Pexp_assert
      { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None);
        _ } ->
      let r = add_node b env preds Raise e.pexp_loc in
      add_edge b r env.exn Exn;
      []
  | Pexp_assert cond ->
      let pc = walk b env preds cond in
      let r = add_node b env pc Join e.pexp_loc in
      add_edge b r env.exn Exn;
      [ r ]
  | Pexp_constraint (e, _) | Pexp_open (_, e) | Pexp_lazy e
  | Pexp_newtype (_, e) | Pexp_letexception (_, e) ->
      walk b env preds e
  | Pexp_letmodule (_, _, e) -> walk b env preds e
  | Pexp_tuple es | Pexp_array es ->
      List.fold_left (fun preds x -> walk b env preds x) preds es
  | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) ->
      walk b env preds e
  | Pexp_record (fields, base) ->
      let preds =
        match base with Some e -> walk b env preds e | None -> preds
      in
      List.fold_left (fun preds (_, x) -> walk b env preds x) preds fields
  | Pexp_field (e, _) -> walk b env preds e
  | _ -> preds

and walk_case b env preds case =
  let preds =
    match case.pc_guard with
    | Some g -> walk b env preds g
    | None -> preds
  in
  walk b env preds case.pc_rhs

(* A closure argument to an ordinary call: its body may run during the
   call — walk it as a branch joining back. *)
and walk_closure_arg b env preds (a : expression) =
  preds @ walk b env preds (fun_body a)

and walk_args b env preds args =
  List.fold_left
    (fun preds (_, (a : expression)) ->
      if is_fun_literal a then walk_closure_arg b env preds a
      else walk b env preds a)
    preds args

and expand_protected b env preds ~lock ~loc thunk =
  let lk = add_node b env preds (Lock lock) loc in
  let exn_join = add_node b env [] Join loc in
  let body_exits =
    if is_fun_literal thunk then
      walk b { env with exn = exn_join } [ lk ] (fun_body thunk)
    else begin
      (* unknown critical section: a call that may raise *)
      let callee =
        match ident_path thunk with
        | Some lid -> path_string lid
        | None -> "<thunk>"
      in
      let c = add_node b env [ lk ] (Call callee) loc in
      add_edge b c exn_join Exn;
      [ c ]
    end
  in
  let unl_exn = add_node b env [ exn_join ] (Unlock lock) loc in
  add_edge b unl_exn env.exn Exn;
  [ add_node b env body_exits (Unlock lock) loc ]

and expand_finally b env preds ~loc fin thunk =
  let walk_fin preds =
    if is_fun_literal fin then walk b env preds (fun_body fin)
    else
      let callee =
        match ident_path fin with
        | Some lid -> path_string lid
        | None -> "<finally>"
      in
      [ add_node b env preds (Call callee) loc ]
  in
  let exn_join = add_node b env [] Join loc in
  let body_exits =
    if is_fun_literal thunk then
      walk b { env with exn = exn_join } preds (fun_body thunk)
    else begin
      let callee =
        match ident_path thunk with
        | Some lid -> path_string lid
        | None -> "<thunk>"
      in
      let c = add_node b env preds (Call callee) loc in
      add_edge b c exn_join Exn;
      [ c ]
    end
  in
  let fin_exn = walk_fin [ exn_join ] in
  List.iter (fun p -> add_edge b p env.exn Exn) fin_exn;
  walk_fin body_exits

and walk_apply b env preds e f args =
  let loc = e.pexp_loc in
  match ident_path f with
  | Some (Ldot (Lident "Mutex", "lock")) -> begin
      match args with
      | (_, m) :: _ ->
          [ add_node b env preds (Lock (lock_name b m)) loc ]
      | [] -> preds
    end
  | Some (Ldot (Lident "Mutex", "unlock")) -> begin
      match args with
      | (_, m) :: _ ->
          [ add_node b env preds (Unlock (lock_name b m)) loc ]
      | [] -> preds
    end
  | Some (Ldot (Lident "Mutex", "protect")) -> begin
      match args with
      | [ (_, m); (_, thunk) ] ->
          expand_protected b env preds ~lock:(lock_name b m) ~loc thunk
      | _ -> walk_args b env preds args
    end
  | Some (Ldot (Lident "Fun", "protect")) -> begin
      let fin =
        List.find_opt
          (fun (l, _) ->
            match l with
            | Asttypes.Labelled "finally" -> true
            | _ -> false)
          args
      in
      let thunk = List.find_opt (fun (l, _) -> l = Asttypes.Nolabel) args in
      match (fin, thunk) with
      | Some (_, fin), Some (_, thunk) ->
          expand_finally b env preds ~loc fin thunk
      | _ -> walk_args b env preds args
    end
  | Some (Ldot (Lident "Condition", "wait")) -> begin
      match args with
      | (_, c) :: rest ->
          let mutex =
            match rest with (_, m) :: _ -> Some (lock_name b m) | [] -> None
          in
          [ add_node b env preds
              (Cond_wait
                 { cond = lock_name b c; mutex; looped = env.looped })
              loc ]
      | [] -> preds
    end
  | Some (Ldot (Lident "Condition", (("signal" | "broadcast") as k))) -> begin
      match args with
      | (_, c) :: _ ->
          [ add_node b env preds
              (Cond_notify
                 { cond = lock_name b c;
                   kind = (if k = "signal" then Signal else Broadcast) })
              loc ]
      | [] -> preds
    end
  | Some (Lident n) when List.mem n raise_like ->
      let preds = walk_args b env preds args in
      let r = add_node b env preds Raise loc in
      add_edge b r env.exn Exn;
      []
  | Some (Lident ((":=" | "incr" | "decr") as op))
    when (match args with
         | (_, lhs) :: _ -> begin
             match head_ident lhs with
             | Some n -> is_module_mutable b n
             | None -> false
           end
         | [] -> false) ->
      let preds = walk_args b env preds args in
      let target =
        match args with
        | (_, lhs) :: _ ->
            b.module_name ^ "."
            ^ Option.value ~default:"?" (head_ident lhs)
        | [] -> "?"
      in
      let what = if op = ":=" then "ref assignment" else "ref increment" in
      [ add_node b env preds (Write { target; what }) loc ]
  | Some (Ldot (Lident (("Hashtbl" | "Queue" | "Buffer") as m), op))
    when List.mem op
           [ "replace"; "add"; "remove"; "reset"; "clear"; "push";
             "take"; "pop"; "add_string"; "add_char"; "transfer" ]
         && (match args with
            | (_, tgt) :: _ -> begin
                match head_ident tgt with
                | Some n -> is_module_mutable b n
                | None -> false
              end
            | [] -> false) ->
      let preds = walk_args b env preds args in
      let target =
        match args with
        | (_, tgt) :: _ ->
            b.module_name ^ "."
            ^ Option.value ~default:"?" (head_ident tgt)
        | [] -> "?"
      in
      [ add_node b env preds
          (Write { target; what = m ^ "." ^ op })
          loc ]
  | Some lid
    when List.mem (path_string lid) spawn_heads
         || (match last_component lid with
            | Some n -> List.mem n pool_runners
            | None -> false) ->
      (* closures become separate thread-root graphs *)
      let preds =
        List.fold_left
          (fun preds (_, (a : expression)) ->
            if is_fun_literal a then begin
              let line, _ = pos_of a.pexp_loc in
              b.pending_roots <-
                (Printf.sprintf "%s.<thread@%d>" env.fname line, a)
                :: b.pending_roots;
              preds
            end
            else walk b env preds a)
          preds args
      in
      let c = add_node b env preds (Call (path_string lid)) loc in
      if not (is_safe_call lid) then add_edge b c env.exn Exn;
      [ c ]
  | Some lid -> begin
      let wrapper =
        match lid with
        | Longident.Lident n -> find_wrapper b n
        | Ldot (_, n) -> find_wrapper b n
        | _ -> None
      in
      let expand_wrapper w =
        let nolabel =
          List.filter_map
            (fun (l, a) -> if l = Asttypes.Nolabel then Some a else None)
            args
        in
        match
          (List.nth_opt nolabel w.thunk_index,
           match w.lock_source with
           | From_param i ->
               Option.map (lock_name b) (List.nth_opt nolabel i)
           | From_param_field (i, fld) ->
               Option.map
                 (fun _ -> b.module_name ^ "." ^ fld)
                 (List.nth_opt nolabel i))
        with
        | Some thunk, Some lock when is_fun_literal thunk ->
            let preds =
              List.fold_left
                (fun preds (a : expression) ->
                  if a == thunk then preds else walk b env preds a)
                preds nolabel
            in
            Some (expand_protected b env preds ~lock ~loc thunk)
        | _ -> None
      in
      match Option.bind wrapper expand_wrapper with
      | Some exits -> exits
      | None ->
          let preds = walk_args b env preds args in
          let c = add_node b env preds (Call (path_string lid)) loc in
          if not (is_safe_call lid) then add_edge b c env.exn Exn;
          [ c ]
    end
  | None -> begin
      (* application of a field or computed function, e.g. t.on_evict *)
      let preds = walk b env preds f in
      let preds = walk_args b env preds args in
      let callee =
        match f.pexp_desc with
        | Pexp_field (_, { txt; _ }) ->
            Option.value ~default:"<fn>" (last_component txt)
        | _ -> "<fn>"
      in
      let c = add_node b env preds (Call callee) loc in
      add_edge b c env.exn Exn;
      [ c ]
    end

(* ------------------------------------------------------------------ *)
(* Function extraction *)

let build_function ~module_name ~file ~facts ~all_wrappers ~is_thread_root
    name (body : expression) =
  let b =
    { module_name; facts; all_wrappers; nodes = []; n = 0;
      edge_list = []; pending_roots = [] }
  in
  let enter = add_node b () [] Enter body.pexp_loc in
  (* pre-allocate the two sinks so their ids are stable *)
  let exn_exit = add_node b () [] Exn_exit body.pexp_loc in
  let env = { exn = exn_exit; looped = false; fname = name } in
  let exits = walk b env [ enter ] body in
  let _exit = add_node b env exits Exit body.pexp_loc in
  let nodes = Array.of_list (List.rev b.nodes) in
  let succs = Array.make (Array.length nodes) [] in
  List.iter
    (fun (src, dst, k) -> succs.(src) <- (dst, k) :: succs.(src))
    b.edge_list;
  ( { name; file; is_thread_root; nodes; succs },
    List.rev b.pending_roots )

let build ~file ?(all_wrappers = []) (str : structure) =
  let module_name = module_of_path file in
  let facts = scan_module ~module_name str in
  let out = ref [] in
  let rec process_roots = function
    | [] -> ()
    | (name, closure) :: rest ->
        let cfg, more =
          build_function ~module_name ~file ~facts ~all_wrappers
            ~is_thread_root:true name (fun_body closure)
        in
        out := cfg :: !out;
        process_roots (more @ rest)
  in
  let add_fn name body =
    let cfg, roots =
      build_function ~module_name ~file ~facts ~all_wrappers
        ~is_thread_root:false name body
    in
    out := cfg :: !out;
    process_roots roots
  in
  let rec item (si : structure_item) =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt = name; _ } when is_fun_literal vb.pvb_expr ->
                add_fn (module_name ^ "." ^ name) (fun_body vb.pvb_expr)
            | _ -> ())
          vbs
    | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } ->
        List.iter item sub
    | _ -> ()
  in
  List.iter item str;
  (facts, List.rev !out)

let node_count (t : t) = Array.length t.nodes

let edge_count (t : t) =
  Array.fold_left (fun acc l -> acc + List.length l) 0 t.succs

let counts cfgs =
  List.fold_left
    (fun (n, e) cfg -> (n + node_count cfg, e + edge_count cfg))
    (0, 0) cfgs
