(* Forward abstract interpreter over parsetrees: SRC020-SRC024.

   A big-step abstract evaluator with a product domain (Numdom):
   integer intervals with symbolic linear bounds, and float intervals
   with nonzero / may-NaN / provenance bits. Top-level functions are
   analyzed once each with havoc parameters; calls resolve through the
   Callgraph naming conventions and inline to a small depth, which is
   how one-level summaries (the write ranges of Sparse.mv_into_range,
   say) flow into a kernel-body proof. Loop bodies run once plainly,
   then widening until a pass moves nothing (see [loop_passes]).
   Range-kernel call sites re-run the body
   closure under fresh symbolic lo/hi (or party index) and check every
   shared-array write against the party's range.

   A value the function did not build (a parameter, a record field, an
   element of an unknown array, an unknown call's result) is a fresh
   symbol: as an int it is that symbol, as an array its length is a
   second symbol. A comparison on the path adds a linear fact over
   those symbols to the environment ([if Array.length x < 3 * hi then
   raise ...] leaves [len x - 3 hi >= 0]); the facts flow into inlined
   callees and every entailment below uses them. That is how SRC022
   proves an [Array.unsafe_get]/[unsafe_set] against a guard in its
   own function; each unchecked access is recorded proven or not, and
   the per-file SRC003 finding on it is dropped only when proven
   ({!Lint}).

   Known unsoundness is documented in DESIGN 9.2: aliasing through
   refs/records, first-class functions trusted at construction,
   fuel exhaustion -> Unknown (no finding). *)

open Parsetree
open Asttypes
module N = Numdom
module SMap = Map.Make (String)

type finding = {
  af_code : string;
  af_line : int;
  af_col : int;
  af_file : string;
  af_message : string;
  af_context : (string * string) list;
}

type kernel_status = Proven | Flagged | Unknown

type kernel_site = {
  ks_file : string;
  ks_line : int;
  ks_runner : string;
  ks_status : kernel_status;
  ks_writes : int;
}

type unchecked = {
  uc_file : string;
  uc_line : int;
  uc_col : int;
  uc_proven : bool;
}

type stats = {
  st_sites : kernel_site list;
  st_functions : int;
  st_fuel_exhausted : int;
  st_unchecked : unchecked list;
}

let default_fuel = 100_000

exception Fuel

let max_inline_depth = 5

(* ---------- values ---------- *)

type value =
  | Vtop
  | Vsym of int  (** an unknown the function did not build; see [fresh] *)
  | Vfacts of N.lin list  (** the path facts, only under [facts_key] *)
  | Vint of N.iv
  | Vflt of N.fv
  | Vbool of bool option
  | Vtup of value list
  | Vcon of string * value option
  | Varr of arr
  | Vref of cell
  | Vfun of closure

and arr = { mutable a_elem : value; a_len : N.iv; a_local : bool }
and cell = { mutable c_val : value; c_local : bool }

and closure = {
  f_name : string;
  f_body : expression;  (** the whole [fun p1 ... -> body] chain *)
  f_env : value SMap.t;
  f_file : string;
  f_module : string;
  f_hot : bool;
}

(* ---------- global + per-evaluation state ---------- *)

type glob = {
  index : (string, value) Hashtbl.t;  (** "Module.name" -> value *)
  syms : (int, string) Hashtbl.t;
  mutable sym_count : int;
  seen : (string * string * int * int, unit) Hashtbl.t;
  mutable findings : finding list;  (** reversed *)
  mutable sites : kernel_site list;  (** reversed *)
  site_seen : (string * int * int, unit) Hashtbl.t;
  walked : (string * int * int, unit) Hashtbl.t;
  fuel_budget : int;
  mutable functions : int;
  mutable exhausted : int;
  lens : (int, int) Hashtbl.t;  (** unknown's symbol -> its length's *)
  unchecked : (string * int * int, bool) Hashtbl.t;
      (** unchecked access -> proven at every depth-0 visit *)
  mutable touched : (string * int * int) list;
      (** unchecked accesses visited by the function under analysis *)
  mutable moved : int;  (** widening updates that changed a cell *)
}

type kctx = {
  ob_lo : N.bound;
  ob_hi : N.bound;  (** inclusive upper write bound *)
  k_sym : int option;  (** party symbol, for chunked-disjointness *)
  mutable k_writes : int;
  mutable k_flagged : int;
  mutable k_escaped : bool;
  mutable k_pending : (string * Location.t * N.iv) list;
      (** party writes not at the party index: re-judged at site end
          by adjacent disjointness of the joined write interval *)
  mutable k_all : N.iv option;  (** join of every shared write index *)
  mutable k_strides : (write_id * int) list;
      (** the stride each proven shared write used, per array *)
}

(* The array a kernel write lands in: the abstract array itself when the
   evaluator knows it, else the written expression as spelled in its
   function (file, function, expression). *)
and write_id = Wphys of arr | Wname of string

type ctx = {
  g : glob;
  file : string;
  modname : string;
  hot : bool;
  fuel : int ref;
  depth : int;
  stack : string list;
  kernel : kctx option;
  assume : N.lin list;
  widen : bool;
}

let fresh_sym g name =
  let id = g.sym_count in
  g.sym_count <- id + 1;
  Hashtbl.replace g.syms id name;
  id

let sym_name g id =
  match Hashtbl.find_opt g.syms id with Some s -> s | None -> "s" ^ string_of_int id

let fresh ?(name = "v") ctx = Vsym (fresh_sym ctx.g name)

(* The length of the unknown [s], one symbol per unknown. *)
let len_of g s =
  let l =
    match Hashtbl.find_opt g.lens s with
    | Some l -> l
    | None ->
        let l = fresh_sym g ("len " ^ sym_name g s) in
        Hashtbl.replace g.lens s l;
        l
  in
  { (N.iv_of_sym l) with N.iknown = false }

(* Path facts: linear expressions known [>= 0] where the environment
   is used, kept in the environment under a name no binding can have,
   so branches and sequences scope them like variables. *)
let facts_key = "%facts"

let facts env =
  match SMap.find_opt facts_key env with Some (Vfacts l) -> l | _ -> []

let add_fact env (l : N.lin) =
  let have = facts env in
  if l.N.terms = [] || List.exists (N.lin_equal l) have then env
  else SMap.add facts_key (Vfacts (l :: have)) env

(* [ctx] deciding under the facts of [env] as well. *)
let with_facts ctx env =
  match facts env with
  | [] -> ctx
  | fs ->
      match
        List.filter (fun f -> not (List.exists (N.lin_equal f) ctx.assume)) fs
      with
      | [] -> ctx
      | extra -> { ctx with assume = extra @ ctx.assume }

let step ctx =
  decr ctx.fuel;
  if !(ctx.fuel) < 0 then raise Fuel

let emit_at g ~code ~file ~loc ~msg ~context =
  let line = loc.Location.loc_start.Lexing.pos_lnum in
  let col =
    loc.Location.loc_start.Lexing.pos_cnum - loc.Location.loc_start.Lexing.pos_bol
  in
  let key = (code, file, line, col) in
  if not (Hashtbl.mem g.seen key) then begin
    Hashtbl.replace g.seen key ();
    g.findings <-
      {
        af_code = code;
        af_line = line;
        af_col = col;
        af_file = file;
        af_message = msg;
        af_context = context;
      }
      :: g.findings
  end

let emit ctx ~code ~loc ~msg ~context =
  emit_at ctx.g ~code ~file:ctx.file ~loc ~msg ~context

(* ---------- value helpers ---------- *)

let iv_of = function
  | Vint iv -> iv
  | Vsym s -> { (N.iv_of_sym s) with N.iknown = false }
  | _ -> N.iv_top
let fv_of = function Vflt fv -> fv | Vint iv -> N.fv_of_iv iv | _ -> N.fv_top

let rec join a b =
  match (a, b) with
  | Vint x, Vint y -> Vint (N.iv_join x y)
  | Vflt x, Vflt y -> Vflt (N.fv_join x y)
  | Vsym x, Vsym y when x = y -> a
  | (Vint _ | Vsym _), (Vint _ | Vsym _) -> Vint (N.iv_join (iv_of a) (iv_of b))
  | (Vint _ | Vflt _), (Vint _ | Vflt _) -> Vflt (N.fv_join (fv_of a) (fv_of b))
  | Vbool x, Vbool y -> Vbool (if x = y then x else None)
  | Vtup xs, Vtup ys when List.length xs = List.length ys ->
      Vtup (List.map2 join xs ys)
  | Vcon (c1, Some x), Vcon (c2, Some y) when c1 = c2 -> Vcon (c1, Some (join x y))
  | Vcon (c1, None), Vcon (c2, None) when c1 = c2 -> Vcon (c1, None)
  | Varr x, Varr y when x == y -> a
  | Vref x, Vref y when x == y -> a
  | Vfun _, Vfun _ -> a
  | _ -> Vtop

let widen_value ~old v =
  match (old, v) with
  | Vint x, Vint y -> Vint (N.iv_widen ~old:x y)
  | Vflt x, Vflt y -> Vflt (N.fv_widen ~old:x y)
  | _ -> join old v

(* Weak update honoring the widening pass. A widening update that moves
   the cell is counted, so the loop knows its state is not stable yet. *)
let merge_cell ctx old v =
  if ctx.widen then begin
    let r = widen_value ~old v in
    let same =
      match (old, r) with
      | Vint x, Vint y -> x = y
      | Vflt x, Vflt y -> x = y
      | _ -> old == r
    in
    if not same then ctx.g.moved <- ctx.g.moved + 1;
    r
  end
  else join old v

(* Does this value definitely contain a shared mutable object? Vtop
   does not count (it would mark nearly every call escaping); Vfun
   does not count either — closures passed to unknown callees are
   walked instead. *)
let rec contains_shared v =
  match v with
  | Varr a -> not a.a_local
  | Vref c -> not c.c_local
  | Vtup vs -> List.exists contains_shared vs
  | Vcon (_, Some x) -> contains_shared x
  | _ -> false

let rec collect_funs v =
  match v with
  | Vfun cl -> [ cl ]
  | Vtup vs -> List.concat_map collect_funs vs
  | Vcon (_, Some x) -> collect_funs x
  | _ -> []

(* ---------- syntactic helpers ---------- *)

let ident_name (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (String.concat "." (Longident.flatten txt))
  | _ -> None

let pat_var (p : pattern) =
  let rec go p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) -> go p
    | Ppat_alias (p, { txt; _ }) -> ( match go p with Some v -> Some v | None -> Some txt)
    | _ -> None
  in
  go p

let rec is_fun_expr (e : expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_constraint (e, _) | Pexp_newtype (_, e) | Pexp_open (_, e) -> is_fun_expr e
  | _ -> false

(* Does evaluating this expression definitely diverge (raise/exit)? *)
let diverges (e : expression) =
  match (Cfg.normalize_apply e).pexp_desc with
  | Pexp_apply (f, _) -> (
      match ident_name f with
      | Some
          ( "raise" | "raise_notrace" | "failwith" | "invalid_arg" | "exit"
          | "Stdlib.raise" | "Stdlib.failwith" | "Stdlib.invalid_arg" ) ->
          true
      | _ -> false)
  | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ }
    ->
      true
  | _ -> false

let prob_name name =
  let lower = String.lowercase_ascii name in
  let has s =
    let ls = String.length s and ln = String.length lower in
    let rec at i = i + ls <= ln && (String.sub lower i ls = s || at (i + 1)) in
    ls <= ln && at 0
  in
  has "prob" || has "weight" || lower = "pi" || has "pi0" || has "mix"

(* Pure higher-order stdlib containers: closures passed to these are
   applied to elements, never stored where a later party could see
   them — exempt from the escape rule. *)
let pure_hof_qualifier = function
  | "Array" | "List" | "Seq" | "Option" | "Result" | "Hashtbl" | "Float" | "Fun"
  | "Printf" | "Format" ->
      true
  | _ -> false

let const_ident = function
  | "infinity" | "Float.infinity" -> Some (Vflt (N.fv_const infinity))
  | "neg_infinity" | "Float.neg_infinity" -> Some (Vflt (N.fv_const neg_infinity))
  | "nan" | "Float.nan" -> Some (Vflt N.fv_nan)
  | "max_float" | "Float.max_float" -> Some (Vflt (N.fv_const max_float))
  | "min_float" | "Float.min_float" -> Some (Vflt (N.fv_const min_float))
  | "epsilon_float" | "Float.epsilon" -> Some (Vflt (N.fv_const epsilon_float))
  | "Float.pi" -> Some (Vflt (N.fv_const (4.0 *. atan 1.0)))
  | "max_int" -> Some (Vint (N.iv_const max_int))
  | "min_int" -> Some (Vint (N.iv_const min_int))
  | _ -> None

let split_name name =
  let n2 = Callgraph.last_components 2 name in
  match String.index_opt n2 '.' with
  | Some i ->
      (String.sub n2 0 i, String.sub n2 (i + 1) (String.length n2 - i - 1))
  | None -> ("", n2)

let lin_coeff sym l = try List.assoc sym l.N.terms with Not_found -> 0

let iv_point (iv : N.iv) =
  match (iv.N.ilo, iv.N.ihi) with
  | N.Lin a, N.Lin b when N.lin_equal a b -> N.lin_is_const a
  | _ -> None

(* [iv] with the party symbol substituted [k := k + 1] on the lower
   bound, for the adjacent-disjointness check of chunked party writes:
   intervals [lo(k), hi(k)] linear in [k] are pairwise disjoint when
   [lo(k+1) >= hi(k) + 1]. *)
let party_disjoint ~assume ksym (iv : N.iv) =
  match (iv.N.ilo, iv.N.ihi) with
  | N.Lin lo, N.Lin hi ->
      let shifted = N.lin_add_const (lin_coeff ksym lo) lo in
      N.lin_nonneg ~assume (N.lin_add_const (-1) (N.lin_sub shifted hi))
  | _ -> false

let cmp_ops = [ "="; "<>"; "<"; ">"; "<="; ">="; "=="; "!=" ]

let bare_name name =
  let q, lc = split_name name in
  if q = "" || q = "Stdlib" then Some lc else None

(* ------------------------------------------------------------------ *)
(* The evaluator *)

let rec eval ctx env (e : expression) : value =
  step ctx;
  let e = Cfg.normalize_apply e in
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer (s, _)) -> (
      match int_of_string_opt s with
      | Some i -> Vint (N.iv_const i)
      | None -> Vint N.iv_top)
  | Pexp_constant (Pconst_float (s, _)) -> (
      match float_of_string_opt s with
      | Some f when Float.is_nan f -> Vflt N.fv_nan
      | Some f -> Vflt (N.fv_const f)
      | None -> Vflt N.fv_top)
  | Pexp_constant _ -> Vtop
  | Pexp_ident { txt; _ } -> (
      let name = String.concat "." (Longident.flatten txt) in
      match SMap.find_opt name env with
      | Some v -> v
      | None -> (
          match const_ident name with
          | Some v -> v
          | None -> (
              match
                Callgraph.resolve_name
                  (Hashtbl.find_opt ctx.g.index)
                  ~current_module:ctx.modname name
              with
              | Some v -> v
              | None -> Vtop)))
  | Pexp_let (_, vbs, body) ->
      let env' =
        List.fold_left
          (fun acc vb ->
            if is_fun_expr vb.pvb_expr then begin
              let name =
                match pat_var vb.pvb_pat with
                | Some n -> n
                | None -> anon_name ctx.file vb.pvb_expr.pexp_loc
              in
              let cl =
                {
                  f_name = name;
                  f_body = vb.pvb_expr;
                  f_env = env;
                  f_file = ctx.file;
                  f_module = ctx.modname;
                  f_hot = ctx.hot;
                }
              in
              if ctx.depth = 0 && ctx.kernel = None then
                walk_once ctx vb.pvb_expr.pexp_loc cl;
              match pat_var vb.pvb_pat with
              | Some n -> SMap.add n (Vfun cl) acc
              | None -> acc
            end
            else
              let v = eval ctx env vb.pvb_expr in
              bind_pat ctx acc vb.pvb_pat v)
          env vbs
      in
      eval ctx env' body
  | Pexp_fun _ | Pexp_function _ ->
      Vfun
        {
          f_name = anon_name ctx.file e.pexp_loc;
          f_body = e;
          f_env = env;
          f_file = ctx.file;
          f_module = ctx.modname;
          f_hot = ctx.hot;
        }
  | Pexp_apply (f, args) -> eval_apply ctx env e.pexp_loc f args
  | Pexp_sequence (e1, e2) ->
      ignore (eval ctx env e1);
      let env' = seq_refine ctx env e1 in
      eval ctx env' e2
  | Pexp_ifthenelse (cond, then_, else_) -> (
      let cv = eval ctx env cond in
      let eval_then () = eval ctx (refine ctx env cond true) then_ in
      let eval_else () =
        match else_ with
        | Some els -> eval ctx (refine ctx env cond false) els
        | None -> Vcon ("()", None)
      in
      match cv with
      | Vbool (Some true) -> eval_then ()
      | Vbool (Some false) -> eval_else ()
      | _ ->
          let tv = eval_then () in
          let ev = eval_else () in
          if diverges then_ then ev
          else if
            match else_ with Some els -> diverges els | None -> false
          then tv
          else join tv ev)
  | Pexp_match (scrut, cases) ->
      let sv = eval ctx env scrut in
      eval_cases ctx env sv cases
  | Pexp_try (body, handlers) ->
      let bv = try eval ctx env body with Fuel -> raise Fuel in
      let hv = eval_cases ctx env Vtop handlers in
      join bv hv
  | Pexp_tuple es -> Vtup (List.map (eval ctx env) es)
  | Pexp_construct ({ txt; _ }, arg) -> (
      let cname =
        match List.rev (Longident.flatten txt) with c :: _ -> c | [] -> "?"
      in
      match (cname, arg) with
      | "true", _ -> Vbool (Some true)
      | "false", _ -> Vbool (Some false)
      | "()", _ -> Vcon ("()", None)
      | _, Some a -> Vcon (cname, Some (eval ctx env a))
      | _, None -> Vcon (cname, None))
  | Pexp_variant (_, arg) ->
      Option.iter (fun a -> ignore (eval ctx env a)) arg;
      Vtop
  | Pexp_record (fields, base) ->
      Option.iter (fun b -> ignore (eval ctx env b)) base;
      List.iter (fun (_, fe) -> ignore (eval ctx env fe)) fields;
      Vtop
  | Pexp_field (r, { txt; _ }) ->
      ignore (eval ctx env r);
      fresh ~name:(String.concat "." (Longident.flatten txt)) ctx
  | Pexp_setfield (r, _, v) ->
      ignore (eval ctx env r);
      ignore (eval ctx env v);
      (match ctx.kernel with
      | Some k -> k.k_escaped <- true
      | None -> ());
      Vcon ("()", None)
  | Pexp_array es ->
      let elems = List.map (eval ctx env) es in
      let elem = List.fold_left join (match elems with v :: _ -> v | [] -> Vtop) elems in
      Varr
        {
          a_elem = elem;
          a_len = N.iv_const (List.length es);
          a_local = ctx.kernel <> None;
        }
  | Pexp_while (cond, body) ->
      let run widen =
        let ctx' = { ctx with widen = ctx.widen || widen } in
        ignore (eval ctx' env cond);
        ignore (eval ctx' (refine ctx' env cond true) body)
      in
      loop_passes ctx.g run;
      Vcon ("()", None)
  | Pexp_for (pat, e1, e2, dir, body) ->
      let v1 = iv_of (eval ctx env e1) in
      let v2 = iv_of (eval ctx env e2) in
      let iv =
        match dir with
        | Upto ->
            { N.ilo = v1.N.ilo; ihi = v2.N.ihi; iknown = v1.N.iknown && v2.N.iknown }
        | Downto ->
            { N.ilo = v2.N.ilo; ihi = v1.N.ihi; iknown = v1.N.iknown && v2.N.iknown }
      in
      let run widen =
        let ctx' = { ctx with widen = ctx.widen || widen } in
        let env' = bind_pat ctx' env pat (Vint iv) in
        ignore (eval ctx' env' body)
      in
      loop_passes ctx.g run;
      Vcon ("()", None)
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_newtype (_, e)
  | Pexp_lazy e | Pexp_open (_, e) | Pexp_letexception (_, e) ->
      eval ctx env e
  | Pexp_letmodule (_, _, e) -> eval ctx env e
  | Pexp_assert cond -> (
      match cond.pexp_desc with
      | Pexp_construct ({ txt = Lident "false"; _ }, None) -> Vtop
      | _ ->
          ignore (eval ctx env cond);
          Vcon ("()", None))
  | Pexp_poly (e, _) -> eval ctx env e
  | _ -> Vtop

(* A loop body runs plainly, then widening what it writes (moved
   bounds open to infinity) until a pass moves nothing, at most three
   times. The pass that moves nothing read a state every iteration
   stays in, so accesses are checked against the values any iteration
   can reach rather than the first two iterations'. *)
and loop_passes g run =
  run false;
  let rec widen left =
    let before = g.moved in
    run true;
    if left > 1 && g.moved > before then widen (left - 1)
  in
  widen 3

and anon_name file loc =
  Printf.sprintf "<fun:%s:%d>" file loc.Location.loc_start.Lexing.pos_lnum

(* Refinement carried past a statement: [assert c; ...] and
   [if c then raise ...; ...] narrow the rest of the sequence. *)
and seq_refine ctx env (e1 : expression) =
  match e1.pexp_desc with
  | Pexp_assert cond -> refine ctx env cond true
  | Pexp_ifthenelse (cond, then_, _) when diverges then_ ->
      refine ctx env cond false
  | Pexp_ifthenelse (cond, _, Some els) when diverges els ->
      refine ctx env cond true
  | _ -> env

and bind_pat ctx env (p : pattern) v =
  match p.ppat_desc with
  | Ppat_var { txt; _ } ->
      check_prob ctx p.ppat_loc txt v;
      SMap.add txt v env
  | Ppat_alias (p', { txt; _ }) -> bind_pat ctx (SMap.add txt v env) p' v
  | Ppat_constraint (p', _) -> bind_pat ctx env p' v
  | Ppat_tuple ps -> (
      match v with
      | Vtup vs when List.length vs = List.length ps ->
          List.fold_left2 (bind_pat ctx) env ps vs
      | _ ->
          List.fold_left
            (fun acc p' -> bind_pat ctx acc p' (fresh ctx))
            env ps)
  | Ppat_construct ({ txt; _ }, arg) -> (
      let cname =
        match List.rev (Longident.flatten txt) with c :: _ -> c | [] -> "?"
      in
      match arg with
      | Some (_, p') -> (
          match v with
          | Vcon (c, Some v') when c = cname -> bind_pat ctx env p' v'
          | _ -> bind_pat ctx env p' (fresh ctx))
      | None -> env)
  | Ppat_record (fields, _) ->
      List.fold_left
        (fun acc (_, fp) -> bind_pat ctx acc fp (fresh ctx))
        env fields
  | Ppat_or (a, b) -> bind_pat ctx (bind_pat ctx env a v) b v
  | _ -> env

(* SRC024: probability-suggestive name bound to an evidenced float
   interval escaping [0, 1] with no clamp in sight. *)
and check_prob ctx loc name v =
  if ctx.depth = 0 && prob_name name then
    match v with
    | Vflt f when f.N.fknown && not f.N.fnan && (f.N.flo < 0. || f.N.fhi > 1.)
      ->
        emit ctx ~code:"SRC024" ~loc
          ~msg:
            (Printf.sprintf
               "probability-suggestive binding '%s' gets value in %s, outside \
                [0, 1] with no clamp"
               name (N.fv_to_string f))
          ~context:[ ("interval", N.fv_to_string f) ]
    | _ -> ()

and simple_ident (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Lident n; _ } -> Some n
  | Pexp_constraint (e, _) -> simple_ident e
  | _ -> None

(* Narrow [env] under the assumption that [cond] evaluated to
   [branch]. Interval endpoints describe the non-NaN case, so endpoint
   refinement is sound on both branches; the may-NaN bit is cleared
   only on the true branch of an ordered comparison (NaN comparisons
   are always false, so the negated branch keeps it). *)
and refine ctx env (cond : expression) branch =
  let cond = Cfg.normalize_apply cond in
  match cond.pexp_desc with
  | Pexp_constraint (c, _) | Pexp_open (_, c) -> refine ctx env c branch
  | Pexp_apply (f, args) -> (
      let fname = match ident_name f with Some n -> n | None -> "" in
      let last2 = Callgraph.last_components 2 fname in
      match (bare_name fname, args) with
      | Some "&&", [ (_, a); (_, b) ] when branch ->
          refine ctx (refine ctx env a true) b true
      | Some "||", [ (_, a); (_, b) ] when not branch ->
          refine ctx (refine ctx env a false) b false
      | Some "not", [ (_, a) ] -> refine ctx env a (not branch)
      | Some op, [ (_, a); (_, b) ] when List.mem op cmp_ops ->
          refine_cmp ctx env op a b branch
      | _, [ (_, a) ] when last2 = "Float.is_nan" ->
          upd_float env a (fun f ->
              if branch then N.fv_nan else { f with N.fnan = false })
      | _, [ (_, a) ] when last2 = "Float.is_finite" && branch ->
          upd_float env a (fun f ->
              {
                f with
                N.fnan = false;
                flo = (if f.N.flo < -.max_float then -.max_float else f.N.flo);
                fhi = (if f.N.fhi > max_float then max_float else f.N.fhi);
              })
      | _ -> env)
  | _ -> env

and upd_float env e f =
  match simple_ident e with
  | Some n -> (
      match SMap.find_opt n env with
      | Some (Vflt fv) -> SMap.add n (Vflt (f fv)) env
      | _ -> env)
  | None -> env

and refine_cmp ctx env op a b branch =
  (* effective relation on the taken branch *)
  let op =
    if branch then op
    else
      match op with
      | "=" -> "<>"
      | "<>" -> "="
      | "==" -> "!="
      | "!=" -> "=="
      | "<" -> ">="
      | ">=" -> "<"
      | ">" -> "<="
      | "<=" -> ">"
      | o -> o
  in
  let nan_clear = branch && List.mem op [ "<"; ">"; "<="; ">="; "=" ] in
  let va = eval ctx env a and vb = eval ctx env b in
  let fmin x y = if x < y then x else y in
  let fmax x y = if x > y then x else y in
  let upd env e other rel =
    (* [e REL other] *)
    match simple_ident e with
    | None -> env
    | Some n -> (
        match SMap.find_opt n env with
        | Some (Vint iv) ->
            let o = iv_of other in
            let iv' =
              match rel with
              | "<" -> N.iv_meet_upper iv (N.bound_add_const (-1) o.N.ihi)
              | "<=" -> N.iv_meet_upper iv o.N.ihi
              | ">" -> N.iv_meet_lower iv (N.bound_add_const 1 o.N.ilo)
              | ">=" -> N.iv_meet_lower iv o.N.ilo
              | "=" -> N.iv_meet_lower (N.iv_meet_upper iv o.N.ihi) o.N.ilo
              | _ -> iv
            in
            SMap.add n (Vint iv') env
        | Some (Vflt fv) ->
            let o = fv_of other in
            let fv =
              if nan_clear then { fv with N.fnan = false } else fv
            in
            let fv' =
              match rel with
              | "<" ->
                  {
                    fv with
                    N.fhi = fmin fv.N.fhi o.N.fhi;
                    nz = fv.N.nz || o.N.fhi <= 0.;
                  }
              | "<=" ->
                  {
                    fv with
                    N.fhi = fmin fv.N.fhi o.N.fhi;
                    nz = fv.N.nz || o.N.fhi < 0.;
                  }
              | ">" ->
                  {
                    fv with
                    N.flo = fmax fv.N.flo o.N.flo;
                    nz = fv.N.nz || o.N.flo >= 0.;
                  }
              | ">=" ->
                  {
                    fv with
                    N.flo = fmax fv.N.flo o.N.flo;
                    nz = fv.N.nz || o.N.flo > 0.;
                  }
              | "=" ->
                  {
                    fv with
                    N.flo = fmax fv.N.flo o.N.flo;
                    fhi = fmin fv.N.fhi o.N.fhi;
                    nz = fv.N.nz || o.N.nz;
                  }
              | "<>" | "!=" ->
                  (* mrm:ignore SRC001 — testing for the literal zero
                     interval, an exact lattice point *)
                  if o.N.flo = 0. && o.N.fhi = 0. then { fv with N.nz = true }
                  else fv
              | _ -> fv
            in
            SMap.add n (Vflt fv') env
        | _ -> env)
  in
  let flip = function
    | "<" -> ">"
    | "<=" -> ">="
    | ">" -> "<"
    | ">=" -> "<="
    | o -> o
  in
  let env = upd env a vb op in
  let env = upd env b va (flip op) in
  (* the relation itself, as facts over the operands' symbols *)
  let int_like = function Vint _ | Vsym _ -> true | _ -> false in
  if not (int_like va && int_like vb) then env
  else
    let x = iv_of va and y = iv_of vb in
    (* a < b with a >= x.lo and b <= y.hi gives y.hi - x.lo - 1 >= 0 *)
    let fact env hi lo k =
      match (hi, lo) with
      | N.Lin h, N.Lin l -> add_fact env (N.lin_add_const (-k) (N.lin_sub h l))
      | _ -> env
    in
    match op with
    | "<" -> fact env y.N.ihi x.N.ilo 1
    | "<=" -> fact env y.N.ihi x.N.ilo 0
    | ">" -> fact env x.N.ihi y.N.ilo 1
    | ">=" -> fact env x.N.ihi y.N.ilo 0
    | "=" | "==" -> fact (fact env y.N.ihi x.N.ilo 0) x.N.ihi y.N.ilo 0
    | _ -> env

and eval_args ctx env args = List.map (fun (l, a) -> (l, eval ctx env a)) args

and eval_apply ctx env loc f args =
  let ctx = with_facts ctx env in
  let fname = ident_name f in
  match (fname, args) with
  | Some n, [ (_, a); (_, b) ] when bare_name n = Some "&&" -> (
      let va = eval ctx env a in
      match va with
      | Vbool (Some false) -> Vbool (Some false)
      | _ -> (
          let vb = eval ctx (refine ctx env a true) b in
          match (va, vb) with
          | Vbool (Some true), Vbool bb -> Vbool bb
          | _, Vbool (Some false) -> Vbool (Some false)
          | _ -> Vbool None))
  | Some n, [ (_, a); (_, b) ] when bare_name n = Some "||" -> (
      let va = eval ctx env a in
      match va with
      | Vbool (Some true) -> Vbool (Some true)
      | _ -> (
          let vb = eval ctx (refine ctx env a false) b in
          match (va, vb) with
          | Vbool (Some false), Vbool bb -> Vbool bb
          | _, Vbool (Some true) -> Vbool (Some true)
          | _ -> Vbool None))
  | Some name, _ -> (
      (* an element body (map_array) has no index to prove against *)
      match Runner.find ~current_module:ctx.modname name with
      | Some (runner, Runner.Range) ->
          analyze_site ctx env loc runner ~range:true args
      | Some (runner, Runner.Party) ->
          analyze_site ctx env loc runner ~range:false args
      | Some (_, Runner.Element) | None ->
          if (not (String.contains name '.')) && SMap.mem name env then
            let fv = SMap.find name env in
            apply_value ctx fv (eval_args ctx env args)
          else
            let vargs = eval_args ctx env args in
            (match
               prim ?wkey:(write_key ctx name args) ~head:f.pexp_loc ctx loc
                 name vargs
             with
            | Some v -> v
            | None -> (
                match
                  Callgraph.resolve_name
                    (Hashtbl.find_opt ctx.g.index)
                    ~current_module:ctx.modname name
                with
                | Some (Vfun cl) -> call_closure ctx cl vargs
                | _ -> fallback_call ctx name vargs)))
  | None, _ ->
      let fv = eval ctx env f in
      apply_value ctx fv (eval_args ctx env args)

and apply_value ctx v vargs =
  match v with
  | Vfun cl -> call_closure ctx cl vargs
  | _ -> fallback ctx ~pure:false vargs

and call_closure ctx cl vargs =
  if
    List.mem cl.f_name ctx.stack
    || ctx.depth >= max_inline_depth
    || List.length ctx.stack > 2 * max_inline_depth
  then fallback ctx ~pure:false vargs
  else
    let ctx' =
      {
        ctx with
        depth = ctx.depth + 1;
        stack = cl.f_name :: ctx.stack;
        file = cl.f_file;
        modname = cl.f_module;
        hot = cl.f_hot;
      }
    in
    apply_fn ctx' ~havoc_opt:false cl.f_env cl.f_body vargs

(* Unknown callee: walk closure arguments — in kernel mode their
   writes must still satisfy the obligation, and everywhere their weak
   updates to captured refs must land (an [Array.iter] accumulator
   left un-walked would keep its initial value and fake a definite
   constant). Walks are bounded by the stack depth and the fuel
   budget; findings dedupe globally by location. In kernel mode a
   definitely-shared mutable argument additionally escapes the
   proof. *)
and fallback ctx ~pure vargs =
  let funs = List.concat_map (fun (_, v) -> collect_funs v) vargs in
  List.iter (walk_closure ctx) funs;
  (match ctx.kernel with
  | Some k ->
      if (not pure) && List.exists (fun (_, v) -> contains_shared v) vargs then
        k.k_escaped <- true
  | None -> ());
  fresh ctx

and fallback_call ctx name vargs =
  let q, _ = split_name name in
  fallback ctx ~pure:(pure_hof_qualifier q) vargs

and walk_closure ctx cl =
  if List.mem cl.f_name ctx.stack then ()
  else if List.length ctx.stack > 2 * max_inline_depth then
    match ctx.kernel with Some k -> k.k_escaped <- true | None -> ()
  else
    ignore
      (apply_fn
         {
           ctx with
           stack = cl.f_name :: ctx.stack;
           file = cl.f_file;
           modname = cl.f_module;
           hot = cl.f_hot;
         }
         ~havoc_opt:true cl.f_env cl.f_body [])

and walk_once ctx loc cl =
  let key =
    ( ctx.file,
      loc.Location.loc_start.Lexing.pos_lnum,
      loc.Location.loc_start.Lexing.pos_cnum
      - loc.Location.loc_start.Lexing.pos_bol )
  in
  if not (Hashtbl.mem ctx.g.walked key) then begin
    Hashtbl.replace ctx.g.walked key ();
    if
      (not (List.mem cl.f_name ctx.stack))
      && List.length ctx.stack <= 2 * max_inline_depth
    then
      ignore
        (apply_fn
           { ctx with stack = cl.f_name :: ctx.stack }
           ~havoc_opt:true cl.f_env cl.f_body [])
  end

(* Apply a [fun p1 ... -> body] chain to abstract arguments. Missing
   arguments bind havoc; [havoc_opt] additionally havocs optional
   defaults (direct analysis: the caller could pass anything). *)
and apply_fn ctx ~havoc_opt env (e : expression) args =
  step ctx;
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_newtype (_, e) | Pexp_open (_, e) ->
      apply_fn ctx ~havoc_opt env e args
  | Pexp_fun (lbl, default, pat, rest) ->
      let take_labelled l args =
        let rec go acc = function
          | [] -> None
          | (Labelled l', v) :: tl when l' = l -> Some (v, List.rev_append acc tl)
          | hd :: tl -> go (hd :: acc) tl
        in
        go [] args
      in
      let take_nolabel args =
        let rec go acc = function
          | [] -> None
          | (Nolabel, v) :: tl -> Some (v, List.rev_append acc tl)
          | hd :: tl -> go (hd :: acc) tl
        in
        go [] args
      in
      let missing () =
        fresh ~name:(Option.value (pat_var pat) ~default:"v") ctx
      in
      let v, args =
        match lbl with
        | Nolabel -> (
            match take_nolabel args with
            | Some (v, rest_args) -> (v, rest_args)
            | None -> (missing (), args))
        | Labelled l -> (
            match take_labelled l args with
            | Some (v, rest_args) -> (v, rest_args)
            | None -> (missing (), args))
        | Optional l -> (
            match take_labelled l args with
            | Some (v, rest_args) ->
                ( (match default with
                  | Some _ -> v
                  | None -> Vcon ("Some", Some v)),
                  rest_args )
            | None ->
                ( (if havoc_opt then missing ()
                   else
                     match default with
                     | Some d -> eval ctx env d
                     | None -> Vcon ("None", None)),
                  args ))
      in
      let env' = bind_pat ctx env pat v in
      apply_fn ctx ~havoc_opt env' rest args
  | Pexp_function cases -> (
      match args with
      | (Nolabel, v) :: rest_args ->
          let r = eval_cases ctx env v cases in
          if rest_args = [] then r else apply_value ctx r rest_args
      | _ -> eval_cases ctx env Vtop cases)
  | _ ->
      let v = eval ctx env e in
      if args = [] then v else apply_value ctx v args

and eval_cases ctx env scrut cases =
  let try_case c =
    if definitely_mismatch scrut c.pc_lhs then None
    else begin
      let env' = bind_pat ctx env c.pc_lhs scrut in
      let guard_false =
        match c.pc_guard with
        | Some g -> (
            match eval ctx env' g with Vbool (Some false) -> true | _ -> false)
        | None -> false
      in
      let rv = eval ctx env' c.pc_rhs in
      if guard_false || diverges c.pc_rhs then None else Some rv
    end
  in
  match List.filter_map try_case cases with
  | [] -> Vtop
  | v :: rest -> List.fold_left join v rest

and definitely_mismatch scrut (p : pattern) =
  let con_name txt =
    match List.rev (Longident.flatten txt) with c :: _ -> c | [] -> "?"
  in
  match (p.ppat_desc, scrut) with
  | Ppat_constraint (p', _), _ | Ppat_alias (p', _), _ ->
      definitely_mismatch scrut p'
  | Ppat_or (pa, pb), _ ->
      definitely_mismatch scrut pa && definitely_mismatch scrut pb
  | Ppat_construct ({ txt; _ }, _), Vcon (c, _) -> con_name txt <> c
  | Ppat_construct ({ txt; _ }, _), Vbool (Some b) ->
      let n = con_name txt in
      (n = "true" || n = "false") && n <> string_of_bool b
  | Ppat_constant (Pconst_integer (s, _)), Vint iv -> (
      match (iv_point iv, int_of_string_opt s) with
      | Some c, Some c' -> c <> c'
      | _ -> false)
  | _ -> false

(* ---------- array / numeric primitives ---------- *)

(* The written array of an [Array.set]/[fill]/[blit] call in a kernel
   body, spelled as in its function: the [Wname] identity of a write
   whose target value is unknown. *)
and write_key ctx name args =
  let target =
    match snd (split_name name) with
    | _ when Option.is_none ctx.kernel -> None
    | "set" | "unsafe_set" | "fill" -> Some 0
    | "blit" -> Some 2
    | _ -> None
  in
  Option.bind target (fun k ->
      match
        List.nth_opt (List.filter (fun (l, _) -> l = Nolabel) args) k
      with
      | Some (_, e) ->
          Some
            (String.concat ":"
               [
                 ctx.file;
                 (match ctx.stack with f :: _ -> f | [] -> "");
                 Format.asprintf "%a" Pprintast.expression e;
               ])
      | None -> None)

and prim ?wkey ?head ctx loc name vargs =
  let q, lc = split_name name in
  let k = if q = "" || q = "Stdlib" then lc else q ^ "." ^ lc in
  let nol = List.filter_map (fun (l, v) -> if l = Nolabel then Some v else None) vargs in
  let src021 msg fvs =
    if ctx.depth = 0 then
      emit ctx ~code:"SRC021" ~loc ~msg
        ~context:[ ("interval", N.fv_to_string fvs) ]
  in
  let names = sym_name ctx.g in
  match k with
  | "+" | "-" | "*" -> (
      match nol with
      | [ a; b ] ->
          let x = iv_of a and y = iv_of b in
          Some
            (Vint
               (match k with
               | "+" -> N.iv_add x y
               | "-" -> N.iv_sub x y
               | _ -> N.iv_mul x y))
      | _ -> Some (Vint N.iv_top))
  | "succ" -> Some (Vint (N.iv_add (iv_of (List.nth_opt nol 0 |> Option.value ~default:Vtop)) (N.iv_const 1)))
  | "pred" -> Some (Vint (N.iv_sub (iv_of (List.nth_opt nol 0 |> Option.value ~default:Vtop)) (N.iv_const 1)))
  | "~-" -> Some (Vint (N.iv_neg (iv_of (List.nth_opt nol 0 |> Option.value ~default:Vtop))))
  | "/" | "mod" | "Int.div" | "Int.rem" ->
      (match nol with
      | [ _; b ] ->
          let bi = iv_of b in
          if ctx.depth = 0 && bi.N.iknown && N.iv_contains_zero bi then
            emit ctx ~code:"SRC021" ~loc
              ~msg:
                (Printf.sprintf
                   "integer %s by a possibly-zero denominator (%s)"
                   (if k = "/" || k = "Int.div" then "division" else "mod")
                   (N.iv_to_string ~names bi))
              ~context:[ ("interval", N.iv_to_string ~names bi) ]
      | _ -> ());
      Some (Vint N.iv_top)
  | "land" -> (
      match nol with
      | [ a; b ] -> (
          match (iv_point (iv_of a), iv_point (iv_of b)) with
          | _, Some m when m >= 0 ->
              Some (Vint (N.iv_range (N.Lin (N.lin_const 0)) (N.Lin (N.lin_const m))))
          | Some m, _ when m >= 0 ->
              Some (Vint (N.iv_range (N.Lin (N.lin_const 0)) (N.Lin (N.lin_const m))))
          | _ -> Some (Vint N.iv_top))
      | _ -> Some (Vint N.iv_top))
  | "lor" | "lxor" | "lsl" | "lsr" | "asr" | "lnot" -> Some (Vint N.iv_top)
  | "abs" -> (
      match nol with
      | [ a ] ->
          let x = iv_of a in
          if N.bound_le ~assume:ctx.assume (N.Lin (N.lin_const 0)) x.N.ilo then
            Some (Vint x)
          else Some (Vint { N.ilo = N.Lin (N.lin_const 0); ihi = N.Pinf; iknown = x.N.iknown })
      | _ -> Some (Vint N.iv_top))
  | "+." | "-." | "*." -> (
      match nol with
      | [ a; b ] ->
          let x = fv_of a and y = fv_of b in
          Some
            (Vflt
               (match k with
               | "+." -> N.fv_add x y
               | "-." -> N.fv_sub x y
               | _ -> N.fv_mul x y))
      | _ -> Some (Vflt N.fv_top))
  | "~-." -> (
      match nol with
      | [ a ] -> Some (Vflt (N.fv_neg (fv_of a)))
      | _ -> Some (Vflt N.fv_top))
  | "/." | "Float.div" -> (
      match nol with
      | [ a; b ] ->
          let x = fv_of a and y = fv_of b in
          if y.N.fknown && N.fv_may_zero y then
            src021
              (Printf.sprintf "float division by a possibly-zero denominator (%s)"
                 (N.fv_to_string y))
              y;
          Some (Vflt (N.fv_div x y))
      | _ -> Some (Vflt N.fv_top))
  | "sqrt" | "Float.sqrt" -> (
      match nol with
      | [ a ] ->
          let x = fv_of a in
          if x.N.fknown && N.fv_may_neg x then
            src021
              (Printf.sprintf "sqrt of a possibly-negative argument (%s)"
                 (N.fv_to_string x))
              x;
          Some (Vflt (N.fv_sqrt x))
      | _ -> Some (Vflt N.fv_top))
  | "log" | "Float.log" | "log10" | "Float.log10" -> (
      match nol with
      | [ a ] ->
          let x = fv_of a in
          if x.N.fknown && N.fv_may_nonpos x then
            src021
              (Printf.sprintf "log of a possibly-nonpositive argument (%s)"
                 (N.fv_to_string x))
              x;
          let r = N.fv_log x in
          if k = "log" || k = "Float.log" then Some (Vflt r)
          else Some (Vflt { r with N.flo = neg_infinity; fhi = infinity; nz = false })
      | _ -> Some (Vflt N.fv_top))
  | "exp" | "Float.exp" -> (
      match nol with
      | [ a ] -> Some (Vflt (N.fv_exp (fv_of a)))
      | _ -> Some (Vflt N.fv_top))
  | "**" | "Float.pow" -> (
      match nol with
      | [ a; b ] ->
          let x = fv_of a in
          if x.N.fknown && N.fv_may_neg x then
            src021
              (Printf.sprintf "** with a possibly-negative base (%s)"
                 (N.fv_to_string x))
              x;
          Some (Vflt (N.fv_pow x (fv_of b)))
      | _ -> Some (Vflt N.fv_top))
  | "abs_float" | "Float.abs" -> (
      match nol with
      | [ a ] -> Some (Vflt (N.fv_abs (fv_of a)))
      | _ -> Some (Vflt N.fv_top))
  | "min" | "max" | "Float.min" | "Float.max" -> (
      match nol with
      | [ (Vint x); (Vint y) ] ->
          Some (Vint (if lc = "min" then N.iv_min x y else N.iv_max x y))
      | [ ((Vflt _ | Vint _) as a); ((Vflt _ | Vint _) as b) ] ->
          Some
            (Vflt
               (if lc = "min" then N.fv_min (fv_of a) (fv_of b)
                else N.fv_max (fv_of a) (fv_of b)))
      | _ -> Some Vtop)
  | "=" | "<>" | "<" | ">" | "<=" | ">=" | "==" | "!=" | "Float.equal"
  | "Int.equal" -> (
      match nol with
      | [ a; b ] ->
          if ctx.depth = 0 then
            List.iter
              (fun v ->
                match v with
                | Vflt f when f.N.fnan ->
                    emit ctx ~code:"SRC023" ~loc
                      ~msg:
                        (Printf.sprintf
                           "float comparison with a may-be-NaN operand (%s); \
                            NaN comparisons are always false"
                           (N.fv_to_string f))
                      ~context:[ ("interval", N.fv_to_string f) ]
                | _ -> ())
              [ a; b ];
          Some (Vbool (decide_cmp ctx k a b))
      | _ -> Some (Vbool None))
  | "compare" | "Float.compare" | "Int.compare" -> Some (Vint N.iv_top)
  | "not" -> (
      match nol with
      | [ Vbool (Some b) ] -> Some (Vbool (Some (not b)))
      | _ -> Some (Vbool None))
  | "ref" -> (
      match nol with
      | [ v ] -> Some (Vref { c_val = v; c_local = ctx.kernel <> None })
      | _ -> None)
  | "!" -> (
      match nol with
      | [ Vref c ] -> Some c.c_val
      | [ _ ] -> Some Vtop
      | _ -> None)
  | ":=" -> (
      match nol with
      | [ tgt; v ] ->
          (match tgt with
          | Vref c ->
              if c.c_local then c.c_val <- merge_cell ctx c.c_val v
              else begin
                (match ctx.kernel with
                | Some kc -> kc.k_escaped <- true
                | None -> ());
                c.c_val <- merge_cell ctx c.c_val v
              end
          | _ -> (
              match ctx.kernel with
              | Some kc -> kc.k_escaped <- true
              | None -> ()));
          Some (Vcon ("()", None))
      | _ -> None)
  | "incr" | "decr" -> (
      match nol with
      | [ Vref c ] ->
          let one = N.iv_const 1 in
          let nv =
            match c.c_val with
            | Vint iv ->
                Vint (if k = "incr" then N.iv_add iv one else N.iv_sub iv one)
            | _ -> Vtop
          in
          if not c.c_local then (
            match ctx.kernel with
            | Some kc -> kc.k_escaped <- true
            | None -> ());
          c.c_val <- merge_cell ctx c.c_val nv;
          Some (Vcon ("()", None))
      | [ _ ] ->
          (match ctx.kernel with
          | Some kc -> kc.k_escaped <- true
          | None -> ());
          Some (Vcon ("()", None))
      | _ -> None)
  | "fst" -> (
      match nol with
      | [ Vtup (a :: _) ] -> Some a
      | [ _ ] -> Some Vtop
      | _ -> None)
  | "snd" -> (
      match nol with
      | [ Vtup [ _; b ] ] -> Some b
      | [ _ ] -> Some Vtop
      | _ -> None)
  | "ignore" -> Some (Vcon ("()", None))
  | "float_of_int" | "Float.of_int" -> (
      match nol with
      | [ a ] -> Some (Vflt (N.fv_of_iv (iv_of a)))
      | _ -> Some (Vflt N.fv_top))
  | "int_of_float" | "truncate" | "Float.to_int" -> Some (Vint N.iv_top)
  | "float_of_string" | "Float.of_string" -> Some (Vflt N.fv_nan)
  | "Float.is_nan" | "Float.is_finite" | "Float.is_integer" ->
      Some (Vbool None)
  | "raise" | "raise_notrace" | "failwith" | "invalid_arg" | "exit" ->
      Some Vtop
  | "Array.length" | "Bytes.length" | "String.length" | "Array1.dim" -> (
      match nol with
      | [ Varr a ] -> Some (Vint a.a_len)
      | [ Vsym s ] -> Some (Vint (len_of ctx.g s))
      | [ _ ] -> Some (Vint { N.iv_top with N.ilo = N.Lin (N.lin_const 0) })
      | _ -> None)
  | "Array.get" | "Array.unsafe_get" | "Array1.get" | "Array1.unsafe_get" -> (
      match nol with
      | [ tgt; idx ] ->
          let unsafe = lc = "unsafe_get" in
          check_access ?head ctx ~loc ~write:false ~unsafe tgt (iv_of idx);
          (* an element nobody stored is an unknown of its own *)
          Some
            (match tgt with
            | Varr { a_elem = Vtop; _ } | Vtop | Vsym _ | Vint _ -> fresh ctx
            | Varr a -> a.a_elem
            | _ -> Vtop)
      | _ -> Some Vtop)
  | "Array.set" | "Array.unsafe_set" | "Array1.set" | "Array1.unsafe_set" -> (
      match nol with
      | [ tgt; idx; v ] ->
          let unsafe = lc = "unsafe_set" in
          check_access ?head ctx ~loc ~write:true ~unsafe ?wkey tgt (iv_of idx);
          (match tgt with
          | Varr a -> a.a_elem <- merge_cell ctx a.a_elem v
          | _ -> ());
          Some (Vcon ("()", None))
      | _ -> Some (Vcon ("()", None)))
  | "Array.make" | "Array.create" -> (
      match nol with
      | [ n; v ] ->
          Some
            (Varr { a_elem = v; a_len = iv_of n; a_local = ctx.kernel <> None })
      | _ -> None)
  | "Array.create_float" -> (
      match nol with
      | [ n ] ->
          Some
            (Varr
               {
                 a_elem = Vflt N.fv_top;
                 a_len = iv_of n;
                 a_local = ctx.kernel <> None;
               })
      | _ -> None)
  | "Array.init" -> (
      match nol with
      | [ n; f ] ->
          let ni = iv_of n in
          let idx =
            Vint
              {
                N.ilo = N.Lin (N.lin_const 0);
                ihi = N.bound_add_const (-1) ni.N.ihi;
                iknown = ni.N.iknown;
              }
          in
          let elem = apply_value ctx f [ (Nolabel, idx) ] in
          Some (Varr { a_elem = elem; a_len = ni; a_local = ctx.kernel <> None })
      | _ -> None)
  | "Array.copy" -> (
      match nol with
      | [ Varr a ] ->
          Some
            (Varr
               {
                 a_elem = a.a_elem;
                 a_len = a.a_len;
                 a_local = ctx.kernel <> None;
               })
      | [ _ ] -> Some Vtop
      | _ -> None)
  | "Array.sub" -> (
      match nol with
      | [ a; _; len ] ->
          Some
            (Varr
               {
                 a_elem = (match a with Varr a -> a.a_elem | _ -> Vtop);
                 a_len = iv_of len;
                 a_local = ctx.kernel <> None;
               })
      | _ -> None)
  | "Array.append" -> (
      match nol with
      | [ a; b ] ->
          let la = (match a with Varr x -> x.a_len | _ -> N.iv_top) in
          let lb = (match b with Varr x -> x.a_len | _ -> N.iv_top) in
          let el =
            join
              (match a with Varr x -> x.a_elem | _ -> Vtop)
              (match b with Varr x -> x.a_elem | _ -> Vtop)
          in
          Some
            (Varr
               { a_elem = el; a_len = N.iv_add la lb; a_local = ctx.kernel <> None })
      | _ -> None)
  | "Array.fill" -> (
      match nol with
      | [ tgt; pos; len; v ] ->
          check_range_write ctx ~loc ?wkey tgt (iv_of pos) (iv_of len);
          (match tgt with
          | Varr a -> a.a_elem <- merge_cell ctx a.a_elem v
          | _ -> ());
          Some (Vcon ("()", None))
      | _ -> None)
  | "Array.blit" -> (
      match nol with
      | [ src; _; dst; dpos; len ] ->
          check_range_write ctx ~loc ?wkey dst (iv_of dpos) (iv_of len);
          (match (dst, src) with
          | Varr d, Varr s -> d.a_elem <- merge_cell ctx d.a_elem s.a_elem
          | Varr d, _ -> d.a_elem <- merge_cell ctx d.a_elem Vtop
          | _ -> ());
          Some (Vcon ("()", None))
      | _ -> None)
  | "Array.of_list" ->
      Some (Varr { a_elem = Vtop; a_len = N.iv_top; a_local = ctx.kernel <> None })
  | _ -> None

and decide_cmp ctx op a b =
  match (a, b) with
  | Vbool (Some x), Vbool (Some y) when op = "=" || op = "==" -> Some (x = y)
  | Vbool (Some x), Vbool (Some y) when op = "<>" || op = "!=" -> Some (x <> y)
  | Vint x, Vint y -> (
      let le p q = N.bound_le ~assume:ctx.assume p q in
      let lt p q = le (N.bound_add_const 1 p) q in
      match op with
      | "<" ->
          if lt x.N.ihi y.N.ilo then Some true
          else if le y.N.ihi x.N.ilo then Some false
          else None
      | "<=" ->
          if le x.N.ihi y.N.ilo then Some true
          else if lt y.N.ihi x.N.ilo then Some false
          else None
      | ">" ->
          if lt y.N.ihi x.N.ilo then Some true
          else if le x.N.ihi y.N.ilo then Some false
          else None
      | ">=" ->
          if le y.N.ihi x.N.ilo then Some true
          else if lt x.N.ihi y.N.ilo then Some false
          else None
      | "=" | "==" | "Int.equal" ->
          if le x.N.ihi y.N.ilo && le y.N.ihi x.N.ilo then Some true
          else if lt x.N.ihi y.N.ilo || lt y.N.ihi x.N.ilo then Some false
          else None
      | "<>" | "!=" ->
          if lt x.N.ihi y.N.ilo || lt y.N.ihi x.N.ilo then Some true
          else if le x.N.ihi y.N.ilo && le y.N.ihi x.N.ilo then Some false
          else None
      | _ -> None)
  | _ -> None

(* ---------- access checks: SRC020 (kernel writes) and SRC022 ---------- *)

and check_access ?wkey ?head ctx ~loc ~write ~unsafe target idxi =
  match ctx.kernel with
  | Some kc when write ->
      let local = match target with Varr a -> a.a_local | _ -> false in
      if not local then begin
        kc.k_writes <- kc.k_writes + 1;
        kc.k_all <-
          Some
            (match kc.k_all with
            | None -> idxi
            | Some j -> N.iv_join j idxi);
        let names = sym_name ctx.g in
        match write_stride ctx kc idxi with
        | Some stride -> (
            let id =
              match (target, wkey) with
              | Varr a, _ -> Some (Wphys a)
              | _, Some k -> Some (Wname k)
              | _, None -> None
            in
            let same_array (id', _) =
              match (id, id') with
              | Some (Wphys a), Wphys b -> a == b
              | Some (Wname a), Wname b -> String.equal a b
              | _ -> false
            in
            match List.find_opt same_array kc.k_strides with
            | Some (_, other) when other <> stride ->
                kc.k_flagged <- kc.k_flagged + 1;
                emit ctx ~code:"SRC020" ~loc
                  ~msg:
                    (Printf.sprintf
                       "kernel writes one array at strides %d and %d: the \
                        parties' slices overlap"
                       other stride)
                  ~context:
                    [
                      ("index", N.iv_to_string ~names idxi);
                      ("strides", Printf.sprintf "%d,%d" other stride);
                    ]
            | Some _ -> ()
            | None ->
                Option.iter
                  (fun id -> kc.k_strides <- (id, stride) :: kc.k_strides)
                  id)
        | None -> (
          match kc.k_sym with
          | Some _ -> kc.k_pending <- (ctx.file, loc, idxi) :: kc.k_pending
          | None ->
              kc.k_flagged <- kc.k_flagged + 1;
              emit ctx ~code:"SRC020" ~loc
                ~msg:
                  (Printf.sprintf
                     "kernel write index %s not provably within the party's \
                      range %s"
                     (N.iv_to_string ~names idxi)
                     (N.iv_to_string ~names
                        (N.iv_range kc.ob_lo kc.ob_hi)))
                ~context:
                  [
                    ("index", N.iv_to_string ~names idxi);
                    ( "obligation",
                      N.iv_to_string ~names (N.iv_range kc.ob_lo kc.ob_hi) );
                  ])
      end
  | Some _ -> ()
  | None ->
      if ctx.depth = 0 && ctx.hot then begin
        let names = sym_name ctx.g in
        let len =
          match target with
          | Varr a -> Some a.a_len
          | Vsym s -> Some (len_of ctx.g s)
          | _ -> None
        in
        let proven =
          match len with
          | Some l ->
              N.iv_subset ~assume:ctx.assume idxi
                ~lo:(N.Lin (N.lin_const 0))
                ~hi:(N.bound_add_const (-1) l.N.ilo)
          | None -> false
        in
        if unsafe then
          record_unchecked ctx.g ctx.file
            (Option.value head ~default:loc)
            proven;
        if unsafe && not proven then
          emit ctx ~code:"SRC022" ~loc
            ~msg:
              (Printf.sprintf
                 "unsafe array access with no backing interval fact (index %s)"
                 (N.iv_to_string ~names idxi))
            ~context:[ ("index", N.iv_to_string ~names idxi) ]
        else if (not proven) && idxi.N.iknown then begin
          let neg =
            match idxi.N.ilo with
            | N.Lin _ ->
                N.bound_le ~assume:ctx.assume idxi.N.ilo
                  (N.Lin (N.lin_const (-1)))
            | _ -> false
          in
          let high =
            match (len, idxi.N.ihi) with
            | Some l, N.Lin _ -> (
                match l.N.ihi with
                | N.Lin _ -> N.bound_le ~assume:ctx.assume l.N.ihi idxi.N.ihi
                | _ -> false)
            | _ -> false
          in
          if neg || high then
            emit ctx ~code:"SRC022" ~loc
              ~msg:
                (Printf.sprintf
                   "array index %s not contained in the known length bound%s"
                   (N.iv_to_string ~names idxi)
                   (match len with
                   | Some l -> " [0, " ^ N.iv_to_string ~names l ^ ")"
                   | None -> ""))
              ~context:[ ("index", N.iv_to_string ~names idxi) ]
        end
      end

(* An unchecked access counts as proven only if every depth-0 visit
   proved it; [touched] lets a fuel abort take the proof back. *)
and record_unchecked g file loc proven =
  let p = loc.Location.loc_start in
  let key = (file, p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol) in
  let before = Option.value (Hashtbl.find_opt g.unchecked key) ~default:true in
  Hashtbl.replace g.unchecked key (before && proven);
  g.touched <- key :: g.touched

(* The stride a shared kernel write provably keeps to: 1 when the index
   lies in the party's rows [lo, hi-1]; at a range site, s >= 2 when it
   lies in [s lo, s hi - 1], the rows of a row-interleaved array of s
   entries per row. s is read off the index's lower bound: the
   coefficient of lo, or of hi when lo is absent (a row placed from the
   range's end, such as a peeled last row s (hi - 1)). None when neither
   is provable. *)
and write_stride ctx kc idxi =
  let within lo hi = N.iv_subset ~assume:ctx.assume idxi ~lo ~hi in
  if within kc.ob_lo kc.ob_hi then Some 1
  else
    match (kc.k_sym, kc.ob_lo, kc.ob_hi, idxi.N.ilo) with
    | None, N.Lin lo, N.Lin hi, N.Lin ilo -> (
        let coefficient (l : N.lin) =
          match l.N.terms with
          | [ (sym, 1) ] -> List.assoc_opt sym ilo.N.terms
          | _ -> None
        in
        match (lo.N.c, coefficient lo, coefficient hi) with
        | 0, Some s, _ | 0, None, Some s when s >= 2 ->
            let lo_s = N.lin_scale s lo
            and hi_s = N.lin_add_const (s - 1) (N.lin_scale s hi) in
            if within (N.Lin lo_s) (N.Lin hi_s) then Some s else None
        | _ -> None)
    | _ -> None

and check_range_write ?wkey ctx ~loc target pos len =
  let hi = N.bound_add_const (-1) (N.iv_add pos len).N.ihi in
  let iv = { N.ilo = pos.N.ilo; ihi = hi; iknown = pos.N.iknown && len.N.iknown } in
  check_access ?wkey ctx ~loc ~write:true ~unsafe:false target iv

(* ---------- kernel sites ---------- *)

and analyze_site ctx env loc runner ~range args =
  let vargs = eval_args ctx env args in
  if ctx.depth > 0 then Vtop
  else begin
    let line = loc.Location.loc_start.Lexing.pos_lnum in
    let col =
      loc.Location.loc_start.Lexing.pos_cnum
      - loc.Location.loc_start.Lexing.pos_bol
    in
    let key = (ctx.file, line, col) in
    if Hashtbl.mem ctx.g.site_seen key then Vtop
    else begin
      Hashtbl.replace ctx.g.site_seen key ();
      let record status writes =
        ctx.g.sites <-
          {
            ks_file = ctx.file;
            ks_line = line;
            ks_runner = runner;
            ks_status = status;
            ks_writes = writes;
          }
          :: ctx.g.sites
      in
      let body =
        List.fold_left
          (fun acc (l, v) ->
            match (l, v) with Nolabel, Vfun cl -> Some cl | _ -> acc)
          None vargs
      in
      match body with
      | None ->
          record Unknown 0;
          Vtop
      | Some cl ->
          let kc, site_args, assume =
            if range then begin
              let slo = fresh_sym ctx.g "lo" and shi = fresh_sym ctx.g "hi" in
              let lo_l = N.lin_sym slo and hi_l = N.lin_sym shi in
              let kc =
                {
                  ob_lo = N.Lin lo_l;
                  ob_hi = N.Lin (N.lin_add_const (-1) hi_l);
                  k_sym = None;
                  k_writes = 0;
                  k_flagged = 0;
                  k_escaped = false;
                  k_pending = [];
                  k_all = None;
                  k_strides = [];
                }
              in
              let site_args =
                [ (Labelled "lo", Vint (N.iv_of_sym slo));
                  (Labelled "hi", Vint (N.iv_of_sym shi)) ]
              in
              (kc, site_args, [ N.lin_sub hi_l lo_l; lo_l ])
            end
            else begin
              let sk = fresh_sym ctx.g "party" in
              let kl = N.lin_sym sk in
              let kc =
                {
                  ob_lo = N.Lin kl;
                  ob_hi = N.Lin kl;
                  k_sym = Some sk;
                  k_writes = 0;
                  k_flagged = 0;
                  k_escaped = false;
                  k_pending = [];
                  k_all = None;
                  k_strides = [];
                }
              in
              (kc, [ (Nolabel, Vint (N.iv_of_sym sk)) ], [ kl ])
            end
          in
          let ctx' =
            {
              ctx with
              file = cl.f_file;
              modname = cl.f_module;
              hot = cl.f_hot;
              stack = cl.f_name :: ctx.stack;
              kernel = Some kc;
              assume;
            }
          in
          let fuel_died = ref false in
          (try ignore (apply_fn ctx' ~havoc_opt:true cl.f_env cl.f_body site_args)
           with Fuel -> fuel_died := true);
          (match (kc.k_pending, kc.k_sym, kc.k_all) with
          | [], _, _ -> ()
          | _ :: _, Some sk, Some all when party_disjoint ~assume sk all -> ()
          | pend, _, _ ->
              let names = sym_name ctx.g in
              List.iter
                (fun (file, wl, iv) ->
                  kc.k_flagged <- kc.k_flagged + 1;
                  emit_at ctx.g ~code:"SRC020" ~file ~loc:wl
                    ~msg:
                      (Printf.sprintf
                         "party write index %s is neither the party index nor \
                          provably disjoint across parties"
                         (N.iv_to_string ~names iv))
                    ~context:[ ("index", N.iv_to_string ~names iv) ])
                pend);
          let status =
            if kc.k_flagged > 0 then Flagged
            else if kc.k_escaped || !fuel_died then Unknown
            else Proven
          in
          record status kc.k_writes;
          if !fuel_died then raise Fuel else Vtop
    end
  end

(* ---------- driver ---------- *)

(* A fuel abort leaves the function's proofs unfinished: every unchecked
   access it visited goes back to unproven. *)
let take_back g =
  List.iter (fun key -> Hashtbl.replace g.unchecked key false) g.touched

let mk_ctx g file modname hot =
  {
    g;
    file;
    modname;
    hot;
    fuel = ref g.fuel_budget;
    depth = 0;
    stack = [];
    kernel = None;
    assume = [];
    widen = false;
  }

let rec module_items g queue file hot modname env items =
  List.fold_left (module_item g queue file hot modname) env items

and module_item g queue file hot modname env (st : structure_item) =
  match st.pstr_desc with
  | Pstr_value (_, vbs) ->
      List.fold_left
        (fun env vb ->
          match pat_var vb.pvb_pat with
          | Some n when is_fun_expr vb.pvb_expr ->
              let cl =
                {
                  f_name = modname ^ "." ^ n;
                  f_body = vb.pvb_expr;
                  f_env = env;
                  f_file = file;
                  f_module = modname;
                  f_hot = hot;
                }
              in
              let v = Vfun cl in
              if not (Hashtbl.mem g.index cl.f_name) then
                Hashtbl.add g.index cl.f_name v;
              Queue.add cl queue;
              SMap.add n v env
          | _ ->
              let ctx = mk_ctx g file modname hot in
              g.touched <- [];
              let v =
                try eval ctx env vb.pvb_expr
                with Fuel ->
                  g.exhausted <- g.exhausted + 1;
                  take_back g;
                  Vtop
              in
              let env = bind_pat ctx env vb.pvb_pat v in
              (match pat_var vb.pvb_pat with
              | Some n ->
                  if not (Hashtbl.mem g.index (modname ^ "." ^ n)) then
                    Hashtbl.add g.index (modname ^ "." ^ n) v
              | None -> ());
              env)
        env vbs
  | Pstr_module
      {
        pmb_name = { txt = Some sub; _ };
        pmb_expr = { pmod_desc = Pmod_structure sts; _ };
        _;
      } ->
      ignore (module_items g queue file hot sub env sts);
      env
  | Pstr_eval (e, _) ->
      let ctx = mk_ctx g file modname hot in
      g.touched <- [];
      (try ignore (eval ctx env e)
       with Fuel ->
         g.exhausted <- g.exhausted + 1;
         take_back g);
      env
  | _ -> env

let analyze_function g cl =
  g.functions <- g.functions + 1;
  let ctx =
    { (mk_ctx g cl.f_file cl.f_module cl.f_hot) with stack = [ cl.f_name ] }
  in
  g.touched <- [];
  try ignore (apply_fn ctx ~havoc_opt:true cl.f_env cl.f_body [])
  with Fuel ->
    g.exhausted <- g.exhausted + 1;
    take_back g

let analyze ?(fuel = default_fuel) files =
  let g =
    {
      index = Hashtbl.create 256;
      syms = Hashtbl.create 64;
      sym_count = 0;
      seen = Hashtbl.create 64;
      findings = [];
      sites = [];
      site_seen = Hashtbl.create 64;
      walked = Hashtbl.create 64;
      fuel_budget = fuel;
      functions = 0;
      exhausted = 0;
      lens = Hashtbl.create 64;
      unchecked = Hashtbl.create 64;
      touched = [];
      moved = 0;
    }
  in
  let queue = Queue.create () in
  List.iter
    (fun (path, hot, ast) ->
      ignore
        (module_items g queue path hot (Cfg.module_of_path path) SMap.empty ast))
    files;
  Queue.iter (fun cl -> analyze_function g cl) queue;
  let unchecked =
    Hashtbl.fold
      (fun (uc_file, uc_line, uc_col) uc_proven acc ->
        { uc_file; uc_line; uc_col; uc_proven } :: acc)
      g.unchecked []
    |> List.sort compare
  in
  ( List.rev g.findings,
    {
      st_sites = List.rev g.sites;
      st_functions = g.functions;
      st_fuel_exhausted = g.exhausted;
      st_unchecked = unchecked;
    } )
