(* Source-level lint over the project's own OCaml code.

   Files are parsed with the stock compiler-libs front end
   (Parse.implementation / Parse.interface) and walked with
   Ast_iterator; no typing pass is run, so the float/int judgements are
   syntactic over-approximations — precise enough for the conventions
   they enforce, and the suppression/baseline layers absorb the
   deliberate exceptions. *)

module Diagnostics = Mrm_check.Diagnostics

type finding = {
  code : string;
  severity : Diagnostics.severity;
  file : string;
  line : int;
  col : int;
  message : string;
  context : (string * string) list;
}

let compare_finding a b =
  match compare a.file b.file with
  | 0 -> begin
      match compare a.line b.line with
      | 0 -> begin
          match compare a.col b.col with 0 -> compare a.code b.code | c -> c
        end
      | c -> c
    end
  | c -> c

let to_diagnostic f =
  Diagnostics.with_location ~file:f.file ~line:f.line ~col:f.col
    (Diagnostics.make f.severity ~code:f.code ~context:f.context f.message)

let rule_table =
  [
    ( "SRC001",
      Diagnostics.Warning,
      "float equality: =, <> or compare applied to a float-typed operand" );
    ( "SRC002",
      Diagnostics.Warning,
      "polymorphic comparison (=, <>, compare, min, max) in a hot-path \
       module (lib/linalg, lib/core, lib/engine)" );
    ("SRC003", Diagnostics.Error, "Obj.magic or *.unsafe_* access");
    ( "SRC004",
      Diagnostics.Warning,
      "exception-swallowing handler: try ... with _ ->" );
    ( "SRC005",
      Diagnostics.Error,
      "non-atomic write to shared mutable state inside a parallel job \
       (lib/engine, lib/obs)" );
    ( "SRC006",
      Diagnostics.Warning,
      "direct terminal output from library code (everything goes through \
       sinks)" );
    ( "SRC010",
      Diagnostics.Error,
      "lock acquired but not released on some path (exception paths \
       included); wrap the critical section in Mutex.protect" );
    ( "SRC011",
      Diagnostics.Warning,
      "blocking call (Unix I/O, Thread.join, Condition.wait, queue pop, \
       solver entry) reachable while a mutex is held" );
    ( "SRC012",
      Diagnostics.Error,
      "lock-order cycle across the program-wide acquisition graph \
       (deadlock potential)" );
    ( "SRC013",
      Diagnostics.Error,
      "module-level mutable state written from a thread closure without \
       an Atomic or a held lock" );
    ( "SRC014",
      Diagnostics.Warning,
      "Condition.wait without a re-check loop, or signal/broadcast \
       without the associated mutex held" );
    ( "SRC020",
      Diagnostics.Error,
      "write to a shared array inside a partitioned-kernel body not \
       provably within the job's [lo,hi) range (or [s*lo,s*hi) at a \
       row-interleaved stride s), or one array written at two strides \
       (abstract interpretation)" );
    ( "SRC021",
      Diagnostics.Warning,
      "division by a possibly-zero value, or log/sqrt/** applied to an \
       argument that may leave the function's domain, outside a \
       recognized guard" );
    ( "SRC022",
      Diagnostics.Warning,
      "array index in a hot-path module not provably within the array's \
       known length, or unsafe access without a supporting interval fact" );
    ( "SRC023",
      Diagnostics.Warning,
      "ordered float comparison with an operand that may be NaN (0./0., \
       log of a possibly non-positive value, unvalidated wire float)" );
    ( "SRC024",
      Diagnostics.Warning,
      "probability-named value assigned an interval escaping [0,1] with \
       no clamp" );
    ("SRC090", Diagnostics.Error, "file does not parse");
  ]

(* One paragraph + a minimal firing example per rule, behind
   [lint-src --list-rules] / [--explain]. The SRC02x examples are
   verbatim lines of their defective fixtures under test/fixtures/src/
   (asserted by test_absint), so the documentation cannot drift from
   the code that demonstrates it. *)
let rule_docs =
  [
    ( "SRC001",
      "Exact float comparison ([=], [<>], [compare]) is almost never \
       what numerical code means: two mathematically equal expressions \
       rarely share a bit pattern after rounding. Compare against a \
       tolerance, or suppress inline where the exact-bit check is the \
       point (sentinels, round-trip tests).",
      "if x = 0.1 +. 0.2 then ..." );
    ( "SRC002",
      "The polymorphic comparison walker boxes floats and defeats \
       unboxing, which matters in the hot-path modules (lib/linalg, \
       lib/core, lib/engine). Use the monomorphic Float/Int operations \
       there.",
      "if a > b then ...   (* a, b of unknown type in lib/core *)" );
    ( "SRC003",
      "Obj.magic defeats the type system entirely and *.unsafe_* \
       accesses skip bounds checks; both turn logic errors into memory \
       corruption. The engine's kernels earn their unchecked accesses \
       through the range-partition invariant — everything else pays \
       for the check.",
      "Obj.magic x" );
    ( "SRC004",
      "[try ... with _ ->] swallows Out_of_memory, Stack_overflow, \
       assertion failures and every future bug in the protected \
       expression. Match the exceptions the code can actually raise.",
      "try parse s with _ -> default" );
    ( "SRC005",
      "A closure handed to a parallel runner (Pool.run, parallel_for, \
       map_array, Kernel.for_ranges) must not write state shared with \
       other jobs unless the store index is provably job-private (the \
       range-disjoint convention). Non-atomic cross-job writes are \
       data races under OCaml 5's memory model.",
      "Pool.run pool (fun k -> total := !total + k)" );
    ( "SRC006",
      "Library code must not print to the terminal; output goes \
       through the sink abstraction so callers control formatting and \
       destination. print_*/Printf.printf belong in bin/.",
      "Printf.printf \"solved %d\\n\" n" );
    ( "SRC010",
      "A mutex acquired in a function is still held on some return or \
       exception path. The lock-set dataflow follows raises through \
       handlers and cleanup idioms (Fun.protect, Mutex.protect, local \
       wrappers); wrap the critical section in Mutex.protect.",
      "Mutex.lock t.mu; let r = work () in Mutex.unlock t.mu; r" );
    ( "SRC011",
      "A blocking call (Unix I/O, Thread.join, Condition.wait, queue \
       pop, solver entry points) is reachable while a mutex is held, \
       one level through the call graph: every contender stalls for \
       the duration. Move the blocking call outside the critical \
       section. Extend the frontier with --blocking Module.fn.",
      "Mutex.protect t.mu (fun () -> Unix.read fd buf 0 len)" );
    ( "SRC012",
      "Two threads acquire the same locks in opposite orders somewhere \
       in the program-wide acquisition graph — a deadlock waiting for \
       the right interleaving. Impose a global lock order.",
      "Mutex.lock a; Mutex.lock b  (* elsewhere: lock b; lock a *)" );
    ( "SRC013",
      "Module-level mutable state (ref, Hashtbl, Queue, Buffer) is \
       written from a thread-root closure (Thread.create, \
       Domain.spawn, pool runners) — directly or one call deep — \
       without an Atomic or a held lock. This is SRC005 generalized \
       across function boundaries.",
      "let hits = ref 0  ... Domain.spawn (fun () -> incr hits)" );
    ( "SRC014",
      "Condition.wait must sit in a re-check loop (spurious wakeups \
       are legal) and signal/broadcast must run with the associated \
       mutex held, or the wakeup can be lost between the test and the \
       wait.",
      "if not !ready then Condition.wait c m" );
    ( "SRC020",
      "Inside a partitioned-kernel body (Kernel.for_ranges/sweep, \
       Pool.run/run_pinned/parallel_for) every write to an \
       array that outlives the job must land in the job's own [lo,hi) \
       slice — that disjointness is the engine's whole memory-safety \
       argument. The abstract interpreter re-analyzes each body under \
       symbolic bounds and flags any store it cannot place inside the \
       range. A row-interleaved array of s entries per row may be \
       written at s*i + j (0 <= j < s) inside [s*lo, s*hi), as long as \
       every store to that array keeps the one stride s; proven bodies \
       are counted in the --strict summary and exempt the dynamic race \
       checker.",
      "for i = lo to hi do acc.(i) <- 0. done" );
    ( "SRC021",
      "The divisor (or the argument of log/sqrt/**) carries an \
       abstract interval that includes zero (resp. leaves the \
       function's domain) and no recognized guard ([<> 0.], [> 0.], \
       epsilon max) dominates the use. Division by zero silently \
       yields inf/nan and poisons every downstream moment.",
      "let mean = total /. count in" );
    ( "SRC022",
      "In the hot-path modules an array subscript's interval is not \
       contained in the array's known length — or an unsafe_get/set \
       has no interval fact at all — so the access can trap (or, \
       unsafe, corrupt memory) on some input. Hoist a bounds check or \
       tighten the loop bound.",
      "let third = Array.unsafe_get xs 3 in" );
    ( "SRC023",
      "An ordered float comparison has an operand that may be NaN \
       (0./0., log of a possibly non-positive value, a wire float \
       never validated with Float.is_nan/is_finite). Every ordered \
       comparison on NaN is false, so both branches of the surrounding \
       if are reachable in ways the code does not expect.",
      "if ratio < threshold then" );
    ( "SRC024",
      "A value whose name says probability (p, prob, weight, pi0, \
       mix…) is assigned an interval escaping [0,1] with no clamp in \
       sight. Out-of-range probabilities break the conditioning \
       identities silently — results stay finite but wrong.",
      "let weight = 1.2 in" );
    ( "SRC090",
      "The file does not parse with the stock compiler-libs front \
       end, so no other rule ran. The finding points at the first \
       syntax error.",
      "let f x = (   (* unterminated *)" );
  ]

let severity_of code =
  match List.find_opt (fun (c, _, _) -> c = code) rule_table with
  | Some (_, s, _) -> s
  | None -> Diagnostics.Error

(* ------------------------------------------------------------------ *)
(* Path classification                                                  *)

let normalize path = String.map (fun c -> if c = '\\' then '/' else c) path

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

type file_class = {
  hot : bool;  (** lib/linalg, lib/core, lib/engine: SRC002 applies *)
  library : bool;  (** under lib/: SRC006 applies *)
  parallel_host : bool;
      (** lib/engine, lib/obs, lib/server, lib/cluster: SRC005 applies —
          code that hands closures to the domain pool (or runs them from
          handler threads) *)
}

let classify path =
  let p = normalize path in
  let has sub = contains_sub ~sub p in
  {
    hot = has "lib/linalg/" || has "lib/core/" || has "lib/engine/";
    library = has "lib/";
    parallel_host =
      has "lib/engine/" || has "lib/obs/" || has "lib/server/"
      || has "lib/cluster/";
  }

(* ------------------------------------------------------------------ *)
(* Syntactic type guesses                                               *)

open Parsetree

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-."; "~+." ]

let float_fns =
  [
    "sqrt"; "exp"; "log"; "log10"; "log1p"; "expm1"; "abs_float";
    "float_of_int"; "float_of_string"; "ceil"; "floor"; "mod_float";
    "ldexp"; "copysign"; "hypot"; "atan2"; "atan"; "asin"; "acos"; "sin";
    "cos"; "tan"; "sinh"; "cosh"; "tanh";
  ]

let float_consts =
  [ "nan"; "infinity"; "neg_infinity"; "epsilon_float"; "max_float";
    "min_float" ]

(* Float.* members that do NOT return float — everything else in the
   Float module is treated as float-valued. *)
let float_module_non_float =
  [
    "equal"; "compare"; "to_int"; "to_string"; "is_finite"; "is_nan";
    "is_integer"; "sign_bit"; "classify_float";
  ]

let int_ops =
  [ "+"; "-"; "*"; "/"; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr";
    "~-"; "~+" ]

let int_fns = [ "succ"; "pred"; "abs"; "int_of_float"; "int_of_string";
                "int_of_char" ]

let length_fns = [ "Array"; "String"; "Bytes"; "List"; "Seq"; "Hashtbl";
                   "Queue"; "Stack" ]

let ident_path (e : expression) =
  match e.pexp_desc with Pexp_ident { txt; _ } -> Some txt | _ -> None

let rec known_float (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt = Lident n; _ } -> List.mem n float_consts
  | Pexp_ident { txt = Ldot (Lident "Float", n); _ } ->
      not (List.mem n float_module_non_float)
  | Pexp_apply (f, _) -> begin
      match ident_path f with
      | Some (Lident op) ->
          List.mem op float_ops || List.mem op float_fns
      | Some (Ldot (Lident "Float", n)) ->
          not (List.mem n float_module_non_float)
      | Some (Ldot (Lident "Stdlib", n)) ->
          List.mem n float_ops || List.mem n float_fns
      | _ -> false
    end
  | Pexp_constraint
      (_, { ptyp_desc = Ptyp_constr ({ txt = Lident "float"; _ }, []); _ }) ->
      true
  | Pexp_open (_, e) | Pexp_sequence (_, e) -> known_float e
  | Pexp_ifthenelse (_, a, Some b) -> known_float a || known_float b
  | _ -> false

(* "Immediate" in the unboxed sense: comparisons on these never hit the
   polymorphic walker once typed. Constants of any basic type are also
   excluded from SRC002 — [s = "x"] and [c = '\n'] are idiomatic. *)
let rec known_immediate (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer _ | Pconst_char _ | Pconst_string _) -> true
  | Pexp_construct ({ txt = Lident ("true" | "false" | "()" | "None"); _ }, None)
    ->
      true
  | Pexp_apply (f, _) -> begin
      match ident_path f with
      | Some (Lident op) ->
          List.mem op int_ops || List.mem op int_fns || op = "not"
          || op = "&&" || op = "||"
      | Some (Ldot (Lident m, "length")) -> List.mem m length_fns
      | Some (Ldot (Lident ("Int" | "Char" | "Bool"), _)) -> true
      | _ -> false
    end
  | Pexp_constraint
      ( _,
        {
          ptyp_desc =
            Ptyp_constr ({ txt = Lident ("int" | "char" | "bool"); _ }, []);
          _;
        } ) ->
      true
  | Pexp_open (_, e) | Pexp_sequence (_, e) -> known_immediate e
  | Pexp_ifthenelse (_, a, Some b) -> known_immediate a || known_immediate b
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Rule engine                                                          *)

type state = {
  path : string;
  cls : file_class;
  mutable findings : finding list;
  (* Some bound-names <=> inside a function literal passed to a
     parallel runner; the set over-approximates the names bound inside
     the closure (parameters, lets, for indices, match patterns). *)
  mutable job_locals : (string, unit) Hashtbl.t option;
}

let report st ~loc ~code ?(context = []) message =
  let pos = loc.Location.loc_start in
  st.findings <-
    {
      code;
      severity = severity_of code;
      file = st.path;
      line = pos.Lexing.pos_lnum;
      col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
      message;
      context;
    }
    :: st.findings

let expr_excerpt (e : expression) =
  (* short head description for diagnostics *)
  match ident_path e with
  | Some lid -> String.concat "." (Longident.flatten lid)
  | None -> (
      match e.pexp_desc with
      | Pexp_constant (Pconst_float (s, _)) -> s
      | Pexp_constant (Pconst_integer (s, _)) -> s
      | _ -> "<expr>")

let eq_like = [ "="; "<>" ]
let poly_cmp_fns = [ "compare"; "min"; "max" ]

let print_idents =
  [
    "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_float"; "print_char"; "print_bytes"; "prerr_string";
    "prerr_endline"; "prerr_newline"; "prerr_int"; "prerr_float";
    "prerr_char";
  ]

let format_print_fns =
  [ "printf"; "eprintf"; "print_string"; "print_newline"; "print_flush" ]

(* names bound by a pattern, added to [acc] *)
let rec pattern_names acc (p : pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Hashtbl.replace acc txt ()
  | Ppat_alias (p, { txt; _ }) ->
      Hashtbl.replace acc txt ();
      pattern_names acc p
  | Ppat_tuple ps -> List.iter (pattern_names acc) ps
  | Ppat_construct (_, Some (_, p)) -> pattern_names acc p
  | Ppat_variant (_, Some p) -> pattern_names acc p
  | Ppat_record (fields, _) ->
      List.iter (fun (_, p) -> pattern_names acc p) fields
  | Ppat_array ps -> List.iter (pattern_names acc) ps
  | Ppat_or (a, b) ->
      pattern_names acc a;
      pattern_names acc b
  | Ppat_constraint (p, _) | Ppat_lazy p | Ppat_open (_, p)
  | Ppat_exception p ->
      pattern_names acc p
  | _ -> ()

(* the head variable of an lvalue-ish expression: [x], [x.f], [!x] *)
let rec head_name (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Lident n; _ } -> Some n
  | Pexp_field (e, _) -> head_name e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident "!"; _ }; _ }, [ (_, e) ])
    ->
      head_name e
  | _ -> None

(* variable-like free identifiers (operators like [-] are global and
   irrelevant to the range-disjointness argument) *)
let free_names (e : expression) =
  let acc = Hashtbl.create 8 in
  let variable_like n =
    n <> "" && (n.[0] = '_' || (Char.lowercase_ascii n.[0] >= 'a' && Char.lowercase_ascii n.[0] <= 'z'))
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Lident n; _ } when variable_like n ->
              Hashtbl.replace acc n ()
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  Hashtbl.fold (fun k () l -> k :: l) acc []

(* Calls that hand closures to the domain pool. Matched by name so the
   rule survives aliasing like [let run = Pool.run]: any application of
   [run] / [parallel_for] / [map_array] / [for_ranges] (bare or
   module-qualified) whose trailing argument is a function literal. *)
let parallel_runners = [ "run"; "parallel_for"; "map_array"; "for_ranges" ]

let is_parallel_runner (f : expression) =
  match ident_path f with
  | Some (Lident n) -> List.mem n parallel_runners
  | Some (Ldot (_, n)) -> List.mem n parallel_runners
  | _ -> false

let local st name =
  match st.job_locals with
  | None -> true (* not in a job: everything is "local" for SRC005 *)
  | Some tbl -> Hashtbl.mem tbl name

let mark_local st name =
  match st.job_locals with
  | None -> ()
  | Some tbl -> Hashtbl.replace tbl name ()

(* SRC005 body: flag writes inside a parallel job that can race. An
   array store is accepted when the index mentions only names bound
   inside the job (the range-disjoint convention: each job writes its
   own slice); everything funneled through Atomic.* is an application
   and never matches these shapes. *)
let check_job_write st (e : expression) =
  if st.job_locals <> None && st.cls.parallel_host then begin
    let flag ~what target =
      report st ~loc:e.pexp_loc ~code:"SRC005"
        ~context:[ ("write", what); ("target", target) ]
        (Printf.sprintf
           "%s to shared %s inside a parallel job: use Atomic or write a \
            job-private range" what target)
    in
    match e.pexp_desc with
    | Pexp_setfield (obj, field, _) -> begin
        match head_name obj with
        | Some n when local st n -> ()
        | _ ->
            flag ~what:"field mutation"
              (Printf.sprintf "%s.%s" (expr_excerpt obj)
                 (String.concat "." (Longident.flatten field.txt)))
      end
    | Pexp_apply (f, args) -> begin
        match (ident_path f, args) with
        | Some (Lident ":="), (_, lhs) :: _ -> begin
            match head_name lhs with
            | Some n when local st n -> ()
            | _ -> flag ~what:"ref assignment" (expr_excerpt lhs)
          end
        | Some (Lident ("incr" | "decr")), (_, lhs) :: _ -> begin
            match head_name lhs with
            | Some n when local st n -> ()
            | _ -> flag ~what:"ref increment" (expr_excerpt lhs)
          end
        | Some (Ldot (Lident ("Array" | "Bytes" | "Float"), set)),
          (_, arr) :: (_, idx) :: _
          when set = "set" || set = "unsafe_set" -> begin
            match head_name arr with
            | Some n when local st n -> ()
            | _ ->
                let idx_names = free_names idx in
                let disjoint =
                  idx_names <> [] && List.for_all (local st) idx_names
                in
                if not disjoint then
                  flag ~what:"array store" (expr_excerpt arr)
          end
        | _ -> ()
      end
    | _ -> ()
  end

(* Ident-position checks (SRC003, SRC006) that apply to a name whether
   it stands alone or heads an application — the traversal does not
   re-visit applied heads, so these are called explicitly for both. *)
let check_ident_uses st (e : expression) =
  let loc = e.pexp_loc in
  (* SRC003: unsafe escapes *)
  (match ident_path e with
  | Some (Ldot (Lident "Obj", ("magic" | "repr" | "obj"))) ->
      report st ~loc ~code:"SRC003"
        ~context:[ ("ident", expr_excerpt e) ]
        "Obj.magic-style cast defeats the type system"
  | Some (Ldot (_, n))
    when String.length n > 7 && String.sub n 0 7 = "unsafe_" ->
      report st ~loc ~code:"SRC003"
        ~context:[ ("ident", expr_excerpt e) ]
        (Printf.sprintf "unchecked access %s skips bounds checking"
           (expr_excerpt e))
  | _ -> ());
  (* SRC006: terminal output from library code *)
  if st.cls.library then
    match ident_path e with
    | Some (Lident n) when List.mem n print_idents ->
        report st ~loc ~code:"SRC006"
          ~context:[ ("ident", n) ]
          (Printf.sprintf
             "`%s` writes to the terminal from library code; emit through \
              a sink or formatter argument instead"
             n)
    | Some (Ldot (Lident (("Printf" | "Format") as m), fn))
      when List.mem fn format_print_fns ->
        report st ~loc ~code:"SRC006"
          ~context:[ ("ident", m ^ "." ^ fn) ]
          (Printf.sprintf
             "`%s.%s` writes to std channels from library code; emit \
              through a sink or take a formatter"
             m fn)
    | _ -> ()

let check_expr st (e : expression) =
  let loc = e.pexp_loc in
  check_ident_uses st e;
  (* SRC002 (hot modules): bare polymorphic compare passed as a value is
     caught here; applied forms are handled below with operand guesses. *)
  (match e.pexp_desc with
  | Pexp_apply (f, ((_, a) :: _ as args)) -> begin
      let b_opt =
        match args with _ :: (_, b) :: _ -> Some b | _ -> None
      in
      let op_name =
        match ident_path f with
        | Some (Lident n) -> Some n
        | Some (Ldot (Lident "Stdlib", n)) -> Some n
        | _ -> None
      in
      match op_name with
      | Some op when List.mem op eq_like || List.mem op poly_cmp_fns ->
          let operands =
            a :: (match b_opt with Some b -> [ b ] | None -> [])
          in
          let n_args = List.length args in
          if List.exists known_float operands && op <> "min" && op <> "max"
          then
            report st ~loc ~code:"SRC001"
              ~context:
                [
                  ("op", op);
                  ("lhs", expr_excerpt a);
                  (match b_opt with
                  | Some b -> ("rhs", expr_excerpt b)
                  | None -> ("rhs", "<partial>"));
                ]
              (Printf.sprintf
                 "float %s `%s` is exact-bit comparison; use a tolerance, \
                  or suppress if this is a sentinel check"
                 (if op = "compare" then "ordering" else "equality")
                 op)
          else if
            st.cls.hot && n_args >= 2
            && not (List.exists known_immediate operands)
            && not (List.exists known_float operands)
          then
            report st ~loc ~code:"SRC002"
              ~context:[ ("op", op); ("lhs", expr_excerpt a) ]
              (Printf.sprintf
                 "polymorphic `%s` in a hot-path module walks the structure \
                  and cannot be unboxed; use a monomorphic comparison"
                 op)
      | _ -> ()
    end
  | Pexp_ident { txt = Lident "compare"; _ } when st.cls.hot ->
      report st ~loc ~code:"SRC002"
        ~context:[ ("op", "compare") ]
        "polymorphic `compare` passed as a value in a hot-path module; \
         use a monomorphic comparison function"
  | _ -> ());
  (* SRC004: exception-swallowing handlers *)
  (match e.pexp_desc with
  | Pexp_try (_, cases) ->
      List.iter
        (fun case ->
          let rec has_wildcard (p : pattern) =
            match p.ppat_desc with
            | Ppat_any -> true
            | Ppat_alias (p, _) -> has_wildcard p
            | Ppat_or (a, b) -> has_wildcard a || has_wildcard b
            | _ -> false
          in
          if case.pc_guard = None && has_wildcard case.pc_lhs then
            report st ~loc:case.pc_lhs.ppat_loc ~code:"SRC004"
              "catch-all `with _ ->` swallows every exception (including \
               Out_of_memory and Stack_overflow); match specific exceptions")
        cases
  | _ -> ());
  (* SRC005: racy writes inside parallel jobs *)
  check_job_write st e

(* ------------------------------------------------------------------ *)
(* Traversal                                                            *)

let iterator st =
  let default = Ast_iterator.default_iterator in
  let enter_binding_names (e : expression) =
    (* record names bound inside a job closure as we descend *)
    match e.pexp_desc with
    | Pexp_fun (_, _, p, _) ->
        Option.iter (fun tbl -> pattern_names tbl p) st.job_locals
    | Pexp_let (_, vbs, _) ->
        Option.iter
          (fun tbl -> List.iter (fun vb -> pattern_names tbl vb.pvb_pat) vbs)
          st.job_locals
    | Pexp_for ({ ppat_desc = Ppat_var { txt; _ }; _ }, _, _, _, _) ->
        mark_local st txt
    | Pexp_match (_, cases) | Pexp_function cases ->
        Option.iter
          (fun tbl ->
            List.iter (fun case -> pattern_names tbl case.pc_lhs) cases)
          st.job_locals
    | _ -> ()
  in
  let rec expr it (e : expression) =
    check_expr st e;
    enter_binding_names e;
    match e.pexp_desc with
    | Pexp_apply (f, args) when is_parallel_runner f -> begin
        (* descend into non-closure arguments in the enclosing scope,
           then into the trailing function literal as a parallel job *)
        expr it f;
        let rec is_fun (a : expression) =
          match a.pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> true
          | Pexp_open (_, e) | Pexp_constraint (e, _) -> is_fun e
          | _ -> false
        in
        List.iter
          (fun (_, (a : expression)) ->
            if is_fun a then begin
              let saved = st.job_locals in
              let tbl =
                match saved with
                | Some tbl -> Hashtbl.copy tbl
                | None -> Hashtbl.create 16
              in
              st.job_locals <- Some tbl;
              expr it a;
              st.job_locals <- saved
            end
            else expr it a)
          args
      end
    | Pexp_apply (({ pexp_desc = Pexp_ident _; _ } as f), args) ->
        (* the applied head's comparison judgement happened as part of
           this node; re-visiting it would double-report bare-`compare`.
           Its ident-position rules still apply. *)
        check_ident_uses st f;
        List.iter (fun (_, a) -> expr it a) args
    | _ -> default.expr it e
  in
  { default with expr }

(* ------------------------------------------------------------------ *)
(* Staged pipeline

   Parsing runs sequentially (the compiler-libs lexer keeps global
   state), but the per-file syntactic pass is a pure function of the
   parsetree, so callers may fan [analyze_parsed] out across a domain
   pool. The interprocedural pass (Cfg + Callgraph + Lockcheck) then
   runs once over every implementation in the program. *)

type ast = Impl of Parsetree.structure | Intf of Parsetree.signature

type parsed = {
  p_path : string;
  p_contents : string;
  p_ast : ast option;  (* None: did not parse; see p_parse_findings *)
  p_parse_findings : finding list;
}

let parse_source ~path contents =
  let lexbuf = Lexing.from_string contents in
  Lexing.set_filename lexbuf path;
  let error loc context =
    let pos = loc.Location.loc_start in
    {
      p_path = path;
      p_contents = contents;
      p_ast = None;
      p_parse_findings =
        [
          {
            code = "SRC090";
            severity = severity_of "SRC090";
            file = path;
            line = pos.Lexing.pos_lnum;
            col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
            message = "file does not parse";
            context;
          };
        ];
    }
  in
  try
    let ast =
      if Filename.check_suffix path ".mli" then
        Intf (Parse.interface lexbuf)
      else Impl (Parse.implementation lexbuf)
    in
    { p_path = path; p_contents = contents; p_ast = Some ast;
      p_parse_findings = [] }
  with
  | Syntaxerr.Error err -> error (Syntaxerr.location_of_error err) []
  | exn -> error Location.none [ ("exn", Printexc.to_string exn) ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_files paths =
  List.map (fun path -> parse_source ~path (read_file path)) paths

let apply_suppressions ~contents findings =
  let suppressions = Suppress.scan contents in
  List.filter
    (fun f ->
      not (Suppress.suppressed suppressions ~code:f.code ~line:f.line))
    findings

let analyze_parsed p =
  let st =
    { path = p.p_path; cls = classify p.p_path; findings = [];
      job_locals = None }
  in
  (match p.p_ast with
  | Some (Impl str) ->
      let it = iterator st in
      it.structure it str
  | Some (Intf sg) ->
      let it = iterator st in
      it.signature it sg
  | None -> ());
  apply_suppressions ~contents:p.p_contents
    (List.sort compare_finding (p.p_parse_findings @ st.findings))

let interprocedural ?(extra_blocking = []) parsed =
  let impls =
    List.filter_map
      (fun p ->
        match p.p_ast with
        | Some (Impl str) -> Some (p, str)
        | _ -> None)
      parsed
  in
  let all_wrappers =
    List.concat_map
      (fun (p, str) ->
        let module_name = Cfg.module_of_path p.p_path in
        (Cfg.scan_module ~module_name str).Cfg.wrappers)
      impls
  in
  let cfgs =
    List.concat_map
      (fun (p, str) ->
        snd (Cfg.build ~file:p.p_path ~all_wrappers str))
      impls
  in
  let contents_of =
    let tbl = Hashtbl.create 64 in
    List.iter (fun p -> Hashtbl.replace tbl p.p_path p.p_contents) parsed;
    fun path -> Hashtbl.find_opt tbl path
  in
  Lockcheck.check ~frontier:(Callgraph.default_blocking @ extra_blocking) cfgs
  |> List.map (fun (f : Lockcheck.finding) ->
         {
           code = f.Lockcheck.code;
           severity = severity_of f.Lockcheck.code;
           file = f.Lockcheck.file;
           line = f.Lockcheck.line;
           col = f.Lockcheck.col;
           message = f.Lockcheck.message;
           context = f.Lockcheck.context;
         })
  |> List.filter (fun f ->
         match contents_of f.file with
         | Some contents -> begin
             match apply_suppressions ~contents [ f ] with
             | [] -> false
             | _ -> true
           end
         | None -> true)
  |> List.sort compare_finding

let absint ?fuel parsed =
  let impls =
    List.filter_map
      (fun p ->
        match p.p_ast with
        | Some (Impl str) -> Some (p.p_path, (classify p.p_path).hot, str)
        | _ -> None)
      parsed
  in
  let raw, stats = Absint.analyze ?fuel impls in
  let contents_of =
    let tbl = Hashtbl.create 64 in
    List.iter (fun p -> Hashtbl.replace tbl p.p_path p.p_contents) parsed;
    fun path -> Hashtbl.find_opt tbl path
  in
  let findings =
    raw
    |> List.map (fun (f : Absint.finding) ->
           {
             code = f.Absint.af_code;
             severity = severity_of f.Absint.af_code;
             file = f.Absint.af_file;
             line = f.Absint.af_line;
             col = f.Absint.af_col;
             message = f.Absint.af_message;
             context = f.Absint.af_context;
           })
    |> List.filter (fun f ->
           match contents_of f.file with
           | Some contents -> begin
               match apply_suppressions ~contents [ f ] with
               | [] -> false
               | _ -> true
             end
           | None -> true)
    |> List.sort compare_finding
  in
  (findings, stats)

let lint_parsed ?extra_blocking parsed =
  List.sort compare_finding
    (List.concat_map analyze_parsed parsed
    @ interprocedural ?extra_blocking parsed
    @ fst (absint parsed))

let lint_source ~path contents =
  lint_parsed [ parse_source ~path contents ]

let lint_file path = lint_source ~path (read_file path)

(* ------------------------------------------------------------------ *)
(* Discovery                                                            *)

let skip_dirs = [ "_build"; "fixtures"; "figures"; "related"; "node_modules" ]

let discover paths =
  let acc = ref [] in
  let rec walk path =
    if Sys.is_directory path then begin
      let base = Filename.basename path in
      if
        (not (List.mem base skip_dirs))
        && not (String.length base > 1 && base.[0] = '.')
      then
        Array.iter
          (fun entry -> walk (Filename.concat path entry))
          (let entries = Sys.readdir path in
           Array.sort compare entries;
           entries)
    end
    else if
      Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
    then acc := path :: !acc
  in
  List.iter
    (fun p -> if Sys.file_exists p then walk p)
    paths;
  List.rev !acc

let lint_paths ?extra_blocking paths =
  lint_parsed ?extra_blocking (parse_files (discover paths))
