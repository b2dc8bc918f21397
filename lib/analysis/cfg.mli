(** Per-function control-flow graphs over the parsetree, with
    exception edges.

    A graph's nodes are the concurrency-relevant events of one
    function body — [Lock]/[Unlock], calls, condition-variable
    operations, writes to module-level mutable state, raises — plus
    structural [Enter]/[Exit]/[Exn_exit]/[Join] nodes. Edges are [Seq]
    (normal control flow) or [Exn] (exceptional flow: every raise and
    every call that may raise gets an edge towards the innermost
    handler, or [Exn_exit]).

    The builder expands the cleanup idioms used throughout the
    codebase so protected regions release their lock on both paths:
    [Fun.protect ~finally], [Mutex.protect], and locally defined
    wrapper functions of the shape
    [let locked t f = Mutex.lock t.mutex; Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f]
    (detected by {!scan_module} and expanded at call sites whose
    critical section is a function literal). Closures handed to
    [Thread.create], [Domain.spawn] or a parallel runner ({!Runner}:
    [Kernel.sweep], [Pool.run]/[run_pinned]/[map_array], matched by
    the function's name) become separate graphs with
    [is_thread_root = true].

    Everything is syntactic — no typing pass. Locks are named
    ["Module.ident"] / ["Module.field"], so aliased mutexes are not
    tracked soundly; first-class functions stored in data structures
    escape the graph. See DESIGN.md §9 for the limits. *)

type lock = string
(** Qualified lock name, e.g. ["Server.mutex"] or ["Listener.reg_mutex"]. *)

type notify_kind = Signal | Broadcast

type event =
  | Enter
  | Exit  (** normal return *)
  | Exn_exit  (** exceptional return *)
  | Join  (** structural no-op: merge point, loop head, handler entry *)
  | Lock of lock
  | Unlock of lock
  | Call of string  (** callee as written, e.g. ["Pool.run"] or ["run"] *)
  | Cond_wait of { cond : string; mutex : lock option; looped : bool }
      (** [looped] is true when the wait sits inside a [while] loop or
          a [let rec]-bound re-check function *)
  | Cond_notify of { cond : string; kind : notify_kind }
  | Write of { target : string; what : string }
      (** write to module-level mutable state ([ref], [Hashtbl],
          [Queue], [Buffer]) of the current module *)
  | Raise

type edge_kind = Seq | Exn

type node = { id : int; event : event; line : int; col : int }

type t = {
  name : string;  (** qualified: ["Module.function"], thread roots are
                      ["Module.parent.<thread@LINE>"] *)
  file : string;
  is_thread_root : bool;
  nodes : node array;  (** [nodes.(i).id = i] *)
  succs : (int * edge_kind) list array;
}

(** {2 Module facts} *)

type lock_source =
  | From_param of int
  | From_param_field of int * string

type wrapper = {
  wrapper_name : string;
  wrapper_module : string;
  lock_source : lock_source;
  thunk_index : int;
}

type facts = {
  wrappers : wrapper list;
  mutables : (string, string) Hashtbl.t;
}

val module_of_path : string -> string
(** ["lib/server/listener.ml"] -> ["Listener"];
    ["pool_backend.domains.ml"] -> ["Pool_backend"]. *)

val normalize_apply : Parsetree.expression -> Parsetree.expression
(** Collapse [f @@ x], [x |> f] and curried chains into one flat
    application of the ultimate head (shared with {!Absint}). *)

val scan_module : module_name:string -> Parsetree.structure -> facts
(** Pre-scan for lock-wrapper definitions and module-level mutable
    bindings. *)

val build :
  file:string -> ?all_wrappers:wrapper list -> Parsetree.structure ->
  facts * t list
(** All per-function graphs of one compilation unit, including
    extracted thread roots. [all_wrappers] supplies wrapper summaries
    from the rest of the program so cross-module wrapper calls expand
    too. *)

val node_count : t -> int
val edge_count : t -> int

val counts : t list -> int * int
(** Total (nodes, edges) — the round-trip invariant checked by the
    QCheck property. *)
