(** Module-qualified call graph over the analyzed tree, with the
    configurable blocking frontier used by SRC011.

    Resolution is syntactic: a qualified callee matches by its last
    two dot-components (so [Mrm_engine.Pool.run] finds ["Pool.run"]);
    an unqualified callee resolves in its own module first, then
    program-wide when the bare name is unambiguous. *)

type t

val default_blocking : string list
(** Calls considered blocking: [Unix.read]/[write]/[select]/[accept]/
    [sleepf], [Thread.delay]/[join]/[wait_signal], [Condition.wait],
    the solver entry points ([Randomization.moments*], [Batch.run])
    and the pool barriers. *)

val build : Cfg.t list -> t

val last_components : int -> string -> string
(** Last [k] dot-components of a qualified name:
    [last_components 2 "Mrm_engine.Pool.run" = "Pool.run"]. *)

val resolve_name :
  (string -> 'a option) -> current_module:string -> string -> 'a option
(** The resolution convention of {!resolve} over any lookup function:
    qualified names match by their last two components (then
    verbatim); unqualified names match ["current_module.name"] only.
    Reused by {!Absint} over its own value index. *)

val resolve : t -> current_module:string -> string -> Cfg.t option
(** Resolve a callee as written to a function graph of the program,
    or [None] for external / unresolvable calls. *)

val is_blocking : ?frontier:string list -> string -> bool
(** Whether a callee as written is on the blocking frontier
    ([frontier] defaults to {!default_blocking}; pass a larger list to
    extend it). *)

val callees : Cfg.t -> (string * Cfg.node) list
(** Every [Call] node of one graph, with the callee as written. *)

val all : t -> Cfg.t list
