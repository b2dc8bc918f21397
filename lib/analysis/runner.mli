(** The parallel runners the engine exports, each with the argument
    its closure receives — the one list SRC005, SRC013, SRC020 and
    SRC011's default blocking frontier ({!Callgraph.default_blocking})
    read. *)

type convention =
  | Range  (** a [[lo, hi)] row range: [Kernel.sweep]'s [~round ~lo ~hi] *)
  | Party  (** a party index: [Pool.run], [Pool.run_pinned] *)
  | Element  (** one input element: [Pool.map_array] *)

val names : string list
(** ["Kernel.sweep"; "Pool.run"; "Pool.run_pinned"; "Pool.map_array"]. *)

val has_function : string -> bool
(** Whether some runner's function is called this (["run"], ["sweep"],
    ...). The syntactic rules (SRC005, SRC013) match a callee by its
    last component only, so an alias like [let run = Pool.run] still
    counts. *)

val find : current_module:string -> string -> (string * convention) option
(** The runner a callee as written names, with its qualified name: a
    qualified callee by its last two components
    ([Mrm_engine.Pool.run] is ["Pool.run"]), a bare one only inside
    its own module ([run] in [Pool]). SRC020 analyzes the bodies of
    [Range] and [Party] runners found this way. *)
