(** Forward abstract interpretation over the analyzed tree's
    parsetrees, powering SRC020-SRC024.

    The engine is a big-step abstract evaluator: every top-level
    function is analyzed once with havoc parameters; loop bodies are
    evaluated once plainly, then with widening until a pass moves no
    state (at most three widening passes); calls resolve
    through the same syntactic conventions as {!Callgraph}
    ({!Callgraph.resolve_name}) and are inlined to a small depth,
    which is how one-level summary information (e.g. the write ranges
    of [Sparse.mv_multi_into_range]) flows into a kernel-body proof.

    Kernel call sites — the range and party runners of {!Runner}:
    [Kernel.sweep] bodies and [Pool.run]/[run_pinned] party closures —
    are re-analyzed under fresh symbolic [lo]/[hi] (or party index)
    bounds: every write to a shared array inside the body must be
    provably within the party's range or SRC020 fires; each site is
    reported as proven / flagged / unknown in {!stats}.

    An array the function did not allocate (a parameter, a record
    field, an element of another array, an unknown call's result) has
    a symbolic length. A comparison on the path — typically a guard
    [if Array.length x < 3 * hi then raise ...] — adds a linear fact
    over these symbols, and the fact holds in the rest of the path and
    in the callees inlined there. SRC022 proves each
    [Array.unsafe_get]/[unsafe_set] in a hot-path file against the
    facts and lengths and records the verdict in
    {!stats.st_unchecked}; {!Lint} keeps the SRC003 finding on an
    unchecked access only where the verdict is unproven.

    Known unsoundness (see DESIGN 9.2): aliasing through refs and
    records is not tracked, first-class functions received as
    arguments are trusted at their construction site, and fuel
    exhaustion aborts the enclosing function without a finding (its
    unchecked accesses count as unproven). *)

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
  ks_file : string;  (** file of the runner call site *)
  ks_line : int;
  ks_runner : string;  (** runner name as written, e.g. "Kernel.sweep" *)
  ks_status : kernel_status;
  ks_writes : int;  (** shared-array writes checked inside the body *)
}

type unchecked = {
  uc_file : string;
  uc_line : int;
  uc_col : int;  (** of the [Array.unsafe_get]/[unsafe_set] identifier *)
  uc_proven : bool;
      (** SRC022 proved the index inside the array's length at every
          depth-0 visit, and no visit ran out of fuel *)
}
(** An [Array.unsafe_get]/[unsafe_set] in a hot-path file. *)

type stats = {
  st_sites : kernel_site list;  (** in traversal order *)
  st_functions : int;  (** top-level functions analyzed *)
  st_fuel_exhausted : int;  (** functions aborted by the step budget *)
  st_unchecked : unchecked list;
      (** every unchecked access visited, sorted by file and position *)
}

val default_fuel : int
(** Per-top-level-function step budget (100_000). *)

val analyze :
  ?fuel:int ->
  (string * bool * Parsetree.structure) list ->
  finding list * stats
(** [analyze files] over [(path, hot, ast)] implementation files in
    traversal order. [hot] enables SRC022 for that file. Findings are
    deduplicated by (code, file, line, col); suppression comments and
    baseline waivers are applied by the caller ({!Lint}). *)
