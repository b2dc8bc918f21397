(** Forward abstract interpretation over the analyzed tree's
    parsetrees, powering SRC020-SRC024.

    The engine is a big-step abstract evaluator: every top-level
    function is analyzed once with havoc parameters; loop bodies are
    evaluated twice with widening on the second pass; calls resolve
    through the same syntactic conventions as {!Callgraph}
    ({!Callgraph.resolve_name}) and are inlined to a small depth,
    which is how one-level summary information (e.g. the write ranges
    of [Sparse.mv_multi_into_range]) flows into a kernel-body proof.

    Range-kernel call sites ([Kernel.for_ranges]/[sweep] and
    [Pool.run]/[run_pinned]/[parallel_for] party closures) are
    re-analyzed under fresh symbolic [lo]/[hi] (or party index)
    bounds: every write to a shared array inside the body must be
    provably within the party's range or SRC020 fires; each site is
    reported as proven / flagged / unknown in {!stats}.

    Known unsoundness (see DESIGN 9.2): aliasing through refs and
    records is not tracked, first-class functions received as
    arguments are trusted at their construction site, and fuel
    exhaustion aborts the enclosing function without a finding. *)

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

type stats = {
  st_sites : kernel_site list;  (** in traversal order *)
  st_functions : int;  (** top-level functions analyzed *)
  st_fuel_exhausted : int;  (** functions aborted by the step budget *)
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
