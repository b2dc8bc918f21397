(** Source-level static analysis of the project's own OCaml code.

    Parses [.ml]/[.mli] files with the stock compiler-libs front end
    ([Parse] + [Ast_iterator] — no ppx, no typing) and enforces the
    floating-point and concurrency conventions the solvers rely on as
    [SRC0xx] findings. The judgements are syntactic: "float-typed"
    means a float literal, float arithmetic ([+.] …), a known
    float-returning function, or a [: float] constraint — deliberate
    exceptions are waived inline ({!Suppress}) or by the checked-in
    baseline ({!Baseline}).

    Rules (registry: {!rule_table}):
    - [SRC001] (warning) — [=], [<>] or [compare] on a float-typed
      operand: exact-bit comparison where a tolerance is almost always
      meant. Sentinel checks ([x = 0.]) get inline suppressions.
    - [SRC002] (warning) — polymorphic [=]/[<>]/[compare]/[min]/[max]
      on operands of unknown type in the hot-path modules
      ([lib/linalg], [lib/core], [lib/engine]); the polymorphic walker
      boxes floats and defeats unboxing.
    - [SRC003] (error) — [Obj.magic] / [*.unsafe_*]; an
      [Array.unsafe_get]/[unsafe_set] in a hot-path module only where
      SRC022 did not prove the access (or its function ran out of
      fuel), see {!discharge_unchecked}.
    - [SRC004] (warning) — [try ... with _ ->]: swallows
      [Out_of_memory], [Stack_overflow], and every bug.
    - [SRC005] (error) — inside a closure passed to a parallel runner
      ({!Runner}: [sweep], [run], [run_pinned], [map_array]) in
      [lib/engine]/[lib/obs]/[lib/server]/[lib/cluster]: a write
      ([:=], [incr], field mutation, array store) to state not bound
      inside the job, unless the array index mentions only job-bound
      names (the range-disjoint convention). [Atomic.*] operations
      never match.
    - [SRC006] (warning) — [print_*]/[Printf.printf]/[Format.printf]
      and friends in library code; output must go through sinks.
    - [SRC010] (error) — a mutex acquired in a function may still be
      held when it returns or raises (exception paths included);
      interprocedural lock-set dataflow over {!Cfg}, fix hint:
      [Mutex.protect].
    - [SRC011] (warning) — a blocking call (Unix I/O, [Thread.join],
      [Condition.wait], solver entry points — see
      {!Callgraph.default_blocking}) reachable while a mutex is held,
      one level through the call graph.
    - [SRC012] (error) — lock-order cycle across the program-wide
      acquisition graph: deadlock potential.
    - [SRC013] (error) — module-level mutable state ([ref],
      [Hashtbl], [Queue], [Buffer]) written from a thread-root
      closure ([Thread.create], [Domain.spawn], a {!Runner}) — or a
      function it calls directly — without an Atomic or a held lock;
      the interprocedural generalization of SRC005.
    - [SRC014] (warning) — [Condition.wait] not wrapped in a re-check
      loop ([while]/recursive), or [Condition.signal]/[broadcast]
      without the associated mutex held.
    - [SRC020] (error) — a write to a shared array inside a
      partitioned-kernel body ([Kernel.sweep] range bodies,
      [Pool.run]/[run_pinned] party bodies) that is not provably
      within the job's [[lo, hi)] range; bodies proven safe are
      counted per site ({!Absint.stats}).
    - [SRC021] (warning) — division by a possibly-zero value, or
      [log]/[sqrt]/[**] applied to an argument that may leave the
      function's domain, outside a recognized guard.
    - [SRC022] (warning) — in the hot-path modules, an array index
      whose interval is not contained in the array's known length, or
      an [unsafe_get]/[unsafe_set] not proven inside it. An array the
      function did not allocate has a symbolic length that a guard on
      the path ([if Array.length x < 3 * hi then raise ...]) bounds.
    - [SRC023] (warning) — an ordered float comparison with an operand
      that may be NaN ([0./0.], [log] of a possibly non-positive
      value, an unvalidated wire float).
    - [SRC024] (warning) — a probability-named value assigned an
      interval escaping [[0, 1]] with no clamp.
    - [SRC090] (error) — the file does not parse.

    SRC010–SRC014 come from {!Lockcheck} and run over the whole
    analyzed program at once ({!interprocedural}); SRC020–SRC024 come
    from the abstract-interpretation pass ({!Absint}, staged by
    {!absint}); the per-file rules are pure parsetree functions
    ({!analyze_parsed}) that callers may fan out across domains after
    the sequential parse stage ({!parse_files} — the compiler-libs
    lexer keeps global state, so parsing itself must not run
    concurrently). *)

type finding = {
  code : string;
  severity : Mrm_check.Diagnostics.severity;
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  message : string;
  context : (string * string) list;
}

val compare_finding : finding -> finding -> int
(** Orders by file, line, column, code. *)

val to_diagnostic : finding -> Mrm_check.Diagnostics.t
(** Rendered with {!Mrm_check.Diagnostics.with_location}, so every
    output format carries file/line/col. *)

val rule_table : (string * Mrm_check.Diagnostics.severity * string) list
(** (code, severity, one-line description) registry. *)

val rule_docs : (string * string * string) list
(** (code, one-paragraph explanation, minimal firing example) for
    every code in {!rule_table} — behind [lint-src --list-rules]
    and [--explain]. The SRC020–SRC024 examples are verbatim lines of
    their defective fixtures under [test/fixtures/src/] (tested), so
    the documentation cannot drift from the code it demonstrates. *)

(** {2 Staged pipeline} *)

type ast = Impl of Parsetree.structure | Intf of Parsetree.signature

type parsed = {
  p_path : string;
  p_contents : string;
  p_ast : ast option;  (** [None] when the file does not parse *)
  p_parse_findings : finding list;  (** SRC090, when [p_ast = None] *)
}

val parse_source : path:string -> string -> parsed
(** Parse one source text. Not thread-safe (compiler-libs lexer
    state); call sequentially. *)

val parse_files : string list -> parsed list
(** {!parse_source} over each file's contents, sequentially. *)

val analyze_parsed : parsed -> finding list
(** The per-file syntactic rules (SRC001–SRC006, SRC090) with inline
    suppressions applied, sorted. Pure function of the parsetree —
    safe to run concurrently across files. *)

val interprocedural : ?extra_blocking:string list -> parsed list -> finding list
(** The whole-program pass: builds {!Cfg} graphs for every
    implementation (sharing lock-wrapper summaries across modules),
    then runs {!Lockcheck} — SRC010–SRC014 — with inline suppressions
    applied, sorted. [extra_blocking] extends
    {!Callgraph.default_blocking}. *)

val absint : ?fuel:int -> parsed list -> finding list * Absint.stats
(** The abstract-interpretation pass (SRC020–SRC024) over every
    implementation file in the program, with inline suppressions
    applied, sorted. [fuel] bounds the per-top-level-function step
    budget (default {!Absint.default_fuel}); exhaustion aborts the
    function without a finding and is counted in
    {!Absint.stats.st_fuel_exhausted}. *)

val discharge_unchecked : Absint.stats -> finding list -> finding list
(** Drops each SRC003 finding on an [Array.unsafe_get]/[unsafe_set] in
    a hot-path file whose access {!absint} proved
    ({!Absint.stats.st_unchecked}); every other finding passes. *)

val lint_parsed : ?extra_blocking:string list -> parsed list -> finding list
(** [analyze_parsed] on each file plus [interprocedural] and {!absint}
    over the program, merged, with {!discharge_unchecked} applied, and
    sorted. *)

val lint_source : path:string -> string -> finding list
(** Analyze one source text. [path] determines the rule set ([.mli] vs
    [.ml]; hot-path / library / parallel-host classification by
    directory) and is reported as the finding location — tests pass
    synthetic paths to pin a classification. Inline suppressions are
    already applied; findings are sorted. *)

val lint_file : string -> finding list
(** [lint_source] over the file's contents. *)

val discover : string list -> string list
(** All [.ml]/[.mli] files under the given files/directories, walking
    recursively and skipping [_build], [fixtures], [figures],
    [related] and dot-directories. Sorted traversal, stable output. *)

val lint_paths : ?extra_blocking:string list -> string list -> finding list
(** {!discover}, {!parse_files}, then {!lint_parsed}. *)
