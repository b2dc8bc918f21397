(** Dynamic race checker for the partitioned kernels.

    The engine's correctness contract — parallel jobs write pairwise
    disjoint index ranges that tile the whole space, shared state goes
    through [Atomic] — is a convention the type system cannot see. With
    [MRM2_RACECHECK=1] (or {!set_enabled}), {!Kernel} validates the
    write ranges of every sweep before dispatch and aborts with {!Race}
    on violation, naming both offending jobs. The static complement is
    [Mrm_analysis]'s [SRC005] rule.

    Cost: one O(parts log parts) scan per kernel call — noise next to
    the O(nnz) sweep it guards — and nothing at all when disabled. The
    checker never changes what the kernels compute: an instrumented
    solve is bit-for-bit identical to an unchecked one. *)

exception Race of Mrm_check.Diagnostics.t
(** The payload names both parties ([job_a]/[range_a], [job_b]/
    [range_b] context keys for overlaps; [gap] for coverage holes) and
    the kernel that tripped. A printer is registered. *)

val enabled : unit -> bool
(** True when [MRM2_RACECHECK] is [1]/[true]/[on]/[yes] (read once at
    startup) or an override is in force. *)

val set_enabled : bool option -> unit
(** Test hook: [Some b] forces the checker on/off, [None] returns to
    the environment setting. *)

val check_ranges : what:string -> rows:int -> (int * int) array -> unit
(** [check_ranges ~what ~rows ranges] validates that the per-job
    [[lo, hi)] write ranges are within bounds ([RACE003]), pairwise
    disjoint ([RACE001]) and cover [[0, rows)] exactly ([RACE002]);
    empty ranges are legal. [what] names the calling kernel in the
    diagnostic. @raise Race on violation. *)

val code_table : (string * Mrm_check.Diagnostics.severity * string) list
(** Registry of the runtime diagnostic codes, mirroring
    [Check.code_table]. *)
