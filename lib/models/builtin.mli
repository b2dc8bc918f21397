(** The built-in model families by name: the one builder behind the
    CLI's [--model]/[--sigma2]/[--size] and the JSONL job spec's
    [model]/[sigma2]/[size] fields. *)

val names : string list
(** [["onoff"; "repair"; "multi"]]. *)

val model :
  string -> sigma2:float -> size:int -> (Mrm_core.Model.t, string) result
(** [model name ~sigma2 ~size] builds the family [name] at [size]:
    - ["onoff"], the paper's Section-7 multiplexer ({!Onoff.table1}) with
      [size] sources, capacity [size] and per-source variance [sigma2];
    - ["repair"], {!Machine_repair.default} with [size] machines;
    - ["multi"], {!Multiprocessor.default} with [size] processors.

    [sigma2] only affects ["onoff"]. An unknown [name] is an error, and
    so is an out-of-domain [size] or [sigma2]: the constructor's
    [Invalid_argument] message is returned, never raised. *)
