(** Where a model comes from: a built-in family by name, or a model file.
    This is the one loader behind the CLI's [--file] or
    [--model]/[--sigma2]/[--size] and the JSONL job spec's [file] or
    [model]/[sigma2]/[size] fields. *)

val names : string list
(** [["onoff"; "repair"; "multi"]]. *)

type source =
  | File of string  (** a model file in the {!Mrm_core.Model_io} format *)
  | Named of { name : string; sigma2 : float; size : int }
      (** a built-in family:
          - ["onoff"], the paper's Section-7 multiplexer ({!Onoff.table1})
            with [size] sources, capacity [size] and per-source variance
            [sigma2];
          - ["repair"], {!Machine_repair.default} with [size] machines;
          - ["multi"], {!Multiprocessor.default} with [size] processors.

          [sigma2] only affects ["onoff"]. *)

val load : source -> (Mrm_core.Model_io.parsed, string) result
(** Build the model, with the impulse rewards a file declares (none for
    a built-in). Never raises; the error is one message:
    - a file that cannot be read, parsed or built gives
      [PATH: <Model_io message>] (or the system's message, which names
      the path);
    - an unknown name, or a [size] or [sigma2] out of the family's
      domain, gives the constructor's [Invalid_argument] message. *)
