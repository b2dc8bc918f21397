(** Hierarchical tracing spans for the solver stack.

    A span is a named region of execution with a start and end
    timestamp, an optional parent span, and structured key/value
    attributes. Spans are emitted to the configured {!sink} when they
    close, one record per span, so a trace of a solve reads bottom-up:
    inner phases first, the enclosing solve last.

    Tracing is observational only: instrumented code paths compute
    bit-for-bit the same results whether a sink is attached or not.

    {2 Activation}

    The sink defaults to {!Null} (every call is a cheap no-op) and can
    be chosen three ways:
    - programmatically with {!set_sink};
    - with the [--trace[=SINK]] flag of the [mrm2] subcommands;
    - with the [MRM2_TRACE] environment variable, read once at program
      start: unset, [""], ["0"], ["off"] or ["null"] keep the null
      sink; ["stderr"] or ["1"] select the human-readable sink; any
      other value is a file path receiving JSONL records.

    {2 JSONL schema}

    Each line of a {!Jsonl} sink is one object serialized with
    {!Mrm_util.Json}:
    - spans: [{"type":"span","name":...,"id":N,"parent":N|null,
      "start":s,"end":s,"elapsed":s,"attrs":{...}}]
    - events: [{"type":"event","name":...,"span":N|null,"time":s,
      "attrs":{...}}]

    Timestamps are seconds since process start, clamped to be
    monotonically non-decreasing across records.

    {2 Concurrency}

    Emission is serialized internally, so any thread or domain may
    close spans or post events without corrupting the output. Span
    {e nesting}, however, is tracked in a single process-wide stack,
    so {!with_span} spans must come from one thread at a time: the
    coordinating thread, or in a server the connection thread that
    holds the solve slot. Pool workers use {!Metrics} (or {!event});
    other threads may open {!with_root_span} spans, which never touch
    the stack, beside it. *)

type sink =
  | Null  (** discard everything (the default) *)
  | Stderr  (** one human-readable line per span/event on stderr *)
  | Jsonl of string  (** JSONL records appended to the named file *)

type value =
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

val set_sink : sink -> unit
(** Select the sink. Replacing a {!Jsonl} sink flushes and closes its
    file. *)

val enabled : unit -> bool
(** [true] iff the sink is not {!Null}. *)

val sink_of_spec : string -> sink
(** Parse an [MRM2_TRACE] / [--trace] specification (see above). *)

val init_from_env : unit -> unit
(** Apply [MRM2_TRACE] to the current sink; called automatically when
    the library is linked, exposed for tests. Does nothing when the
    variable is unset. *)

val with_span : ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span. The span closes (and is
    emitted) when [f] returns or raises; a raising span carries a
    ["raised"] attribute with the exception text. *)

val with_root_span :
  ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a
(** Like {!with_span}, but the span's parent is [null] and it is never
    pushed on the nesting stack: spans opened inside [f] nest under
    whatever span was already open, and {!add_attr} never reaches it,
    so its attributes are all given in [attrs]. *)

val add_attr : string -> value -> unit
(** Attach an attribute to the innermost open span; no-op when no span
    is open or tracing is disabled. *)

val event : ?attrs:(string * value) list -> string -> unit
(** Emit a point-in-time record tagged with the innermost open span. *)

val flush : unit -> unit
(** Flush the sink (JSONL file sinks buffer). Also registered with
    [at_exit]. *)
