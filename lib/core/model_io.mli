(** Plain-text serialization of second-order MRMs, so the CLI (and user
    scripts) can analyze models that are not built into the model zoo.

    Format (line-oriented; [#] starts a comment; blank lines ignored):

    {v
    states 3
    # from to rate        (off-diagonal entries of Q; diagonal is implied)
    transition 0 1 2.5
    transition 1 0 1.0
    transition 1 2 0.5
    transition 2 0 3.0
    # state drift variance
    reward 0 4.0 0.3
    reward 1 2.0 1.0
    reward 2 0.5 0.1
    # initial probabilities (states default to 0)
    initial 0 1.0
    # optional impulse rewards on transitions
    impulse 0 1 0.4
    v}

    Unlisted rewards default to drift 0, variance 0. *)

type parsed = {
  model : Model.t;
  impulses : (int * int * float) list;  (** empty if none declared *)
}

type error = {
  line : int option;  (** 1-based source line, when attributable *)
  field : string option;
      (** the directive or construction phase that failed, e.g.
          ["transition"], ["states"], ["model"] *)
  message : string;
}
(** Structured parse/build failure, so front ends (notably [mrm2 lint])
    can render findings with positions instead of scraping exception
    text. *)

val error_message : error -> string
(** ["line 3, transition: bad number \"abc\""]. *)

type raw = {
  declared_states : int;
  raw_transitions : (int * int * float) list;  (** in file order *)
  raw_rewards : (int * float * float) list;  (** (state, drift, variance) *)
  raw_initial : (int * float) list;
  raw_impulses : (int * int * float) list;
}
(** Syntactic content of a model file, before the semantic validation of
    the model itself: negative rates, negative variances and
    non-normalized initial distributions are all representable. [mrm2
    lint] analyzes this form so it can report {e all} violations with
    state indices, rather than stopping at the first exception from the
    validating constructors. Impulse lines are the exception: they are
    validated here (see {!parse_raw}). *)

val parse_raw : string -> (raw, error) result
(** Syntax and state-index-range checking, plus the impulse lines: each
    reward must be finite and [>= 0], sit on a pair [i <> j] declared by
    a [transition] line with a positive rate, and appear once per pair.
    A failure has [field = "impulse"] and the line. *)

val parse_string_result : string -> (parsed, error) result
(** Full pipeline: {!parse_raw}, then generator and model construction
    (validation failures are reported with [field = "transition"] or
    ["model"] and no line). *)

val load_result : string -> (parsed, error) result
(** @raise Sys_error on I/O failure. *)

val parse_string : string -> parsed
(** @raise Failure with ["Model_io: " ^ error_message e] on malformed
    input. *)

val load : string -> parsed
(** Read and parse a file. @raise Sys_error on I/O failure, [Failure] on
    parse errors. *)

val to_string : ?impulses:(int * int * float) list -> Model.t -> string
(** Render a model in the same format ([parse_string] round-trips it). *)

val save : path:string -> ?impulses:(int * int * float) list -> Model.t -> unit
