module Json = Mrm_util.Json

type sink = Null | Stderr | Jsonl of string

type value = Bool of bool | Int of int | Float of float | Str of string

(* ------------------------------------------------------------------ *)
(* A tiny spin lock serializes sink emission and sink swaps. [Mutex]
   lives in the threads library on OCaml 4.14, which nothing below bin/
   links; [Atomic] is in the stdlib from 4.12 on and is all we need for
   the short critical sections here (a formatted write per record). *)

let lock = Atomic.make false

let rec acquire () =
  if not (Atomic.compare_and_set lock false true) then acquire ()

let release () = Atomic.set lock false

let locked f =
  acquire ();
  Fun.protect ~finally:release f

(* ------------------------------------------------------------------ *)
(* Clock: wall time relative to process start, clamped monotone so
   records never step backwards even if gettimeofday does. *)

let t0 = Unix.gettimeofday ()
let last_stamp = Atomic.make 0.

let rec now () =
  let t = Unix.gettimeofday () -. t0 in
  let seen = Atomic.get last_stamp in
  if t <= seen then seen
  else if Atomic.compare_and_set last_stamp seen t then t
  else now ()

(* ------------------------------------------------------------------ *)
(* Sink state (all guarded by [lock]).                                  *)

let sink_state = ref Null
let channel = ref None (* open out_channel of a Jsonl sink *)
let at_exit_registered = ref false

let close_channel_locked () =
  match !channel with
  | None -> ()
  | Some oc ->
      channel := None;
      (try close_out oc with Sys_error _ -> ())

let flush () =
  locked (fun () ->
      match !channel with
      | None -> ()
      | Some oc -> ( try Stdlib.flush oc with Sys_error _ -> ()))

let set_sink s =
  locked (fun () ->
      close_channel_locked ();
      sink_state := s;
      match s with
      | Jsonl path ->
          channel := Some (open_out path);
          if not !at_exit_registered then begin
            at_exit_registered := true;
            Stdlib.at_exit (fun () -> locked close_channel_locked)
          end
      | Null | Stderr -> ())

let enabled () = !sink_state <> Null

let sink_of_spec = function
  | "" | "0" | "off" | "null" -> Null
  | "stderr" | "1" -> Stderr
  | path -> Jsonl path

let init_from_env () =
  match Sys.getenv_opt "MRM2_TRACE" with
  | None -> ()
  | Some spec -> set_sink (sink_of_spec spec)

(* ------------------------------------------------------------------ *)
(* Spans. Nesting is a process-wide stack: nested spans are opened from
   one thread at a time (pool workers use Metrics / event, other
   threads root spans), so a plain ref is enough — see the .mli note.  *)

type span = {
  id : int;
  parent : int option;
  name : string;
  start : float;
  mutable attrs : (string * value) list;
}

let next_id = Atomic.make 1
let current : span option ref = ref None

let json_of_value = function
  | Bool b -> Json.Bool b
  | Int k -> Json.Num (float_of_int k)
  | Float x -> Json.Num x
  | Str s -> Json.Str s

let string_of_value = function
  | Bool b -> string_of_bool b
  | Int k -> string_of_int k
  | Float x -> Printf.sprintf "%g" x
  | Str s -> s

let attrs_json attrs =
  Json.Obj (List.rev_map (fun (k, v) -> (k, json_of_value v)) attrs)

let attrs_human attrs =
  String.concat ""
    (List.rev_map
       (fun (k, v) -> Printf.sprintf " %s=%s" k (string_of_value v))
       attrs)

let emit_line json human =
  locked (fun () ->
      match !sink_state with
      | Null -> ()
      | Stderr ->
          (* mrm:ignore SRC006 — this is the stderr sink itself: the one
             place library output is allowed to reach a terminal *)
          prerr_string (human ());
          prerr_newline () (* mrm:ignore SRC006 — stderr sink *)
      | Jsonl _ -> (
          match !channel with
          | None -> ()
          | Some oc ->
              output_string oc (Json.to_string (json ()));
              output_char oc '\n';
              Stdlib.flush oc))

let emit_span span ~stop =
  let parent =
    match span.parent with None -> Json.Null | Some p -> Json.Num (float_of_int p)
  in
  emit_line
    (fun () ->
      Json.Obj
        [
          ("type", Json.Str "span");
          ("name", Json.Str span.name);
          ("id", Json.Num (float_of_int span.id));
          ("parent", parent);
          ("start", Json.Num span.start);
          ("end", Json.Num stop);
          ("elapsed", Json.Num (stop -. span.start));
          ("attrs", attrs_json span.attrs);
        ])
    (fun () ->
      Printf.sprintf "[mrm2-trace] span %s %.3fms%s" span.name
        ((stop -. span.start) *. 1e3)
        (attrs_human span.attrs))

let open_span ~parent attrs name =
  {
    id = Atomic.fetch_and_add next_id 1;
    parent;
    name;
    start = now ();
    attrs = List.rev attrs;
  }

let run_span span ~finish f =
  match f () with
  | result ->
      finish ();
      result
  | exception exn ->
      span.attrs <- ("raised", Str (Printexc.to_string exn)) :: span.attrs;
      finish ();
      raise exn

let with_span ?(attrs = []) name f =
  if not (enabled ()) then f ()
  else begin
    let saved = !current in
    let span =
      open_span attrs name
        ~parent:(match saved with None -> None | Some s -> Some s.id)
    in
    current := Some span;
    run_span span f ~finish:(fun () ->
        current := saved;
        emit_span span ~stop:(now ()))
  end

(* Never on the stack, so any thread may open one. *)
let with_root_span ?(attrs = []) name f =
  if not (enabled ()) then f ()
  else
    let span = open_span ~parent:None attrs name in
    run_span span f ~finish:(fun () -> emit_span span ~stop:(now ()))

let add_attr key v =
  if enabled () then
    match !current with
    | None -> ()
    | Some span -> span.attrs <- (key, v) :: span.attrs

let event ?(attrs = []) name =
  if enabled () then begin
    let span =
      match !current with None -> Json.Null | Some s -> Json.Num (float_of_int s.id)
    in
    let time = now () in
    let attrs = List.rev attrs in
    emit_line
      (fun () ->
        Json.Obj
          [
            ("type", Json.Str "event");
            ("name", Json.Str name);
            ("span", span);
            ("time", Json.Num time);
            ("attrs", attrs_json attrs);
          ])
      (fun () ->
        Printf.sprintf "[mrm2-trace] event %s%s" name (attrs_human attrs))
  end

(* Environment activation at program start: every binary linking this
   library honours MRM2_TRACE without further wiring. *)
let () = init_from_env ()
