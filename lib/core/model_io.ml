module Generator = Mrm_ctmc.Generator
module Sparse = Mrm_linalg.Sparse

type parsed = { model : Model.t; impulses : (int * int * float) list }

type error = { line : int option; field : string option; message : string }

let error_message e =
  match (e.line, e.field) with
  | Some l, Some f -> Printf.sprintf "line %d, %s: %s" l f e.message
  | Some l, None -> Printf.sprintf "line %d: %s" l e.message
  | None, Some f -> Printf.sprintf "%s: %s" f e.message
  | None, None -> e.message

exception Err of error

let err ?line ?field format =
  Printf.ksprintf (fun message -> raise (Err { line; field; message })) format

type raw = {
  declared_states : int;
  raw_transitions : (int * int * float) list;
  raw_rewards : (int * float * float) list;
  raw_initial : (int * float) list;
  raw_impulses : (int * int * float) list;
}

let parse_raw_exn text =
  let lines = String.split_on_char '\n' text in
  let states = ref None in
  (* Entries keep their source line so range errors (checked once the
     state count is known — 'states' may appear anywhere) still point at
     the offending line. *)
  let transitions = ref [] in
  let rewards = Hashtbl.create 16 in
  let reward_order = ref [] in
  let initial_entries = ref [] in
  let impulses = ref [] in
  let parse_int line field s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> err ~line ~field "bad integer %S" s
  in
  let parse_float line field s =
    match float_of_string_opt s with
    | Some v -> v
    | None -> err ~line ~field "bad number %S" s
  in
  List.iteri
    (fun index raw_line ->
      let line = index + 1 in
      let content =
        match String.index_opt raw_line '#' with
        | Some cut -> String.sub raw_line 0 cut
        | None -> raw_line
      in
      let tokens =
        String.split_on_char ' ' (String.trim content)
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun s -> s <> "")
      in
      match tokens with
      | [] -> ()
      | [ "states"; n ] -> begin
          match !states with
          | Some _ -> err ~line ~field:"states" "duplicate 'states' declaration"
          | None -> states := Some (line, parse_int line "states" n)
        end
      | "states" :: _ -> err ~line ~field:"states" "expected: states N"
      | [ "transition"; i; j; rate ] ->
          transitions :=
            ( line,
              ( parse_int line "transition" i,
                parse_int line "transition" j,
                parse_float line "transition" rate ) )
            :: !transitions
      | "transition" :: _ ->
          err ~line ~field:"transition" "expected: transition FROM TO RATE"
      | [ "reward"; i; drift; variance ] -> begin
          let state = parse_int line "reward" i in
          if Hashtbl.mem rewards state then
            err ~line ~field:"reward" "duplicate reward for state %d" state;
          Hashtbl.add rewards state ();
          reward_order :=
            ( line,
              ( state,
                parse_float line "reward" drift,
                parse_float line "reward" variance ) )
            :: !reward_order
        end
      | "reward" :: _ ->
          err ~line ~field:"reward" "expected: reward STATE DRIFT VARIANCE"
      | [ "initial"; i; p ] ->
          initial_entries :=
            (line, (parse_int line "initial" i, parse_float line "initial" p))
            :: !initial_entries
      | "initial" :: _ ->
          err ~line ~field:"initial" "expected: initial STATE PROBABILITY"
      | [ "impulse"; i; j; rho ] ->
          impulses :=
            ( line,
              ( parse_int line "impulse" i,
                parse_int line "impulse" j,
                parse_float line "impulse" rho ) )
            :: !impulses
      | "impulse" :: _ ->
          err ~line ~field:"impulse" "expected: impulse FROM TO REWARD"
      | keyword :: _ -> err ~line "unknown directive %S" keyword)
    lines;
  let n =
    match !states with
    | Some (_, n) when n > 0 -> n
    | Some (line, n) -> err ~line ~field:"states" "states %d must be > 0" n
    | None -> err ~field:"states" "missing 'states' declaration"
  in
  let check_state line field s =
    if s < 0 || s >= n then
      err ~line ~field "state %d out of [0, %d)" s n
  in
  List.iter
    (fun (line, (i, j, _)) ->
      check_state line "transition" i;
      check_state line "transition" j)
    !transitions;
  List.iter
    (fun (line, (s, _, _)) -> check_state line "reward" s)
    !reward_order;
  List.iter
    (fun (line, (s, _)) -> check_state line "initial" s)
    !initial_entries;
  List.iter
    (fun (line, (i, j, _)) ->
      check_state line "impulse" i;
      check_state line "impulse" j)
    !impulses;
  (* Impulse lines are validated here, once, so lint reports a bad one at
     its line and every loader refuses it. [Impulse.make] repeats these
     checks for library callers. *)
  let can_fire = Hashtbl.create 16 and seen = Hashtbl.create 16 in
  List.iter
    (fun (_, (i, j, rate)) ->
      if rate > 0. then Hashtbl.replace can_fire (i, j) ())
    !transitions;
  List.iter
    (fun (line, (i, j, rho)) ->
      let field = "impulse" in
      if Int.equal i j then
        err ~line ~field "impulse on (%d,%d): impulses live on transitions"
          i j;
      if not (Float.is_finite rho && rho >= 0.) then
        err ~line ~field "impulse %g on (%d,%d) must be finite and >= 0" rho
          i j;
      if not (Hashtbl.mem can_fire (i, j)) then
        err ~line ~field
          "impulse on (%d,%d) but no transition %d -> %d with a positive \
           rate"
          i j i j;
      if Hashtbl.mem seen (i, j) then
        err ~line ~field "duplicate impulse on (%d,%d)" i j;
      Hashtbl.add seen (i, j) ())
    (List.rev !impulses);
  let strip entries = List.rev_map snd entries in
  {
    declared_states = n;
    raw_transitions = strip !transitions;
    raw_rewards = strip !reward_order;
    raw_initial = strip !initial_entries;
    raw_impulses = strip !impulses;
  }

let parse_raw text =
  match parse_raw_exn text with
  | raw -> Ok raw
  | exception Err e -> Error e

let model_of_raw raw =
  let n = raw.declared_states in
  let generator =
    try Generator.of_triplets ~states:n raw.raw_transitions
    with Invalid_argument message ->
      raise (Err { line = None; field = Some "transition"; message })
  in
  let rates = Array.make n 0. and variances = Array.make n 0. in
  List.iter
    (fun (state, drift, variance) ->
      rates.(state) <- drift;
      variances.(state) <- variance)
    raw.raw_rewards;
  let initial = Array.make n 0. in
  List.iter (fun (state, p) -> initial.(state) <- p) raw.raw_initial;
  let model =
    try Model.make ~generator ~rates ~variances ~initial
    with Invalid_argument message ->
      raise (Err { line = None; field = Some "model"; message })
  in
  { model; impulses = raw.raw_impulses }

let parse_string_result text =
  match model_of_raw (parse_raw_exn text) with
  | parsed -> Ok parsed
  | exception Err e -> Error e

let parse_string text =
  match parse_string_result text with
  | Ok parsed -> parsed
  | Error e -> failwith ("Model_io: " ^ error_message e)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let size = in_channel_length ic in
      really_input_string ic size)

let load_result path = parse_string_result (read_file path)
let load path = parse_string (read_file path)

let to_string ?(impulses = []) model =
  let buf = Buffer.create 512 in
  let out format = Printf.ksprintf (Buffer.add_string buf) format in
  let n = Model.dim model in
  out "states %d\n" n;
  Sparse.iter (Generator.matrix model.Model.generator) (fun i j v ->
      if (not (Int.equal i j)) && v <> 0. then
        out "transition %d %d %.17g\n" i j v);
  for i = 0 to n - 1 do
    if model.Model.rates.(i) <> 0. || model.Model.variances.(i) <> 0. then
      out "reward %d %.17g %.17g\n" i model.Model.rates.(i)
        model.Model.variances.(i)
  done;
  for i = 0 to n - 1 do
    if model.Model.initial.(i) <> 0. then
      out "initial %d %.17g\n" i model.Model.initial.(i)
  done;
  List.iter (fun (i, j, rho) -> out "impulse %d %d %.17g\n" i j rho) impulses;
  Buffer.contents buf

let save ~path ?impulses model =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?impulses model))
