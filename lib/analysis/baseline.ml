(* Checked-in waivers for pre-existing findings.

   Entries are (code, file, count): up to [count] findings of [code] in
   [file] are waived, anything beyond is fresh and fails the build.
   Counting per (code, file) instead of per line keeps the baseline
   stable under unrelated edits (line drift) while still catching every
   newly introduced finding of a baselined code in a baselined file. *)

type entry = { code : string; file : string; count : int }
type t = entry list

let empty = []

let parse text =
  let entries, errors =
    String.split_on_char '\n' text
    |> List.mapi (fun k line -> (k + 1, String.trim line))
    |> List.filter (fun (_, line) ->
           line <> "" && not (String.length line > 0 && line.[0] = '#'))
    |> List.fold_left
         (fun (entries, errors) (lineno, line) ->
           match
             String.split_on_char ' ' line
             |> List.filter (fun tok -> tok <> "")
           with
           | [ code; file; count ] -> begin
               match int_of_string_opt count with
               | Some count when count >= 1 ->
                   ({ code; file; count } :: entries, errors)
               | _ ->
                   ( entries,
                     Printf.sprintf "line %d: bad count %S" lineno count
                     :: errors )
             end
           | _ ->
               ( entries,
                 Printf.sprintf
                   "line %d: expected \"CODE FILE COUNT\", got %S" lineno line
                 :: errors ))
         ([], [])
  in
  match errors with
  | [] -> Ok (List.rev entries)
  | _ -> Error (String.concat "; " (List.rev errors))

let load path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse text

let header =
  [
    "# lint-src baseline: pre-existing findings waived per (code, file).";
    "# One entry per line: CODE FILE COUNT. New findings beyond COUNT fail.";
    "# Regenerate with: dune exec lint/lint_src.exe -- --baseline <this file> \
     --update-baseline";
  ]

let to_string t =
  let lines =
    List.map (fun e -> Printf.sprintf "%s %s %d" e.code e.file e.count) t
  in
  String.concat "\n" (header @ lines) ^ "\n"

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let of_findings findings =
  (* deterministic order: by file then code *)
  let tbl = Hashtbl.create 64 in
  let keys = ref [] in
  List.iter
    (fun (f : Lint.finding) ->
      let key = (f.Lint.code, f.Lint.file) in
      match Hashtbl.find_opt tbl key with
      | Some n -> Hashtbl.replace tbl key (n + 1)
      | None ->
          keys := key :: !keys;
          Hashtbl.replace tbl key 1)
    findings;
  List.sort
    (fun a b ->
      match compare a.file b.file with 0 -> compare a.code b.code | c -> c)
    (List.map
       (fun (code, file) -> { code; file; count = Hashtbl.find tbl (code, file) })
       !keys)

type applied = {
  fresh : Lint.finding list;
  waived : Lint.finding list;
  stale : entry list;  (** unused (or partially unused) allowance *)
}

let apply t findings =
  let remaining = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let key = (e.code, e.file) in
      Hashtbl.replace remaining key
        (e.count + Option.value ~default:0 (Hashtbl.find_opt remaining key)))
    t;
  let fresh, waived =
    List.partition
      (fun (f : Lint.finding) ->
        let key = (f.Lint.code, f.Lint.file) in
        match Hashtbl.find_opt remaining key with
        | Some n when n > 0 ->
            Hashtbl.replace remaining key (n - 1);
            false
        | _ -> true)
      findings
  in
  let stale =
    List.filter_map
      (fun ((code, file), n) ->
        if n > 0 then Some { code; file; count = n } else None)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) remaining [])
    |> List.sort (fun a b ->
           match compare a.file b.file with
           | 0 -> compare a.code b.code
           | c -> c)
  in
  { fresh; waived; stale }
