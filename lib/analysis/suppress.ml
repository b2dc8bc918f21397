(* Inline suppressions: [(* mrm:ignore SRC001 SRC004 — reason *)].

   The parsetree drops comments, so suppressions are recovered from the
   raw text with a line scan — robust against any parse state, and the
   marker is specific enough that false positives are not a concern.
   A suppression applies to findings on its own line; when the comment
   is the first thing on its line it also covers the next line (the
   standalone-comment-above-the-expression idiom). *)

type t = {
  line : int;  (** 1-based line the comment starts on *)
  end_line : int;  (** 1-based line the comment closes on *)
  target : int;
      (** 1-based line a standalone comment covers: the first
          non-blank line after it closes (equals [end_line + 1] when
          the code follows directly) *)
  codes : string list;  (** empty = suppress every code *)
  standalone : bool;  (** nothing but whitespace before the comment *)
  reason : string option;
}

let marker = "mrm:ignore"

let is_space c = c = ' ' || c = '\t'

(* The code list runs from the marker to the first dash (any of "-",
   en/em dash in UTF-8) or the end of the comment; the reason is what
   follows the dash. Codes are tokens such as SRC020: uppercase letters
   followed by digits. *)
let parse_tail tail =
  let tail =
    match String.index_opt tail '*' with
    | Some i when i + 1 < String.length tail && tail.[i + 1] = ')' ->
        String.sub tail 0 i
    | _ -> tail
  in
  let dash_at i =
    let c = tail.[i] in
    if c = '-' then Some 1
    else if
      (* UTF-8 en dash e2 80 93 / em dash e2 80 94 *)
      Char.code c = 0xe2
      && i + 2 < String.length tail
      && Char.code tail.[i + 1] = 0x80
      && (Char.code tail.[i + 2] = 0x93 || Char.code tail.[i + 2] = 0x94)
    then Some 3
    else None
  in
  let n = String.length tail in
  let rec split i =
    if i >= n then (tail, None)
    else
      match dash_at i with
      | Some width ->
          let reason = String.trim (String.sub tail (i + width) (n - i - width)) in
          (String.sub tail 0 i, if reason = "" then None else Some reason)
      | None -> split (i + 1)
  in
  let code_part, reason = split 0 in
  let codes =
    String.split_on_char ' ' (String.map (fun c -> if c = ',' then ' ' else c) code_part)
    |> List.filter_map (fun tok ->
           let tok = String.trim tok in
           let is_code =
             tok <> ""
             && String.length tok >= 2
             && String.for_all
                  (fun c ->
                    (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9'))
                  tok
             && tok.[0] >= 'A'
             && tok.[0] <= 'Z'
             && String.exists (fun c -> c >= '0' && c <= '9') tok
           in
           if is_code then Some tok else None)
  in
  (codes, reason)

let contains_close line from =
  let n = String.length line in
  let rec go i =
    if i + 1 >= n then false
    else if line.[i] = '*' && line.[i + 1] = ')' then true
    else go (i + 1)
  in
  go from

let scan text =
  let lines = String.split_on_char '\n' text in
  let line_arr = Array.of_list lines in
  (* the 0-based line on which a comment whose marker sits at
     [(k, from)] closes; unterminated comments close where they start *)
  let close_line k from =
    if contains_close line_arr.(k) from then k
    else begin
      let n = Array.length line_arr in
      let rec go j =
        if j >= n then k
        else if contains_close line_arr.(j) 0 then j
        else go (j + 1)
      in
      go (k + 1)
    end
  in
  List.concat
    (List.mapi
       (fun k line ->
         (* find every marker occurrence on the line *)
         let rec find acc from =
           if from + String.length marker > String.length line then acc
           else
             match String.index_from_opt line from 'm' with
             | None -> acc
             | Some i ->
                 if
                   i + String.length marker <= String.length line
                   && String.sub line i (String.length marker) = marker
                 then find (i :: acc) (i + String.length marker)
                 else find acc (i + 1)
         in
         match find [] 0 with
         | [] -> []
         | occurrences ->
             List.rev_map
               (fun i ->
                 let tail_start = i + String.length marker in
                 let tail =
                   String.sub line tail_start (String.length line - tail_start)
                 in
                 let codes, reason = parse_tail tail in
                 let before = String.sub line 0 i in
                 let standalone =
                   (* only whitespace and the comment opener precede *)
                   String.for_all
                     (fun c -> is_space c || c = '(' || c = '*')
                     before
                 in
                 let end_line = close_line k (i + String.length marker) + 1 in
                 (* a standalone comment covers the next line holding
                    anything at all — blank lines in between (a common
                    layout before a guarded definition) do not break
                    the association *)
                 let target =
                   let n = Array.length line_arr in
                   let rec first_code j =
                     if j >= n then n + 1
                     else if String.trim line_arr.(j) = "" then
                       first_code (j + 1)
                     else j + 1
                   in
                   first_code end_line
                 in
                 { line = k + 1; end_line; target; codes; standalone; reason })
               occurrences)
       lines)

let covers s ~code ~line =
  (line = s.line || (s.standalone && line = s.target))
  && (s.codes = [] || List.mem code s.codes)

let suppressed suppressions ~code ~line =
  List.exists (fun s -> covers s ~code ~line) suppressions
