type convention = Range | Party | Element

let table =
  [
    ("Kernel", "sweep", Range);
    ("Pool", "run", Party);
    ("Pool", "run_pinned", Party);
    ("Pool", "map_array", Element);
  ]

let names = List.map (fun (m, f, _) -> m ^ "." ^ f) table
let has_function name = List.exists (fun (_, f, _) -> f = name) table

let find ~current_module callee =
  let qualifier, fn =
    match List.rev (String.split_on_char '.' callee) with
    | fn :: q :: _ -> (q, fn)
    | _ -> (current_module, callee)
  in
  List.find_map
    (fun (m, f, c) ->
      if m = qualifier && f = fn then Some (m ^ "." ^ f, c) else None)
    table
