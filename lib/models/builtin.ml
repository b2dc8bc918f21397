let names = [ "onoff"; "repair"; "multi" ]

let model name ~sigma2 ~size =
  try
    match name with
    | "onoff" ->
        Ok
          (Onoff.model
             { (Onoff.table1 ~sigma2) with
               sources = size;
               capacity = float_of_int size;
             })
    | "repair" -> Ok Machine_repair.(model { default with machines = size })
    | "multi" -> Ok Multiprocessor.(model { default with processors = size })
    | _ -> Error (Printf.sprintf "unknown built-in model %S" name)
  with Invalid_argument message -> Error message
