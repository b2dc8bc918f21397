module Model_io = Mrm_core.Model_io

let names = [ "onoff"; "repair"; "multi" ]

type source =
  | File of string
  | Named of { name : string; sigma2 : float; size : int }

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

let load = function
  | File path -> (
      match Model_io.load_result path with
      | Ok parsed -> Ok parsed
      | Error e ->
          Error (Printf.sprintf "%s: %s" path (Model_io.error_message e))
      | exception Sys_error message -> Error message)
  | Named { name; sigma2; size } ->
      Result.map
        (fun model -> { Model_io.model; impulses = [] })
        (model name ~sigma2 ~size)
