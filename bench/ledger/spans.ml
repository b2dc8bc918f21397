(* Ledger-side spans around each timed call into a layer. They are held
   in memory and written once, at exit, in the Mrm_obs.Trace JSONL span
   schema, so a traced run does no file I/O while it measures and the
   program's own trace sink stays Null. *)

module Json = Mrm_util.Json

type span = {
  name : string;
  id : int;
  parent : int option;
  start : float;
  stop : float;
  attrs : (string * Json.t) list;
}

type t = {
  enabled : bool;
  origin : float;
  mutable next_id : int;
  mutable spans : span list;
}

let create ~enabled =
  { enabled; origin = Unix.gettimeofday (); next_id = 1; spans = [] }

(* [span t name f] runs [f id] and returns its result with the elapsed
   seconds; [id] lets [f] parent nested spans. With recording off the
   call is timed all the same, and nothing is kept. Spans are made from
   the main thread only. *)
let span t ?parent ?(attrs = []) name f =
  let id = if t.enabled then t.next_id else 0 in
  if t.enabled then t.next_id <- id + 1;
  let start = Unix.gettimeofday () in
  let result = f id in
  let stop = Unix.gettimeofday () in
  if t.enabled then t.spans <- { name; id; parent; start; stop; attrs } :: t.spans;
  (result, stop -. start)

(* The untraced twin of [span]: the same stopwatch, nothing recorded. *)
let time f =
  let start = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. start)

let count t = List.length t.spans

let to_json t s =
  Json.Obj
    [
      ("type", Json.Str "span");
      ("name", Json.Str s.name);
      ("id", Json.Num (float_of_int s.id));
      ( "parent",
        match s.parent with
        | Some p -> Json.Num (float_of_int p)
        | None -> Json.Null );
      ("start", Json.Num (s.start -. t.origin));
      ("end", Json.Num (s.stop -. t.origin));
      ("elapsed", Json.Num (s.stop -. s.start));
      ("attrs", Json.Obj s.attrs);
    ]

let write t path =
  let ordered =
    List.sort (fun a b -> Float.compare a.start b.start) t.spans
  in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          output_string oc (Json.to_string (to_json t s));
          output_char oc '\n')
        ordered)
