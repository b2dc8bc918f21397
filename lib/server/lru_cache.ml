(* Hashtbl + intrusive doubly-linked recency list, all under one mutex.
   The list head is the most recently used entry, the tail the eviction
   candidate. Nodes are never shared outside the mutex, so the plain
   mutable fields cannot race. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable node_weight : int;
  mutable prev : 'a node option;  (* towards the head (more recent) *)
  mutable next : 'a node option;  (* towards the tail (less recent) *)
}

type stats = { hits : int; misses : int; evictions : int }

type 'a t = {
  mutex : Mutex.t;
  table : (string, 'a node) Hashtbl.t;
  weight : 'a -> int;
  on_evict : string -> unit;
  max_entries : int;
  max_weight : int;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable current_weight : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(max_entries = 256) ?(max_weight = 64 * 1024 * 1024)
    ?(on_evict = ignore) ~weight () =
  if max_entries < 1 then
    invalid_arg (Printf.sprintf "Lru_cache.create: max_entries %d" max_entries);
  if max_weight < 1 then
    invalid_arg (Printf.sprintf "Lru_cache.create: max_weight %d" max_weight);
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 64;
    weight;
    on_evict;
    max_entries;
    max_weight;
    head = None;
    tail = None;
    current_weight = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* List surgery; caller holds the mutex. *)

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.prev <- None;
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> ());
  t.head <- Some node;
  if Option.is_none t.tail then t.tail <- Some node

let promote t node =
  unlink t node;
  push_front t node

let evict t node =
  unlink t node;
  Hashtbl.remove t.table node.key;
  t.current_weight <- t.current_weight - node.node_weight;
  t.evictions <- t.evictions + 1;
  t.on_evict node.key

let enforce_caps t =
  while
    Hashtbl.length t.table > t.max_entries
    || (t.current_weight > t.max_weight && Option.is_some t.tail)
  do
    Option.iter (evict t) t.tail
  done

let find_opt t key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | Some node ->
      promote t node;
      t.hits <- t.hits + 1;
      Some node.value
  | None ->
      t.misses <- t.misses + 1;
      None

let mem t key = locked t @@ fun () -> Hashtbl.mem t.table key

let add t key value =
  locked t @@ fun () ->
  let w = t.weight value in
  match Hashtbl.find_opt t.table key with
  | Some node when w > t.max_weight ->
      (* An oversize value is never stored, so its key goes — alone. *)
      evict t node
  | Some node ->
      t.current_weight <- t.current_weight - node.node_weight + w;
      node.value <- value;
      node.node_weight <- w;
      promote t node;
      enforce_caps t
  | None ->
      if w <= t.max_weight then begin
        let node =
          { key; value; node_weight = w; prev = None; next = None }
        in
        Hashtbl.add t.table key node;
        t.current_weight <- t.current_weight + w;
        push_front t node;
        enforce_caps t
      end

let length t = locked t @@ fun () -> Hashtbl.length t.table
let total_weight t = locked t @@ fun () -> t.current_weight

let stats t =
  locked t @@ fun () ->
  { hits = t.hits; misses = t.misses; evictions = t.evictions }

let clear t =
  locked t @@ fun () ->
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None;
  t.current_weight <- 0
