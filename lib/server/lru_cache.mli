(** Thread-safe LRU cache for the solver service.

    Entries are keyed by string (the server uses
    {!Mrm_batch.Batch.digest} hex keys) and bounded two ways: a maximum
    entry count and a maximum total weight (the caller supplies a
    per-value weight function — the server stores encoded responses and
    weighs each by its byte length). When either cap is exceeded the
    least-recently-used entries are evicted until both hold again.

    All operations take an internal mutex, so any number of threads or
    domains (a server's connection handlers) may share one cache.
    Eviction, hit and miss counts are reported through {!stats}; the
    server mirrors them into {!Mrm_obs.Metrics} ([server.cache_*]). *)

type 'a t

val create :
  ?max_entries:int -> ?max_weight:int -> ?on_evict:(string -> unit) ->
  weight:('a -> int) -> unit -> 'a t
(** [max_entries] defaults to 256, [max_weight] to 64 MiB worth of
    weight units. A value whose own weight exceeds [max_weight] is never
    stored. [on_evict] is called with the evicted key while the internal
    lock is held (the server mirrors evictions into
    {!Mrm_obs.Metrics}) — it must not call back into the cache.
    @raise Invalid_argument when a cap is [< 1]. *)

val find_opt : 'a t -> string -> 'a option
(** Lookup; a hit promotes the entry to most-recently-used and is
    counted in {!stats}. *)

val add : 'a t -> string -> 'a -> unit
(** Insert (or replace — replacement also promotes), then evict
    LRU-first until both caps hold. Replacing a key with a value heavier
    than [max_weight] drops that key alone, as one eviction. *)

val mem : 'a t -> string -> bool
(** Like {!find_opt} but with no promotion and no hit/miss accounting. *)

val length : 'a t -> int

val total_weight : 'a t -> int
(** Sum of the stored values' weights. *)

type stats = { hits : int; misses : int; evictions : int }

val stats : 'a t -> stats

val clear : 'a t -> unit
(** Drop every entry. Counted neither as eviction nor as miss. *)
