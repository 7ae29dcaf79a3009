(** Deterministic parallel ensemble execution.

    Every experiment of the reproduction is an ensemble: a pure function
    (seed → simulated run → verdict) mapped over a list of seeds. This
    module runs such maps on a {e persistent} pool of OCaml 5 domains
    while keeping the output {e bit-identical} to the sequential fold:
    work items are claimed from an atomic counter, each result is written
    back into the slot of its input position, and the caller receives
    results in input order. A task that raises aborts the whole map with
    the exception of the {e earliest} failing item — again matching the
    sequential behaviour.

    The pool is spawned lazily on the first parallel call, grows
    monotonically to the largest size ever requested, parks its workers
    between jobs, and is joined once at process exit — so the number of
    [Domain.spawn] calls per process is bounded by the pool size instead
    of growing with every map (the spawn-per-call design made parallel
    chunked workloads like the schedule explorer {e slower} than
    sequential execution). A call that asks for fewer domains than the
    pool holds simply caps how many workers claim items; the results
    never depend on the worker count.

    The only requirement is that the task function is self-contained per
    item (no shared mutable state, or state that is itself domain-safe
    like {!Run_index} and the epistemic checker's memo tables). A task
    that re-enters this module runs its nested ensemble sequentially —
    same results, no deadlock.

    The pool size defaults to [UDC_DOMAINS] from the environment (read
    once per process), falling back to [Domain.recommended_domain_count
    ()]; benches override it with [--domains] via {!set_domains}. *)

(** Number of domains a call without [?domains] will use (≥ 1). *)
val domain_count : unit -> int

(** Override the default pool size for the rest of the process (clamped
    to ≥ 1); wins over [UDC_DOMAINS]. The pool resizes lazily on the next
    parallel call. *)
val set_domains : int -> unit

(** [map_array ?domains f xs] = [Array.map f xs], computed on the pool. *)
val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array

(** [map ?domains f xs] = [List.map f xs], computed on the pool. *)
val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list

(** [exists ?domains f xs]: whether any item satisfies [f] — a
    {!map_until} stopping on the first [true], so domains stop claiming
    new work once a witness is found. An item that raises before the
    first witness in input order raises, as the sequential
    [List.exists] would. *)
val exists : ?domains:int -> ('a -> bool) -> 'a list -> bool

(** [fold ?domains ~f ~init g xs] maps [g] in parallel, then folds the
    results sequentially in input order — the common
    map-then-accumulate-verdicts shape of the benches. *)
val fold : ?domains:int -> f:('acc -> 'b -> 'acc) -> init:'acc -> ('a -> 'b) -> 'a list -> 'acc

(** [map_until ?domains ~stop_on f xs] is the work-stealing frontier
    primitive: items are claimed from the shared atomic counter (idle
    domains steal the next index instead of waiting on a fixed
    partition), and claiming ceases once some completed item satisfies
    [stop_on]. Returns [(prefix, stopped)] where [prefix] is the results
    of a contiguous input prefix and [stopped] the index of its first
    stopping item, if any. Because indices are claimed in ascending
    order, every item before the first stopper is guaranteed evaluated,
    so [prefix] ends exactly at the first stopping item of the {e input}
    (or covers all of [xs] when none stops) — bit-identical at every
    domain count. Work completed beyond the stopper is discarded.
    [stop_on] must be pure (it is re-applied during the merge scan); a
    raising item aborts with its exception unless a stopping item
    precedes it in input order. *)
val map_until :
  ?domains:int ->
  stop_on:('b -> bool) ->
  ('a -> 'b) ->
  'a array ->
  'b array * int option

(** Pool observability: process-lifetime counters, read at any point
    where no job is in flight (benches read them after their ensembles;
    [udc explore --pool-stats] after the search). *)
type stats = {
  pool_size : int;  (** workers currently alive (the caller is one more) *)
  spawned : int;  (** [Domain.spawn] calls so far — ≤ the pool size *)
  jobs : int;  (** parallel jobs dispatched to the pool *)
  pool_tasks : int;  (** tasks executed by pool jobs (caller's included) *)
  seq_tasks : int;  (** tasks executed on the sequential path *)
  busy_s : float array;  (** per-worker wall seconds spent claiming/running *)
  idle_s : float array;  (** per-worker wall seconds spent parked *)
  worker_tasks : int array;  (** pool-job tasks claimed per worker *)
  caller_tasks : int;  (** pool-job tasks run on the caller's own domain *)
}

val stats : unit -> stats
val pp_stats : Format.formatter -> stats -> unit
