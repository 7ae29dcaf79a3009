(** Sharded large-n simulation (the two-tier execution mode).

    [Sim.execute] ticks one window over every pid: one decision stream,
    one channel, one crash list. At [n = 10^6] everything global about it
    serialises. {!execute} runs the same tick loop ({!Sim.execute_shards})
    with one window per {e shard}: a contiguous pid range that owns its
    slice of every per-pid structure plus a decision stream of its own,
    keyed by [Prng.shard_seed (seed, shard)]. Windows tick in parallel on
    the {!Ensemble} pool, with no lock on the step path, and a sequential
    barrier routes cross-shard sends and commits crashes.

    {b Fidelity.} Shard 0's stream is seeded with the run seed, so with
    [shards = 1] {!execute} is [Sim.execute] on the same configuration:
    the same call, for every oracle. With [shards > 1] a run is a
    deterministic function of [(seed, shards)] at {e every} domain count.
    A shard's oracle sees the crashes committed at the last barrier plus
    its own shard's crashes since; a remote send sees the committed ones
    (the destination re-checks its exact flag at injection).

    {b Restrictions} (validated, [Invalid_argument] otherwise): goal
    [Run_to_max]; no [blackout_after_do]; no explorer crash budget; fault
    triggers must be [At] (cross-shard [After_did]/[After_any_do] would
    need a consensus of their own). *)

(** [execute ?shards ?domains cfg make_process] runs [cfg] sharded.
    [shards] defaults to 1 and is clamped to [cfg.n]; [domains] is passed
    to the {!Ensemble} pool (defaulting to its process-wide setting).
    [decisions], when given, must hold one source per shard (after
    clamping) — the record/replay hook. *)
val execute :
  ?shards:int ->
  ?domains:int ->
  ?decisions:Decision.source array ->
  Sim.config ->
  (Pid.t -> Protocol.t) ->
  Sim.result

(** Like {!execute} with recording sources: returns the per-shard
    decision traces alongside the result. *)
val record :
  ?shards:int ->
  ?domains:int ->
  Sim.config ->
  (Pid.t -> Protocol.t) ->
  Sim.result * Decision.t list array

(** Re-runs from recorded per-shard traces; bit-identical to the
    recording run. [traces] length must equal the (clamped) shard
    count.
    @raise Decision.Divergence if a trace does not match its queries. *)
val replay :
  traces:Decision.t list array ->
  ?shards:int ->
  ?domains:int ->
  Sim.config ->
  (Pid.t -> Protocol.t) ->
  Sim.result
