(** Sharded large-n simulation (the two-tier execution mode).

    [Sim.execute] drives one kernel window over every pid: one decision
    stream, one channel, one crash list. At [n = 10^6] everything global
    about it serialises. This engine drives the same kernel
    ({!Sim.window}, {!Sim.tick}) over contiguous {e shards}: each is a
    window owning its slice of every per-pid structure plus a decision
    stream of its own keyed by [Prng.shard_seed (seed, shard)]. Every
    tick maps {!Sim.tick} over the shards (an {!Ensemble} map, no locks
    on the step path), then runs a sequential barrier that routes
    double-buffered cross-shard outboxes and commits crashes into a
    shared read-only failure-pattern view. This module owns only the
    partition, the barrier, the committed view and record/replay; every
    slot rule is the kernel's.

    {b Fidelity.} With [shards = 1] the single window is
    [Sim.execute]'s, so the engines share every decision query and every
    history append by construction; they differ only in the oracle view
    (below). Runs are bit-identical to [Sim.execute] — same
    {!Run.digest} — for oracles that ignore the view's crash set, which
    the perf gate and tests assert. With [shards > 1] runs are
    deterministic for a given [(seed, shards)] at {e every} domain
    count, and remote sends see a committed crash bitmap that is at most
    one tick stale (the destination shard re-checks its exact flag at
    injection), mirroring what a real distributed deployment of the
    simulator would observe.

    {b Restrictions} (validated, [Invalid_argument] otherwise): goal
    [Run_to_max]; no [blackout_after_do]; no explorer crash budget; fault
    triggers must be [At] (cross-shard [After_did]/[After_any_do] would
    need a consensus of their own). The oracle view is built once per
    tick — refreshed at crash commits — rather than freshly per poll, so
    the oracle must not depend on the view's physical identity: the
    detector-backend cell oracles and [Oracle.none] qualify, the
    axiomatic oracles that embed the view's crashed set in reports do
    not (use [Sim.execute] for those; they are O(n) per report anyway). *)

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
