(** Exhaustive bounded enumeration of runs.

    The knowledge operators of the paper quantify over {e all} runs of a
    system, so checks of the knowledge-theoretic results (Props 3.4/3.5,
    Thms 3.6/4.3) need the actual generated system, not a sample — E14
    demonstrates that evaluating them on a sampled subset overclaims
    knowledge. This module enumerates every run of a protocol in a
    bounded context: one event per global step (sequential interleavings
    — a sub-adversary of the general model), at most [max_crashes]
    crashes inserted at arbitrary points (condition A1's failure
    independence), messages deliverable at any later step or never
    (unreliable channels: an undelivered message is a lost message, which
    is what A2 requires), and optional deterministic failure-detector
    report points.

    Interleavings that differ only by global idle steps are omitted:
    local histories ignore ticks, so idle padding creates no new local
    states and hence no new knowledge distinctions (see DESIGN.md).

    Enumeration is exact: every interleaving is a distinct run, so the
    system contains every point (cut). The only runs it merges are
    bit-identical ones, reached by two equal moves from one parent.

    Because exhaustiveness is load-bearing, truncation is loud:
    {!outcome} carries exploration counters and theorem-level callers go
    through {!runs_exn}, which raises {!Truncated} instead of returning a
    silent under-approximation.

    {2 Execution}

    The enumerator is a frontier-based parallel explorer on the
    {!Ensemble} pool: the shared prefix is expanded breadth-first until a
    level is at least [frontier] wide, then each frontier node's subtree
    is explored depth-first as an independent pool task under a
    deterministic slice of the node budget, and the emitted runs are
    sorted canonically. Every move appends one event at the node's tick,
    so a node's timed histories determine its ancestor chain: distinct
    frontier nodes root disjoint subtrees, and two nodes are equal only
    when one parent reaches both by equal moves. The search skips a move
    equal to an earlier sibling's, and needs no visited table. The
    emitted run set (runs, canonical order, digest) is {b bit-identical
    for every domain count}, including [domains = 1]. See DESIGN.md
    "Exhaustive enumeration". *)

type oracle_mode =
  | No_oracle
  | Perfect_reports
      (** a report event [suspect(S)] with [S] = processes crashed so far
          may be inserted wherever it differs from the last report *)
  | Lying_reports of Pid.t
      (** like [Perfect_reports], but a false suspicion of the given
          process may additionally be inserted anywhere — the detector that
          is weakly but not strongly accurate, driving the Proposition 3.4
          construction *)

type config = {
  n : int;  (** at least 1 *)
  depth : int;  (** number of global steps (= run horizon), at least 0 *)
  max_crashes : int;  (** at least 0 *)
  init_plan : Init_plan.t;
  oracle_mode : oracle_mode;
  max_nodes : int;
      (** exploration cap, at least 1; exceeding it truncates *)
  frontier : int;
      (** target width of the BFS frontier fanned out to the pool. It
          shapes no exhaustive run set: it fixes how the work splits into
          subtrees ([prefix_nodes], [subtrees]) and how a truncating
          budget is sliced. It is a configuration constant, never derived
          from the pool size, so the counters and a truncated run set are
          the same at every domain count. *)
}

(** Defaults: no crashes, no oracle, empty init plan, [max_nodes] = 2M,
    [frontier] = 128. *)
val config : n:int -> depth:int -> config

(** [check cfg] rejects [n < 1], [depth < 0], [max_crashes < 0] and
    [max_nodes < 1]. The message names the [udc enumerate] flag: [-n],
    [--depth], [--crashes] or [--max-nodes]. *)
val check : config -> (unit, string) result

(** Exploration counters. [nodes] counts each distinct interior node
    once ([prefix_nodes] of them in the sequential BFS prefix); runs
    reaching the depth bound are not nodes. [dedup_hits] counts the moves
    skipped because an earlier sibling made an equal one. *)
type stats = {
  nodes : int;
  dedup_hits : int;
  prefix_nodes : int;
  subtrees : int;
  truncated_subtrees : int;
  subtree_nodes : int array;  (** per-subtree node counts, frontier order *)
}

type outcome = { runs : Run.t list; exhaustive : bool; stats : stats }

exception Truncated of { nodes : int; max_nodes : int }

(** [runs ?domains cfg proto] enumerates the system generated by [proto]
    in the context [cfg]. Distinct runs only, in a canonical sort order
    (lexicographic per-process timed events); bit-identical for every
    [?domains] (default: the pool's configured size). Raises
    [Invalid_argument] when {!check} rejects [cfg]. *)
val runs : ?domains:int -> config -> (module Protocol.S) -> outcome

(** Like {!runs}, but raises {!Truncated} when the outcome is not
    exhaustive. Every theorem-level caller (bench, examples, the
    knowledge-based program construction) goes through this: a truncated
    system must fail loudly, not be checked as if complete. *)
val runs_exn : ?domains:int -> config -> (module Protocol.S) -> outcome

(** Stable hex digest of a run list, computed from a canonical printed
    form of the timed events (not [Marshal]: structurally equal run lists
    digest equal whatever the in-memory shape of their set payloads).
    Digest equality between [domains = 1] and [domains = k] is the
    determinism contract asserted by the perf smoke gate. *)
val digest : Run.t list -> string

val pp_stats : Format.formatter -> stats -> unit

(** The plain definition, kept as a differential oracle for the tests
    (precedent: [Checker.Reference]): a sequential walk of every path of
    the raw move grammar, with no table and no sibling rule, then the
    canonical sort with equal neighbours dropped. It shares only the
    move grammar, the emission policy and the canonical order with
    {!runs}; an exhaustive run set must match exactly.
    Its [nodes] counts raw-grammar visits and its [dedup_hits] the
    duplicate runs dropped. Raises [Invalid_argument] when {!check}
    rejects [cfg]. *)
module Reference : sig
  val runs : config -> (module Protocol.S) -> outcome
end
