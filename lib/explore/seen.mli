(** The explorer's visited-state cache.

    Two tiers with deliberately different disciplines:

    {b Runs} (node tier): {!check_add} keys complete runs by a seeded
    FNV fingerprint of their timed histories, with collisions resolved
    by structural equality ([Run.equal]). The fingerprint routes to a
    bucket; only structural comparison decides equality, so an FNV
    collision costs a walk, never a wrong cut. A hit certifies that an
    already-expanded schedule produced the bit-identical run, so the
    re-converging node's subtree can be cut. The bounded search records
    and consults interior nodes only: a node at the depth bound has no
    subtree to cut, and holding its run would only cost memory.

    {b Prefixes} (coverage tier): {!mark_prefixes} marks the FNV fold of
    {!Decision.hash} along every prefix of a trace, fingerprint-only.
    This tier never cuts anything — it grades fuzz mutants by the unseen
    decision-prefix states they reach — so a collision can at worst
    discard a genuinely novel mutant, never corrupt a verdict; that is
    why it carries no structural backup.

    All mutation happens in the engine's sequential merge phase; the
    type is not domain-safe. *)

type t

(** An empty cache. *)
val create : unit -> t

(** [check_add t r] is [true] iff a structurally equal run was already
    recorded; otherwise records [r] and returns [false]. *)
val check_add : t -> Run.t -> bool

(** Distinct runs recorded. *)
val distinct : t -> int

(** [mark_prefixes t trace] marks every decision-prefix fingerprint of
    [trace] and returns how many were unseen — the fuzz mutant's
    coverage score. *)
val mark_prefixes : t -> Decision.t list -> int
