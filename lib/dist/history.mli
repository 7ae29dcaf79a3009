(** Per-process histories.

    A history for process [p] is the totally ordered sequence of events at
    [p] (Section 2.1). We additionally record, for simulator bookkeeping,
    the global tick at which each event was appended; ticks are {e not}
    part of the history for indistinguishability purposes: two points are
    indistinguishable to [p], written [(r,m) ~p (r',m')], exactly when the
    event sequences coincide, regardless of the ticks at which the events
    landed.

    Internally a history is struct-of-arrays: parallel chronological
    [events]/[ticks] arrays, immutable after construction, so {!last},
    {!last_tick} and {!is_crashed} are O(1) and {!prefix_upto} is
    O(log n) with full structure sharing. A history carries no cached
    hash. The functional {!append} copies and is the cold path. The
    simulator's hot loop appends through {!Builder}, one mutable builder
    per process and run, sealed into a {!t} when the run ends.

    A sealed history is the only store of a run's events: the run index
    keeps tables, not a copy, and the index, the checkers and the run
    transforms read the history in place, through {!iter} or the
    allocation-free positional reads {!event} and {!tick}. *)

type t

val empty : t

(** [append h e ~tick] appends one event. Raises [Invalid_argument] if [h]
    already ends in [Crash] (R4: a crash is the last event) or if [tick]
    does not exceed the tick of the last event (R2: at most one event per
    process per tick). O(n): the flat arrays are copied. Linear builders
    (the simulator, run transforms) should use {!Builder} instead; tree
    builders (the enumerator) stay within a small constant of the old
    cons-cell cost because their histories are bounded by the search
    depth. *)
val append : t -> Event.t -> tick:int -> t

val length : t -> int
val is_crashed : t -> bool

(** Events in chronological order. *)
val events : t -> Event.t list

(** Events with their ticks, chronological. *)
val timed_events : t -> (Event.t * int) list

(** [iter f h] applies [f] to every event in chronological order without
    materializing a list. *)
val iter : (Event.t -> tick:int -> unit) -> t -> unit

(** [event h i] is the [i]-th event (chronological, 0-based). O(1), and
    allocates nothing. Raises [Invalid_argument] out of bounds. *)
val event : t -> int -> Event.t

(** [tick h i] is the tick of the [i]-th event. O(1), and allocates
    nothing. Raises [Invalid_argument] out of bounds. *)
val tick : t -> int -> int

(** [prefix_upto h m] is the history restricted to events with tick <= [m]
    — i.e. [p]'s component of the cut [r(m)]. O(log n), shares the
    underlying arrays. *)
val prefix_upto : t -> int -> t

(** [last h] is the most recent event, if any. O(1). *)
val last : t -> Event.t option

(** Tick of the most recent event, if any. O(1). *)
val last_tick : t -> int option

(** Exact equality of the timed event sequences (ticks included) — the
    bit-identical comparison used by determinism tests. The paper's
    tick-insensitive indistinguishability lives in [Epistemic.System],
    which indexes points by event sequence. *)
val equal_timed : t -> t -> bool

(** A seeded FNV fold of the ticks and {!Event.hash} over {e every}
    event in chronological order, consistent with [equal_timed]: O(n)
    per call. (Not [Hashtbl.hash] on a list, whose bounded traversal
    would systematically collide histories that differ only in later
    events, and whose shape-sensitivity would hash equal set payloads
    apart.) *)
val hash_timed_events : t -> int

val pp : Format.formatter -> t -> unit

(** Mutable linear history construction — the simulator's hot path.
    A builder's buffers grow geometrically; {!Builder.seal} snapshots it
    into an exact-size {!t} that shares nothing with the builder. *)
module Builder : sig
  type history := t
  type t

  (** An empty builder. [capacity] (default 64) sizes the initial
      buffers; the simulator passes a small capacity so a million
      mostly-quiet builders do not pre-reserve gigabytes. *)
  val fresh : ?capacity:int -> unit -> t

  (** Appends one event; same R2/R4 validation as {!History.append}, but
      O(1) amortized, writing into the builder's buffers. *)
  val append : t -> Event.t -> tick:int -> unit

  val length : t -> int
  val is_crashed : t -> bool

  (** Tick of the last event, [-1] when empty. *)
  val last_tick : t -> int

  (** Payload of the most recent [Suspect] event, if any — O(1), cached
      at append time (the simulator's report-change test). *)
  val last_suspect : t -> Report.t option

  (** Exact-size snapshot; shares nothing with the builder. *)
  val seal : t -> history
end
