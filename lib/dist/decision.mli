(** Decision traces: the simulator's nondeterminism, reified.

    Every nondeterministic choice a run makes — the per-tick scheduling
    permutation, the deliver-vs-step coin, which in-flight message to
    deliver, whether the channel drops a send, whether the adversary
    crashes a process, whether a suspicion is injected — is a {e decision}
    drawn from a {!source}. The default source answers from the seeded
    PRNG exactly as the simulator always has (same draws, same order, so
    seeded runs are bit-identical to the pre-decision-trace code); other
    sources replay a recorded trace, or follow a scripted plan of
    deviations from a deterministic default schedule (the systematic
    explorer's mode).

    A {e trace} is the serializable sequence of decisions a run took:
    [Sim.replay] feeds it back through a {!replay} source and reproduces
    the run bit-identically. A {e journal} additionally records, per
    decision, the query context (which link, which process, how many
    alternatives) — the raw material for the explorer's branch
    generation and pruning. *)

type t =
  | Order of int array
      (** the scheduling permutation applied this tick (slot order) *)
  | Deliver of bool  (** deliver a message (true) or take a protocol step *)
  | Pick of int  (** index of the delivered message among the deliverable *)
  | Drop of bool  (** the channel dropped this send *)
  | Crash of bool  (** the adversary crashed this process at this slot *)
  | Suspect of int
      (** adversarial oracle move: [0] = no report, [q+1] = toggle
          suspicion of process [q] and report the new set *)

val equal : t -> t -> bool

(** Seeded FNV hash consistent with [equal] — the ingredient the
    explorer folds over trace prefixes to fingerprint decision-prefix
    states. *)
val hash : t -> int

val pp : Format.formatter -> t -> unit

(** {1 Traces} *)

(** Compact one-line form, e.g. [O0.2.1;D1;P0;X1;C0;S3] —
    [O]rder / [D]eliver / [P]ick / [X] drop / [C]rash / [S]uspect. *)
val trace_to_string : t list -> string

val trace_of_string : string -> (t list, string) result

(** {1 Journals} *)

(** What the simulator was asking when a decision was made. [keys] values
    identify delivery alternatives (a hash of source and content) so the
    explorer can skip branching into identical deliveries. *)
type query =
  | Q_order of { n : int }
  | Q_deliver of { dst : Pid.t; backlog : int }
  | Q_pick of { dst : Pid.t; keys : int array }
  | Q_drop of { src : Pid.t; dst : Pid.t }
  | Q_crash of { pid : Pid.t; events : int }
  | Q_suspect of { pid : Pid.t; arity : int }

type entry = { tick : int; query : query; taken : t }

(** {1 Sources} *)

type source

(** PRNG-driven, exactly the simulator's historical behaviour: a main
    stream for scheduling and a split stream for channel drops. Never
    crashes spontaneously, never injects suspicions. [record] (default
    false) keeps the journal. *)
val random : ?record:bool -> seed:int64 -> unit -> source

(** Deterministic default schedule — identity slot order, deliver before
    stepping, oldest message first, no drops, no crashes, no suspicions —
    except at the listed decision indices (0-based, in query order), where
    the planned decision is taken instead. The plan may come in any
    order; of two entries with one index the later wins, and a negative
    index is never taken. [silence] lists links whose every drop decision
    is [true] from the start (a lossy-link adversary); a plan entry whose
    index a silenced link answers is not taken. A planned [Drop true]
    also forces every {e later} drop decision on the same link to
    [true]: one deviation silences a link mid-run. [record] (default
    true) keeps the journal; a non-recording source makes the same
    decisions and counts them. *)
val scripted :
  ?record:bool ->
  ?plan:(int * t) list ->
  ?silence:(Pid.t * Pid.t) list ->
  unit ->
  source

(** Strict replay of a recorded trace: every query must match the next
    recorded decision's kind, and the trace must not run out.
    @raise Divergence otherwise. *)
val replay : t list -> source

(** Tolerant replay: follows the trace positionally while the decision
    kinds match the queries; at the first mismatch — or when the trace is
    exhausted — switches permanently to the scripted default schedule.
    Used by the shrinker, which re-records the actual trace anyway. *)
val guided : t list -> source

exception Divergence of string

(** Number of decisions made so far. *)
val count : source -> int

(** Decisions taken, in query order (empty for a non-recording source). *)
val trace : source -> t list

(** Full journal, in query order (empty for a non-recording source). *)
val journal : source -> entry array

(** {1 Queries} — called by the simulator/channel/adversarial oracle. *)

(** Permutes [a] in place (the slot order for this tick). *)
val order : source -> tick:int -> int array -> unit

val deliver : source -> tick:int -> dst:Pid.t -> backlog:int -> p:float -> bool

(** [pick src ~tick ~dst ~keys ~arity] chooses an index in [0, arity).
    [keys] is consulted only by recording sources (for the journal), so
    its cost is not paid on the random hot path. *)
val pick :
  source -> tick:int -> dst:Pid.t -> keys:(unit -> int array) -> arity:int -> int

val drop : source -> tick:int -> src:Pid.t -> dst:Pid.t -> rate:float -> bool
val crash : source -> tick:int -> pid:Pid.t -> events:int -> bool
val suspect : source -> tick:int -> pid:Pid.t -> arity:int -> int
