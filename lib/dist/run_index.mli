(** A sealed, array-backed index over a {!Run.t}.

    Every checker in the reproduction — the epistemic model checker's
    primitive tables, the failure-detector property checkers, the DC1-DC3
    uniformity checkers, the consensus spec, stats and trace rendering —
    asks the same handful of questions of a run: "when did this event first
    happen", "what was the suspicion set at tick m", "which actions exist".
    Answering them off the raw [History.timed_events] lists re-walks the
    whole run at every call site. This module computes, once per run, the
    tables those questions read in O(1)/O(log) time, in one fold over
    each sealed history ({!History.iter}). It keeps no copy of the
    events: the run's histories are their only store, and a reader that
    wants the events themselves walks [Run.history] in place.

    - first-tick tables for the [Crashed]/[Did]/[Inited] primitives
      ([Sent]/[Received] scan one process's history instead: see
      {!first_send});
    - per-watcher suspicion timelines as sorted change-lists (both the raw
      detector timeline and the derived gossip timeline of Prop 2.1), and
      generalized [(S,k)] report lists;
    - the action inventory (initiated, performed, decisions) and event
      counts.

    Indexes are memoized per run (keyed by physical identity, weakly, so
    they die with the run) and safe to build and read from multiple
    domains: the parallel ensemble engine indexes runs concurrently. *)

type t

(** [of_run r] builds — or returns the cached — index of [r]. *)
val of_run : Run.t -> t

(** First tick at which [src] sent [msg] (under [Message.equal]) to [dst],
    if ever. A scan of [src]'s history, O(events of [src]): only the
    model checker's [Sent] tables ask, once per (primitive, run), so a
    table keyed by message would cost every send of every indexed run far
    more than the scans it saves. *)
val first_send : t -> src:Pid.t -> dst:Pid.t -> Message.t -> int option

(** First tick at which [dst] received [msg] (under [Message.equal]) from
    [src], if ever. A scan of [dst]'s history, as {!first_send}. *)
val first_recv : t -> dst:Pid.t -> src:Pid.t -> Message.t -> int option

(** Crash tick of [p] (same as {!Run.crash_tick}). *)
val crash_tick : t -> Pid.t -> int option

(** First tick at which [p] performed [alpha], if ever. *)
val first_do : t -> Pid.t -> Action_id.t -> int option

(** Tick of the first [init(alpha)] {e at its owner}, if it occurred —
    the [Inited] primitive of the model checker. *)
val first_init : t -> Action_id.t -> int option

(** Actions initiated in the run with their ticks, grouped by owner in pid
    order (the same order as {!Run.initiated}). *)
val initiated : t -> (Action_id.t * int) list

(** Every action initiated or performed anywhere, sorted by
    [Action_id.compare]. *)
val all_actions : t -> Action_id.t list

(** Processes that performed [alpha], ascending pid order. *)
val performers : t -> Action_id.t -> Pid.t list

(** Tag of the first [Do] in [p]'s history — the consensus decision. *)
val decision : t -> Pid.t -> int option

(** Suspicion change-list of watcher [p], ascending ticks: standard and
    correct-set reports, [Gen] reports excluded (the raw detector timeline
    of Section 2.2). *)
val suspicions : t -> Pid.t -> (int * Pid.Set.t) array

(** Like {!suspicions} but with [Gen] reports included via
    [Report.suspects_in] — the change-list read by the model checker's
    [Suspects] primitive. *)
val all_suspicions : t -> Pid.t -> (int * Pid.Set.t) array

(** Derived timeline of the weak-to-strong gossip conversion (Prop 2.1):
    own standard reports plus suspicions heard in [Gossip] messages,
    accumulated. Ascending ticks. *)
val gossip_suspicions : t -> Pid.t -> (int * Pid.Set.t) array

(** Generalized [(tick, S, k)] reports of watcher [p], ascending ticks. *)
val gen_reports : t -> Pid.t -> (int * Pid.Set.t * int) array

(** [suspects_at changes m] is the set in effect at tick [m]: the last
    change at or before [m] (empty before the first change). Binary
    search, O(log changes). *)
val suspects_at : (int * Pid.Set.t) array -> int -> Pid.Set.t

(** [final_suspects t p] is [p]'s raw-timeline suspicion set at the
    horizon. *)
val final_suspects : t -> Pid.t -> Pid.Set.t

type counts = {
  sends : int;
  recvs : int;
  dos : int;
  inits : int;
  crashes : int;
  suspects : int;
}

val counts : t -> counts
