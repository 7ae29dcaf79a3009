(** Fair-lossy channels (the communication model of Section 2.1).

    Channels may lose messages and impose unbounded delay, but never corrupt
    them, and they are fair: if the same message is sent from [p] to [q]
    infinitely often and [q] does not crash, it is received infinitely often
    (R5). The finite surrogate used here bounds {e consecutive} losses per
    fairness class by [max_consecutive_drops]: after that many losses of a
    given message content on a given channel, the next send is kept. Setting
    the bound high and crashing senders early recovers the adversarial
    prefix freedom the lower-bound constructions need (any finite prefix of
    sends may be lost under fairness). *)

type t

type add = { window : int; bound : int }
(** ADD (average delay/loss) channel parameters, after Kumar & Welch:
    on every (src, dst) link, at most [window - 1] consecutive sends are
    lost (so each window of [window] sends delivers at least one), and no
    kept message waits in flight longer than [bound] ticks — the simulator
    force-delivers the oldest overdue message before consulting the
    deliver coin. Both bounds are enforced without consuming Decisions,
    so record/replay and the explorer work unchanged. *)

val create :
  ?link_loss:((Pid.t * Pid.t) * float) list ->
  ?add:add ->
  n:int ->
  decide:(now:int -> src:Pid.t -> dst:Pid.t -> rate:float -> bool) ->
  loss_rate:float ->
  max_consecutive_drops:int ->
  unit ->
  t
(** [link_loss] overrides the loss rate on specific (src, dst) links — the
    targeted unreliability the lower-bound adversaries use to confine
    knowledge of an action to a doomed clique. [decide] is consulted for
    each send that is not a forced keep (typically
    [Decision.drop] on the run's decision source, or a PRNG coin). [n]
    sizes the dense per-destination in-flight queues: every pid that can
    receive must be < [n]. [add] layers the ADD per-link loss window on
    top of the fairness bound; raises [Invalid_argument] on
    [window < 1] or [bound < 1]. *)

(** [send t ~now ~src ~dst msg] records a send. The channel decides whether
    the message is kept in flight or lost. Equivalent to {!gate} followed
    (on a keep) by {!inject}. *)
val send : t -> now:int -> src:Pid.t -> dst:Pid.t -> Message.t -> [ `Kept | `Dropped ]

(** [gate t ~now ~src ~dst msg] makes the loss decision for one send —
    fairness-table lookup, forced keep, decision source, consecutive-loss
    update — without enqueueing anything. Returns [true] when the message
    is kept. Unlike the queue operations, [dst] is not restricted to this
    channel's [n] destinations: the simulator's kernel gates every send
    with global pids on the sender's window channel, and enqueues it on
    that channel at the local index or, for a cross-shard send, on the
    destination shard's. *)
val gate : t -> now:int -> src:Pid.t -> dst:Pid.t -> Message.t -> bool

(** [inject t ~src ~dst ~sent msg] enqueues a message whose loss decision
    was already made. [sent] is the tick of the original send; pushing
    with a [sent] below the queue's last entry is legal but demotes
    {!oldest_in_flight} for that destination from binary search back to a
    linear scan. *)
val inject : t -> src:Pid.t -> dst:Pid.t -> sent:int -> Message.t -> unit

(** Messages currently in flight to [dst], with sender and send tick, in
    send order. *)
val deliverable : t -> dst:Pid.t -> (Pid.t * Message.t * int) list

(** Number of messages in flight to [dst] — O(1), no allocation (the
    simulator's per-slot backlog probe). *)
val backlog : t -> dst:Pid.t -> int

(** [nth_in_flight t ~dst i] is the [i]-th element of
    [deliverable t ~dst] without materializing the list. O(1). Raises
    [Invalid_argument] out of bounds. *)
val nth_in_flight : t -> dst:Pid.t -> int -> Pid.t * Message.t * int

(** [oldest_in_flight t ~dst] is the in-flight message to [dst] with the
    smallest send tick, if any; ties on the tick resolve to the newest
    entry. O(log backlog) while sends to [dst] have arrived in
    nondecreasing tick order (the simulator always sends this way);
    O(backlog) otherwise. *)
val oldest_in_flight : t -> dst:Pid.t -> (Pid.t * Message.t * int) option

(** Remove one in-flight instance (it is being received). Raises if absent. *)
val deliver : t -> src:Pid.t -> dst:Pid.t -> Message.t -> unit

val in_flight_count : t -> int

(** Adversary move: lose every message currently in flight. Legal under
    fairness, which only constrains infinite behaviour. *)
val drop_all_in_flight : t -> unit

(** Adversary move: lose every in-flight message addressed to [dst]. *)
val drop_in_flight_to : t -> dst:Pid.t -> unit

(** [forget t ~pid] discards every fairness-table row whose source or
    destination is [pid]. Behaviour-neutral for a crashed [pid] (it never
    sends or receives again); the simulator calls it on crash so the
    table stays bounded by the live working set instead of leaking
    O(n² · keys) under churn. *)
val forget : t -> pid:Pid.t -> unit

(** Number of live fairness-table rows (regression hook for the
    bounded-growth guarantee of {!forget}). *)
val fairness_table_size : t -> int

val set_loss_rate : t -> float -> unit
