(** Protocols as pure state machines.

    The paper defines a protocol for [p] as a function from finite histories
    to actions. Maintaining the state alongside the history (rather than
    recomputing from it) is an equivalent but efficient presentation: every
    transition is driven by exactly one appended event, so the state is a
    function of the history.

    {!S} is pure: its states are immutable values, which lets the
    exhaustive enumerator snapshot and branch executions. A state of an
    {!S_timed} backend is single-use: a transition may update its
    argument in place and return it, and no caller may step an old state
    again. The simulator steps each process's state exactly once per
    event, so it runs both kinds. *)

(** What a process does when given a protocol step (one event per tick). *)
type step_action =
  | Send_to of Pid.t * Message.t  (** emits a [send] event *)
  | Perform of Action_id.t  (** emits a [do] event *)
  | No_op  (** emits no event *)

module type S = sig
  type state

  val name : string
  val create : n:int -> me:Pid.t -> state

  (** Called after [init_p(alpha)] was appended to the local history. *)
  val on_init : state -> Action_id.t -> state

  (** Called after [recv_p(src,msg)] was appended. *)
  val on_recv : state -> src:Pid.t -> Message.t -> state

  (** Called after [suspect_p(report)] was appended. *)
  val on_suspect : state -> Report.t -> state

  (** Called when the scheduler grants a protocol step. The returned state
      must already reflect the returned action (e.g. a [Perform alpha] step
      returns a state that knows alpha was performed). *)
  val step : state -> now:int -> state * step_action

  (** True when the protocol will never emit another event unprompted. *)
  val quiescent : state -> bool

  (** Actions this process has performed — observer for checkers. *)
  val performed : state -> Action_id.Set.t
end

(** Like {!S}, but receive transitions also see the current tick. The
    paper's protocols are time-oblivious on receipt — a received message
    means the same thing whenever it lands — so {!S} stays the primary
    signature and {!make} adapts it by ignoring [now]. Implemented
    failure-detector backends ({!Detector.Backends}) are the exception:
    φ-accrual keeps per-peer heartbeat {e arrival timestamps}, so the
    receive transition needs the clock. *)
module type S_timed = sig
  type state

  val name : string
  val create : n:int -> me:Pid.t -> state
  val on_init : state -> Action_id.t -> state
  val on_recv : state -> now:int -> src:Pid.t -> Message.t -> state
  val on_suspect : state -> Report.t -> state
  val step : state -> now:int -> state * step_action
  val quiescent : state -> bool
  val performed : state -> Action_id.Set.t
end

(** A protocol instance with hidden state. A transition whose state
    comes back physically unchanged returns its argument itself, so a
    caller that stores the result can skip the store. *)
type t

val make : (module S) -> n:int -> me:Pid.t -> t
val make_timed : (module S_timed) -> n:int -> me:Pid.t -> t
val name : t -> string
val on_init : t -> Action_id.t -> t
val on_recv : t -> now:int -> src:Pid.t -> Message.t -> t
val on_suspect : t -> Report.t -> t
val step : t -> now:int -> t * step_action
val quiescent : t -> bool
val performed : t -> Action_id.Set.t
