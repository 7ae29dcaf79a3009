(** Outgoing-message bookkeeping for protocols.

    The run model allows one event per process per tick (R2), so "send to
    all" takes one tick per recipient and "send repeatedly" is a rotation.
    An outbox holds one-shot sends (FIFO) and recurring sends (round-robin,
    resent until cancelled — the paper's "sends an alpha-message repeatedly
    ... until it has received an acknowledgment"). One-shots drain before
    recurring entries are serviced. Purely functional, so protocol states
    remain snapshot-able for exhaustive enumeration. *)

type t

val empty : t

(** Queue a one-shot send. *)
val push : t -> dst:Pid.t -> Message.t -> t

(** Install (or replace) a recurring send under [key]. *)
val set_recurring : t -> key:string -> dst:Pid.t -> Message.t -> t

(** Remove the recurring send under [key], if present. *)
val cancel : t -> key:string -> t

(** Next message to put on the wire, with the outbox state after sending.
    [None] when there is nothing to send. One-shots always go; a recurring
    entry is resent only when at least [resend_period] ticks have elapsed
    since its last transmission — protocols "send repeatedly" without
    flooding the network faster than receivers can drain it. *)
val next : t -> now:int -> (t * (Pid.t * Message.t)) option

val resend_period : int

val is_empty : t -> bool
