(** Quiescent nUDC via heartbeats (Aguilera-Chen-Toueg, the mechanism the
    paper's footnote 10 points to).

    The plain Proposition 2.3 protocol can never stop sending: with lossy
    channels and no failure detector, silence from a peer is
    indistinguishable from a crash. The heartbeat fix: every process emits
    periodic heartbeats, and a pending alpha-message to [q] is retransmitted
    {e only when a fresh heartbeat from q arrives} (and stops once [q]
    acknowledges). If [q] is correct, its heartbeats keep coming and
    fairness eventually lands both the request and the acknowledgment; if
    [q] crashes, its heartbeats stop and so do the retransmissions:
    application traffic is quiescent, only the (unavoidable) heartbeat
    stream continues. [app_quiescent_after] measures this on a run. *)

module P : Protocol.S

(** Tick after which no coordination (non-heartbeat) message is sent in
    the run; [None] when the last tick still carries application traffic. *)
val app_quiescent_after : Run.t -> int option
