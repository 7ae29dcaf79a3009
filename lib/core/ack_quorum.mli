(** The request/acknowledge scheme of the fair-lossy UDC protocols:
    Proposition 3.1 and its footnote-11 variant ({!Ack_udc}), Proposition
    4.1 ({!Generalized_udc}), Corollary 4.2 ({!Majority_udc}) and the
    Section 5 protocol ({!Theta_udc}).

    A process enters the UDC(alpha) state on [init_p(alpha)] or on its
    first alpha-message. In that state it sends alpha-messages to every
    other process repeatedly, each until that process acknowledges; it
    acknowledges every alpha-message it receives; and it performs alpha
    at the first step at which its {!RULE} discharges every peer, by an
    acknowledgement or by what the detector has reported. The protocols
    differ only in that rule. *)

module type RULE = sig
  val name : string

  (** What the process keeps of its detector's reports. *)
  type det

  val initial : det
  val on_suspect : n:int -> det -> Report.t -> det

  (** [ready ~n ~me det ~acked]: [me] may perform an action once the
      processes in [acked] have acknowledged it. *)
  val ready : n:int -> me:Pid.t -> det -> acked:Pid.Set.t -> bool

  (** Stop sending an action's requests once it is performed. *)
  val stop_after_perform : bool
end

(** [covered ~n ~me ~acked s]: every process other than [me] has
    acknowledged or is in [s]. *)
val covered : n:int -> me:Pid.t -> acked:Pid.Set.t -> Pid.Set.t -> bool

(** A transition that changes nothing returns its state physically
    unchanged. *)
module Make (R : RULE) : Protocol.S
