(** Messages exchanged by the protocols in this reproduction.

    The simulator is generic over one closed message vocabulary so that
    events remain comparable and hashable (the epistemic engine indexes
    points of a system by local-history equality). Coordination messages may
    piggyback stable facts (full-information mode); consensus messages
    implement the Chandra-Toueg baselines. *)

type t =
  | Coord_request of Action_id.t * Fact.Set.t
      (** the "alpha-message" of the UDC/nUDC protocols; the fact set is
          empty unless the protocol runs in full-information mode *)
  | Coord_ack of Action_id.t * Fact.Set.t
      (** acknowledgment of an alpha-message *)
  | Gossip of Pid.Set.t
      (** suspicion dissemination used by the weak-to-strong failure
          detector conversion (Proposition 2.1) *)
  | Heartbeat of int
      (** "I am alive", with a sequence number — the Aguilera-Chen-Toueg
          heartbeat mechanism the paper's footnote 10 points to for
          quiescent coordination *)
  | Cons_estimate of { round : int; value : int; ts : int }
  | Cons_propose of { round : int; value : int }
  | Cons_ack of { round : int; ok : bool }
  | Cons_decide of { value : int }
  | Swim_ping of { origin : Pid.t; seq : int }
      (** SWIM direct probe; [origin] is the prober the acknowledgment
          must reach (it differs from the sender when relayed by a
          ping-req proxy) *)
  | Swim_ack of { origin : Pid.t; seq : int }
      (** probe acknowledgment, routed back towards [origin] *)
  | Swim_ping_req of { target : Pid.t; seq : int }
      (** indirect-probe request: "ping [target] on my behalf" *)
  | Gossip_counters of (Pid.t * int) list
      (** anti-entropy membership: the sender's per-process heartbeat
          counter vector, max-merged at the receiver *)

val equal : t -> t -> bool
val compare : t -> t -> int

(** Structural hash, consistent with [equal]: piggybacked fact sets are
    hashed by their elements, not by the tree shape [Marshal] and
    [Hashtbl.hash] would see. *)
val hash : t -> int

val pp : Format.formatter -> t -> unit

(** A fairness class: R5 is stated per message content, and two sends
    fall in the same class exactly when they carry the same content up
    to payload: piggybacked facts, sequence numbers, gossiped sets and
    vectors, and consensus values. A class is the message's kind plus at
    most two ints and holds no message. *)
type fairness = private { kind : int; x : int; y : int }

(** [fairness m] is [m]'s class. It allocates only for the kinds with
    fields (coordination, consensus-round and SWIM messages). *)
val fairness : t -> fairness

(** The printed class, as R5's error text shows it: [req:a0.1], [hb],
    [est:2], [sping:p3], ... *)
val pp_fairness : Format.formatter -> fairness -> unit
