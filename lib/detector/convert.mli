(** Failure-detector conversions (Propositions 2.1 and 2.2).

    The weak-to-strong conversion is the Chandra-Toueg construction: every
    process repeatedly gossips the suspicions its own detector has reported;
    a process's {e derived} detector reports everything it has heard. Here
    it is a protocol combinator, so the gossip messages really travel over
    the fair-lossy channels of the run; the derived suspicion timeline is
    recovered from the run by {!Spec.gossip_timeline}.

    Both gossip conversions below are built on one internal shell,
    [Shell (P)], which owns the state, the recurring broadcast, handing
    a changed derived set to the inner protocol, the fair turn-taking
    between gossip and inner steps, [quiescent] and [performed]. They
    differ only in their merge rule: what a peer's gossip and a local
    report do to the derived set.

    The impermanent-to-permanent conversion (Prop 2.2) is the oracle wrapper
    {!Oracles.accumulate}. *)

(** [With_gossip ((module P))] behaves like [P] but additionally broadcasts
    every suspicion it receives from its failure detector, repeatedly and
    forever (fair channels deliver eventually). The inner protocol is fed
    the {e derived} suspicions: the union of everything reported locally or
    heard from peers, which satisfies strong completeness whenever the
    underlying detector satisfies (impermanent) weak completeness, and
    preserves weak accuracy. *)
module With_gossip (P : Protocol.S) : Protocol.S

(** Like {!With_gossip}, but with {e current}-suspicion semantics: each
    process repeatedly broadcasts its detector's latest report, the
    derived suspicion set is (own latest) ∪ (union of each peer's latest
    heard), and {e retractions propagate}. This is what the ◇-classes
    need: cumulative gossip would freeze chaos-phase false suspicions
    forever, destroying eventual accuracy. Converts eventually-weak to
    (eventually-)strong detectors — the ◇W ≅ ◇S observation. *)
module With_gossip_current (P : Protocol.S) : Protocol.S
