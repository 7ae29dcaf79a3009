(** Empirical classification of implemented failure detectors.

    The paper's taxonomy (P, S, ◇P, ◇S, …) is axiomatic; the implemented
    backends ({!Detector.Backends}) only probe and time out. This module
    answers which class each backend {e realises} under a channel
    regime, two ways:

    - {b ensemble statistics} ({!classify}): run a seed ensemble of the
      backend under the regime with random crash plans, check each
      class's axioms on every run ({!Detector.Spec.satisfies}), and
      report the {e maximal} classes satisfied on all runs — the
      statistical assignment under the regime's random schedules. The
      ensemble runs on the deterministic {!Ensemble} pool, so the
      outcome is bit-identical at every domain count.
    - {b violation search} ({!certify}): drive the schedule explorer
      against a stronger class's axioms on a {e crash-free} problem (so
      completeness is vacuous and any violation is an accuracy
      violation) and produce a shrunk, digest-strict replayable repro —
      the worst-case legal schedule separating the backend from the
      stronger class. *)

(** [Add] is the average-delay regime: the same ambient loss as
    [Eventually_timely] but bounded per link from tick 0 by the ADD
    window/delay pair ({!Channel.add}) instead of by a GST cutover. *)
type regime = Reliable | Fair_lossy | Eventually_timely | Add

val regimes : regime list
val regime_label : regime -> string
val regime_of_string : string -> (regime, string) result

type params = {
  n : int;
  crashes : int;  (** random crash victims per run *)
  runs : int;  (** ensemble size *)
  max_ticks : int;  (** horizon *)
  gst : int;  (** eventually-timely: tick at which losses stop *)
}

val default_params : params

(** The classes a backend is scored against. *)
val classes : Detector.Spec.cls list

type outcome = {
  backend : string;
  regime : regime;
  params : params;
  rates : (Detector.Spec.cls * int) list;
      (** runs (of [params.runs]) on which each class's axioms held *)
  assignment : Detector.Spec.cls list;
      (** maximal classes satisfied on every run; [[]] = none *)
  reports : int;  (** suspicion change points summed over the ensemble *)
  false_suspicions : int;
      (** change points naming a process not yet crashed *)
  digest : string;  (** MD5 over the ensemble's run digests, in order *)
}

(** The regime's simulator configuration for one seed (exposed so tests
    and benches reuse the exact classification workload). *)
val config : regime:regime -> params:params -> seed:int64 -> Sim.config

(** Run [params.runs] seeds of the backend under the regime, with
    random crash plans, and score every class on each run. The outcome
    is bit-identical at every domain count. Before any run it returns an
    [Error] naming the [udc classify] flag at fault: [-n] below 2 (no
    peer to monitor), [--crashes] outside [\[0, n - 1\]] (some process
    must stay correct), [--runs] or [--max-ticks] below 1 (no run would
    be scored, or every class would hold vacuously), and, under
    [Eventually_timely] only, [--gst] outside [\[2, max_ticks - 1\]]
    (losses would never stop, or no message would ever be lost; other
    regimes ignore [gst]). An unknown [backend] is an [Error] too. *)
val classify :
  ?domains:int ->
  backend:string ->
  regime:regime ->
  params ->
  (outcome, string) result

(** ["perfect+weak"]-style rendering of the assignment; ["none"] when
    empty. *)
val assignment_string : Detector.Spec.cls list -> string

val pp_outcome : Format.formatter -> outcome -> unit

(** The class worth certifying against: the weakest class above the
    assignment that the ensemble did not satisfy ([None] when the
    backend already satisfies the strongest class). *)
val certification_target : outcome -> Detector.Spec.cls option

type certificate = {
  against : Detector.Spec.cls;
  repro : Repro.t;
  explored : int;  (** explorer nodes evaluated *)
}

(** Bounded search, with {!Engine.default_options}, for a legal schedule
    violating [against]'s axioms on a crash-free 160-tick run of the
    backend. [Error] when the bounded space contains no violation
    (itself evidence, at that depth). *)
val certify :
  backend:string ->
  against:Detector.Spec.cls ->
  n:int ->
  (certificate, string) result

(** {2 k-set agreement grid}

    The min-rule k-set protocol ({!Consensus.Kset}) rides on each
    implemented backend ({!Detector.Backends.of_label_inner}) under each
    channel regime, every process proposing its own id at tick 1. Each
    run is scored on the decision side (safety attained, all correct
    decided), the detector side (did the suspicion timeline satisfy
    k-weak accuracy, i.e. simulate an (S,k) oracle), and the knowledge
    side (KS1/KS2 below: which proposals each decider knew to be
    initiated when it decided). *)

(** The k-set initiation plan: every process proposes its own id at tick
    1 ([Action_id.make ~owner:q ~tag:q]), so the proposal vector is
    [\[0 .. n-1\]]. {!kset} and {!certify_kset} run on it, and so does
    [udc explore --protocol kset]. *)
val proposal_plan : int -> Init_plan.t

type kset_outcome = {
  backend : string;
  regime : regime;
  k : int;
  params : params;
  attained : int;
      (** runs on which k-agreement + validity held over the deciders *)
  terminated : int;  (** runs on which every correct process decided *)
  sk_simulated : int;
      (** runs whose suspicion timeline satisfied [Strong_k k] — the
          backend simulated an (S,k) oracle on that run *)
  ks1 : int;
      (** attained runs where every decider [p] knew
          [K_p(inited a_p)] at its decide tick (grounding: you know
          your own proposal) *)
  ks2 : int;
      (** attained runs with a common core of >= min(k, #correct)
          correct proposers known-initiated by {e every} decider at its
          decide tick: each had initiated its proposal by the time each
          decider decided. It does not say the deciders heard them (see
          {!kset_knowledge}) *)
  digest : string;  (** MD5 over the ensemble's run digests, in order *)
}

(** Bit-identical at every domain count, like {!classify}. Before any
    run it returns {!classify}'s [Error] for out-of-range [params], then
    one naming [-k] when [k] is outside [\[1, n - 1\]] ([n] processes
    decide at most [n] values, so any [k >= n] is attained vacuously),
    then one for an unknown [backend]. A run scores KS1/KS2 with
    {!kset_knowledge} when it attained k-set safety, and neither
    otherwise. *)
val kset :
  ?domains:int ->
  backend:string ->
  regime:regime ->
  k:int ->
  params ->
  (kset_outcome, string) result

(** [kset_knowledge ~k run] is the pair [(ks1, ks2)] that {!kset}
    counts for an attained run, read on the system of [run] alone at each
    decider's decide tick. Both are false when no process decided.

    In a one-run system, [p]'s indistinguishability class at a tick
    starts at its last event at or before that tick, and at a decide
    tick that event is the decision. So [K_p(inited a_q)] holds there
    exactly when [q] initiated its proposal at or before [p]'s decide
    tick. It does not hold [p] to have heard [q]: a decider that a
    suspicion let skip [q]'s estimate still knows [inited a_q] once [q]
    has initiated. The verdict equals the model checker's
    ({!Epistemic.Checker.holds} over [Epistemic.System.of_runs [run]]),
    which the test suite checks. *)
val kset_knowledge : k:int -> Run.t -> bool * bool

val pp_kset_outcome : Format.formatter -> kset_outcome -> unit

type kset_certificate = {
  k : int;
  repro : Repro.t;
  explored : int;  (** explorer nodes evaluated *)
}

(** Certify a negative cell: bounded search, with
    {!Engine.default_options} over 40-tick runs and the {e adversarial}
    oracle playing the detector (explorer-chosen suspicions), for a
    legal schedule on which the min-rule protocol decides more than [k]
    values. The suspicions are unconstrained, so the certificate names no
    detector class: such a run may even respect (S,k), since the min rule
    needs more than (S,k). [Error] when the bounded space contains none,
    and when [k] is outside [\[1, n - 1\]], as {!kset} does. *)
val certify_kset : k:int -> n:int -> (kset_certificate, string) result
