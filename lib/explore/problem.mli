(** A search problem: a configuration to explore and a violation to hunt.

    Runs of a problem are driven by scripted {!Decision.source}s: the
    deterministic default schedule plus the explorer's chosen deviations.
    When [adversarial_oracle] is set, a fresh decision-driven failure
    detector ({!Adversarial.oracle}) is wired to each run's source, so
    suspicion reports are part of the explored nondeterminism.

    Violations only count on well-formed runs: a candidate must pass
    [Run.check_well_formed] under the configuration's
    [max_consecutive_drops] — a schedule that breaks channel fairness
    (R5) is not a legal adversary. *)

type t = {
  name : string;
  config : Sim.config;
  protocol : Pid.t -> Protocol.t;
  protocol_label : string;  (** {!Protocols} syntax, for repro files *)
  adversarial_oracle : bool;
  property : Property.t;
}

val make :
  ?name:string ->
  ?adversarial_oracle:bool ->
  config:Sim.config ->
  protocol:(Pid.t -> Protocol.t) ->
  protocol_label:string ->
  Property.t ->
  t

(** Strip an adversary scenario down to a fair search problem: the
    hand-built schedule (targeted link loss, fault plan, blackout, lying
    oracle) is removed; in exchange the search gets a crash budget equal
    to the scenario's planned faulty set and — when the scenario used an
    oracle — the adversarial detector. [max_ticks] (default 120) is the
    horizon: long enough for benign branches to complete, so only
    persistent adversarial schedules violate the expectation. *)
val of_scenario : ?max_ticks:int -> Core.Adversary.scenario -> t

(** Execute under the scripted schedule given by [plan] (index-keyed
    deviations) and [silence] (links lossy from the start). Returns the
    source for its trace and journal. With [record] (default true) the
    source keeps them; without, it is the same run and the source's
    {!Decision.count} still counts its decisions, but its trace and
    journal are empty. *)
val run :
  ?max_ticks:int ->
  ?record:bool ->
  t ->
  plan:(int * Decision.t) list ->
  silence:(Pid.t * Pid.t) list ->
  Sim.result * Decision.source

(** Tolerant execution of a (possibly mutated) trace: follows it through
    a {!Decision.guided} source, falling back to the scripted defaults at
    the first mismatch — the fuzzer's executor. The returned source is
    recording, so its trace is the {e effective} decision sequence, which
    replays strictly. *)
val run_guided :
  ?max_ticks:int -> t -> trace:Decision.t list -> Sim.result * Decision.source

(** Strict trace replay (raises {!Decision.Divergence} on mismatch). *)
val replay : ?max_ticks:int -> t -> trace:Decision.t list -> Sim.result

(** The property violation exhibited by a result, if the run is
    well-formed. *)
val violation : t -> Sim.result -> string option
