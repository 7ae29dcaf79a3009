(** Adversarial scenarios: the executions behind the lower bounds.

    The paper's necessity results (Theorem 3.6 / 4.3 and the † entries of
    Table 1) say that with unreliable channels and too many possible
    failures, anything weaker than the stated detector admits runs that
    violate UDC. These builders construct exactly such runs, following the
    proof idea: let a doomed clique learn about the action and perform it,
    then crash the entire clique and lose the finite message prefix, so the
    surviving correct processes can never learn the action was performed.
    Each scenario names the property expected to fail; the run checkers in
    {!Spec} confirm the violation mechanically. *)

type expectation =
  | Udc_violated  (** DC2 fails (uniformity breaks) but nUDC may hold *)
  | Dc1_violated  (** the initiator blocks forever (liveness breaks) *)

type scenario = {
  name : string;
  description : string;
  config : Sim.config;
  protocol : Pid.t -> Protocol.t;
  protocol_label : string;
      (** the protocol in the CLI's syntax (e.g. ["majority:2"], ["ack"]),
          so the schedule explorer can reconstruct it in repro files *)
  expectation : expectation;
}

(** [t = n-1] (or [n]): the majority protocol's threshold degenerates to 1,
    so the initiator performs alone and is crashed immediately; no message
    ever leaves the clique \{initiator\}. Violates DC2 without any failure
    detector — why "no FD" stops working past [t < n/2]. *)
val solo_performer : n:int -> seed:int64 -> scenario

(** [n/2 <= t < n-1]: a clique of [n - t] processes (the protocol's ack
    threshold) exchanges the action over clean links while every link
    leaving the clique is lossy; the moment the initiator performs, the
    whole clique is crashed and in-flight messages are lost. *)
val confined_clique : n:int -> t:int -> seed:int64 -> scenario

(** The Proposition 3.1 protocol with a detector that violates weak
    accuracy (falsely suspects the processes outside the clique): the
    initiator "discharges" the outsiders via the false suspicions,
    performs, and dies with its clique. Shows accuracy is load-bearing. *)
val lying_detector : n:int -> seed:int64 -> scenario

(** The Proposition 3.1 protocol with a detector that never reports: one
    process crashes before acknowledging and the initiator waits forever.
    Shows completeness is load-bearing (DC1 fails, not DC2). *)
val blind_detector : n:int -> seed:int64 -> scenario

(** All scenarios for a given system size. *)
val all : n:int -> seed:int64 -> scenario list

(** [check_expectation e run] is [Ok desc] when the run exhibits the
    expected violation (and only it) and [Error why] otherwise — the
    run-level predicate behind {!verify}, reused by the schedule explorer
    to recognise a rediscovered scenario violation. *)
val check_expectation : expectation -> Run.t -> (string, string) result

(** Run a scenario and check its expectation; [Ok ()] when the expected
    violation (and only it) occurred. *)
val verify : scenario -> (unit, string) result

(** Verify each scenario on the {!Ensemble} domain pool; results are in
    scenario order, identical to mapping {!verify} sequentially. *)
val verify_all : scenario list -> (scenario * (unit, string) result) list
