(** Knowledge computed from sampled (rather than exhaustive) systems.

    The knowledge operator quantifies over every run of the system, so
    computing it over a finite {e sample} of seeded executions
    over-approximates: with few runs, a process's local history may be
    unique in the sample, making it spuriously "know" everything true of
    that one run. The f-construction of Theorem 3.6 turns such
    over-claimed knowledge into {e false suspicions} — strong-accuracy
    violations that exhaustive systems provably never exhibit. This module
    builds sampled systems and measures that overclaim, which is the
    exact-vs-sampled ablation of DESIGN.md: the rate must fall as the
    sample grows. *)

(** [env ~mk_config ~protocol ~runs] executes [runs] seeded simulations
    (seed [i] passed to [mk_config]) and wraps them as an epistemic
    checking environment. *)
val env :
  mk_config:(int64 -> Sim.config) ->
  protocol:(module Protocol.S) ->
  runs:int ->
  Epistemic.Checker.env

type overclaim = {
  reports : int;  (** constructed suspicion entries (process, report, q) *)
  false_suspicions : int;
      (** entries naming a process that had not crashed — impossible under
          exact knowledge (knowledge is truthful) *)
  runs_complete : int;
      (** f-runs whose final constructed reports cover every crashed
          process at every correct process *)
  runs_total : int;
}

(** Apply the Theorem 3.6 f-construction to every run of the (sampled)
    environment and audit it against the ground truth. The audit runs on
    the domain pool ([?domains] caps the workers); the record is
    bit-identical at every domain count. *)
val f_overclaim : ?domains:int -> Epistemic.Checker.env -> overclaim
