(** Statistical knowledge-claim estimation at large n.

    {!Explore.Classify} checks the detector-class axioms exactly on
    small-n ensembles; this module scores them {e statistically} on
    sharded large-n runs, scoped to the pairs a ring backend actually
    monitors (process [p] watches its [degree] ring successors), and
    reports Wilson confidence intervals plus the operational
    distributions the large-n membership literature reports: detection
    latency (ticks from crash to first suspicion by a correct monitor)
    and false-suspicion counts. A small committee running
    [Core.Ack_udc] on top of the ring detector scores the UDC
    conditions — uniformity (safety) and termination — on the same
    runs. *)

(** A Wilson score interval for a Bernoulli rate. *)
type ci = { successes : int; trials : int; rate : float; lo : float; hi : float }

(** [wilson ~successes ~trials] is the 95% interval (z = 1.96).
    [trials = 0] yields a NaN rate with the vacuous interval [0, 1]
    (no evidence constrains nothing); endpoints are always finite and
    inside [0, 1]. At the defined extremes the closed forms are
    [p = 0 -> [0, z^2/(n+z^2)]] and [p = 1 -> [n/(n+z^2), 1]]. *)
val wilson : successes:int -> trials:int -> ci

type dist = { samples : int; mean : float; p50 : float; p99 : float; max : float }

type params = {
  n : int;
  shards : int;
  degree : int;
  backend : string;  (** ["gossip"] | ["swim"] | ["phi"] *)
  regime : Explore.Classify.regime;
  runs : int;
  ticks : int;
  faults : int;  (** random crash victims per run *)
  committee : int;  (** [Ack_udc] committee size; 0 disables *)
  seed : int64;
  domains : int option;
}

(** Defaults: shards 1, degree 2, fair-lossy, 20 runs of 240 ticks,
    [max 1 (min 8 (n/8))] faults, committee 4, seed 42. *)
val params :
  ?shards:int ->
  ?degree:int ->
  ?regime:Explore.Classify.regime ->
  ?runs:int ->
  ?ticks:int ->
  ?faults:int ->
  ?committee:int ->
  ?seed:int64 ->
  ?domains:int ->
  n:int ->
  backend:string ->
  unit ->
  params

(** [check p] rejects parameters that would fail inside the engine or
    yield a vacuous score (no run, no tick, no monitored pair): a
    [backend] that is not a ring label ({!Detector.Backends.of_ring_label}),
    [n < 2], [shards < 1], [degree < 1], [runs < 1], [ticks < 1],
    [faults] outside [0 .. n] and [committee < 0]. The message names the
    [udc scale] flag of the offending field. {!estimate} runs the same
    check. *)
val check : params -> (unit, string) result

(** The per-seed simulator configuration: [Explore.Classify.config]
    with [faults] crashes, [ticks] ticks and the eventually-timely
    stabilisation tick at [max 1 (ticks / 2)], plus the committee's
    initiation; exposed so tests and benches reuse the exact estimation
    workload. The oracle field is filled in per run with the fresh
    backend pair's oracle. *)
val config : params -> seed:int64 -> Sim.config

(** A fresh ring pair for one execution of [p]: [backend] at [degree],
    with the committee (pids [0..committee-1] running [Core.Ack_udc])
    wired in when [committee > 0]. Pairs are single-use, so each run
    builds its own. Raises [Invalid_argument] on a backend {!check}
    rejects. *)
val pair : params -> Detector.Backends.pair

type report = {
  p : params;
  monitored_pairs : int;
  completeness : ci;  (** crashed targets finally suspected by their correct monitors *)
  strong_accuracy : ci;  (** no false suspicion anywhere in the run *)
  weak_accuracy : ci;  (** some correct process never falsely suspected *)
  ev_strong_accuracy : ci;
      (** the last-quarter reading: no suspicion-set change at or after
          the ◇-cutoff (3/4 of the horizon) names a live process. Not
          [Detector.Spec]'s eventual accuracy, which [Explore.Classify]
          scores: that one asks that no false suspicion be held at the
          horizon *)
  ev_weak_accuracy : ci;
      (** the last-quarter reading of weak accuracy: some correct
          process is named by no suspicion-set change at or after the
          ◇-cutoff *)
  cls_p : ci;  (** completeness ∧ strong accuracy *)
  cls_s : ci;
  cls_sk : (int * ci) list;
      (** (S,k) = completeness ∧ k-weak accuracy (at least [min k
          #correct] correct processes never falsely suspected), for
          [k = 2, 3] — the scoped statistical face of
          {!Detector.Spec.cls.Strong_k} *)
  cls_ev_p : ci;  (** completeness ∧ [ev_strong_accuracy] *)
  cls_ev_s : ci;  (** completeness ∧ [ev_weak_accuracy] *)
  detection_latency : dist option;
  false_per_run : dist option;
  udc_uniformity : ci option;  (** someone performed ⇒ all correct members did *)
  udc_termination : ci option;  (** all correct members performed *)
  wall : float;
  process_ticks : int;
  digest : string;  (** MD5 over the ensemble's run digests, in order *)
}

(** Runs the ensemble (on the {!Ensemble} pool; bit-identical at every
    domain count) and scores it. Raises [Invalid_argument] when {!check}
    rejects [p]. *)
val estimate : params -> report

val pp_report : Format.formatter -> report -> unit

(** One JSON object (hand-rolled, schema stable) for the E18 grid. *)
val to_json : report -> string
