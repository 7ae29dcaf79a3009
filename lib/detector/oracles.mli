(** Failure-detector oracle implementations.

    Each constructor returns an oracle whose reports satisfy the advertised
    class on every run it participates in (given that the run's crash plan
    is what the oracle was shown). The [lying] oracle deliberately
    violates accuracy: it drives the lower-bound experiments, exhibiting
    UDC violations when the detector is weaker than the paper requires
    (the blind-detector scenario needs no oracle here: it runs on
    {!Oracle.none}, which never reports, so completeness fails). *)

(** Strong accuracy + strong completeness. [lag] delays detection of each
    crash by that many ticks. *)
val perfect : ?lag:int -> unit -> Oracle.t

(** Weak accuracy + strong completeness: suspects every crashed process,
    plus churning false suspicions drawn from the non-immune processes
    (each with probability 0.15). The immune process is the smallest
    planned-correct pid. *)
val strong : seed:int64 -> unit -> Oracle.t

(** Weak accuracy + weak completeness: each faulty process is suspected
    only by its designated correct witness. *)
val weak : unit -> Oracle.t

(** Weak accuracy + impermanent strong completeness: reports the crashed
    set during odd report windows of 6 ticks and retracts (empty report)
    during even ones, so no suspicion is permanent. *)
val impermanent_strong : unit -> Oracle.t

(** Weak accuracy + impermanent weak completeness: witness-only reports
    with retraction windows. *)
val impermanent_weak : unit -> Oracle.t

(** Eventually-perfect (a fortiori eventually-strong/-weak): arbitrary
    (possibly wildly inaccurate) suspicions before [stabilize_at], exactly
    the crashed set afterwards. Before [stabilize_at], a process's
    sticky suspicion set is resampled now and then, and is non-empty with
    probability [chaos_rate] (default 0.2). Drives the consensus
    baselines. *)
val eventually_perfect :
  stabilize_at:int -> ?chaos_rate:float -> seed:int64 -> unit -> Oracle.t

(** Honest eventually-weak (the ◇W of Table 1): chaos before
    [stabilize_at], at {!eventually_perfect}'s default [chaos_rate];
    afterwards, {e weak} completeness only — each crashed
    process is suspected by its designated correct witness, everyone else
    reports nothing — and weak accuracy (the immune process is never
    suspected after stabilisation). Too weak to drive the ◇S consensus
    algorithm directly; it must first be strengthened by gossip
    (Proposition 2.1, the ◇W ≅ ◇S observation of Chandra-Toueg). *)
val eventually_weak : stabilize_at:int -> seed:int64 -> unit -> Oracle.t

(** Generalized detector reporting [(F_plan, |crashed ∩ F_plan|)] on
    every poll: the most informative (S,k) detector. Eventually t-useful
    for every t >= |F|. *)
val gen_exact : unit -> Oracle.t

(** Generalized component detector: given a partition of the processes into
    components, reports [(S, k)] where [S] is the union of components
    containing planned-faulty processes and [k] the number crashed in [S],
    on every poll. *)
val gen_component : components:Pid.Set.t list -> unit -> Oracle.t

(** The paper's trivial t-useful detector for t < n/2: cycles through all
    size-[t] subsets, reporting [(S, 0)] on every fourth poll of a
    process. *)
val trivial_cycling : t:int -> unit -> Oracle.t

(** Violates strong (and, if a victim is the immune candidate, weak)
    accuracy: additionally suspects [victims] from tick [from] on,
    regardless of whether they crashed. *)
val lying : victims:Pid.Set.t -> from:int -> Oracle.t

(** Wraps an oracle so that each report is the union of everything the
    wrapped oracle has reported to this process so far — the trivial
    impermanent-to-permanent conversion of Proposition 2.2. *)
val accumulate : Oracle.t -> Oracle.t

(** Re-renders a standard oracle's reports in g-standard form (Section
    2.2): "the processes in Proc - S are correct" instead of "the
    processes in S are faulty". Same information, different report
    language; the specs and protocols interpret it through the [g]
    mapping ({!Report.suspects_in}), so every detector class is
    preserved. *)
val g_standard : Oracle.t -> Oracle.t
