(** Bounded systematic schedule exploration, in three modes.

    The bounded modes ([Bfs], [Dpor]) search over {e move sets}, not raw
    traces: a node is a set of persistent silences (links lossy from
    tick 0) plus a list of indexed deviations from the scripted default
    schedule (crash here, suspect there, pick that message instead).
    Because every process retransmits, only such persistent moves can
    change the outcome of a long-horizon run — transient drops are erased
    by the next resend — so the move-set space is exponentially smaller
    than the raw schedule space while still reaching every violation the
    paper's adversaries exhibit.

    Search is breadth-first by move count (so witnesses are
    minimal-depth), with candidate moves derived from the journal of each
    node's own run and pruned sleep-set-style. [Dpor] additionally
    derives the journal's happens-before relation ({!Hb}) and suppresses
    branch points that commute with the previously kept point of the same
    family (counted in [stats.pruned]), and both bounded modes cut nodes
    whose run is structurally identical to an already-expanded one via
    the {!Seen} cache (counted in [stats.seen_hits]). The cache records
    and consults interior nodes only: a leaf — a node at the depth bound
    — has no children, so a cut there would prune nothing, and search
    finishes each level before the next, so a leaf's run could only ever
    be matched by another leaf. A leaf runs without a journal and keeps
    no run past its own evaluation; only a violating leaf runs again,
    recording, for its witness trace.

    [Fuzz] abandons the depth bound: deterministic seeded mutations of
    recorded traces, executed tolerantly through {!Problem.run_guided},
    with a mutant retained in the corpus iff it reaches a
    decision-prefix state no earlier run reached.

    All modes evaluate waves on the deterministic {!Ensemble} pool via
    {!Ensemble.map_until} — items are claimed work-stealing style from a
    shared counter, the merge is sequential over the returned contiguous
    prefix — so witness {e and} every counter in [stats] are identical at
    every [domains]. *)

type move =
  | Silence of Pid.t * Pid.t  (** link lossy from the start of the run *)
  | Deviate of int * Decision.t  (** override decision index [i] *)

val pp_move : Format.formatter -> move -> unit

type node = {
  silences : (Pid.t * Pid.t) list;  (** ascending by [(src, dst)] *)
  devs : (int * Decision.t) list;  (** ascending by decision index *)
}

val root : node
val moves : node -> move list
val pp_node : Format.formatter -> node -> unit

type mode =
  | Bfs  (** bounded breadth-first over move sets, static pruning only *)
  | Dpor  (** [Bfs] + happens-before branch-point reduction *)
  | Fuzz  (** coverage-guided trace mutation, no depth bound *)

val mode_to_string : mode -> string

(** Search settings. Crash and pick deviations are always branched on;
    suspicion deviations only when the problem's
    [Problem.adversarial_oracle] is set (the explorer then plays the
    detector), at most 2 points per process, spaced by at least 3 ticks
    in [Bfs] and by dependence in [Dpor]. Waves hold 1024 runs; the
    witness and every counter are independent of the wave size. *)
type options = {
  mode : mode;
  depth : int;  (** maximum move-set size (bounded modes) *)
  window : int;  (** branch only on the first [window] decision indices *)
  domains : int option;  (** ensemble domains; [None] = library default *)
  max_runs : int;  (** total run budget *)
  crash_points : int;  (** crash branch points per victim *)
  pick_points : int;  (** pick branch points per node *)
  branch_silences : bool;
  seen_cache : bool;
      (** cut interior nodes whose run equals an already-expanded one
          (bounded modes; fuzz always keeps its cache — it is the
          coverage map) *)
  mutants : int;  (** fuzz: mutants generated per corpus parent per round *)
}

val default_options : options

type stats = {
  explored : int;  (** runs executed and merged *)
  depth_reached : int;  (** move-set depth (bounded) or rounds (fuzz) *)
  states : int;
      (** decision-prefix states visited: total decisions made over
          merged runs ({!Decision.count}, which a leaf's non-recording
          source counts too) *)
  distinct : int;
      (** distinct runs in the seen cache: interior nodes only in the
          bounded modes, every non-violating run in fuzz *)
  seen_hits : int;
      (** nodes cut because their run was already seen: interior nodes
          only in the bounded modes, so every hit removes a subtree *)
  pruned : int;  (** branch points suppressed by dpor commutation *)
}

type witness = {
  node : node;
      (** the move set; {!root} for fuzz witnesses (shrink those with
          {!Shrink.minimize_trace}) *)
  trace : Decision.t list;  (** full decision trace; replays bit-identically *)
  result : Sim.result;
  violation : string;
}

type outcome =
  | Violation of witness * stats
  | Exhausted of stats  (** the bounded space contains no violation *)
  | Budget of stats  (** [max_runs] exhausted before the space *)

(** Dispatches on [options.mode]; [Fuzz] delegates to {!fuzz}. *)
val search : ?options:options -> Problem.t -> outcome * stats

(** Coverage-guided fuzzing (ignores [options.mode]). Never returns
    [Exhausted]: the mutation space has no bound, so the hunt ends in a
    [Violation] or a [Budget].
    @raise Invalid_argument if [options.mutants < 1]. *)
val fuzz : ?options:options -> Problem.t -> outcome * stats

(** [split_at k l] = [(first k elements, the rest)]. Tail-recursive —
    frontiers reach hundreds of thousands of nodes. Exposed for the
    regression test. *)
val split_at : int -> 'a list -> 'a list * 'a list
