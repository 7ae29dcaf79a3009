(** The discrete-event simulator.

    Each tick, every non-crashed process gets at most one event (R2): a
    planned crash, a planned initiation, a failure-detector report, a
    message receipt, or a protocol step. All nondeterminism is drawn from
    the seeded PRNG, so a run is a pure function of its configuration.

    Termination: runs stop when the configured goal holds and has drained,
    when the whole system is quiescent (no process will ever emit another
    event), or at [max_ticks] — the cap is how violating executions
    surface, since the paper's protocols never terminate on their own
    (footnote 10).

    One tick loop, {!execute_shards}, runs every simulation: it ticks one
    contiguous pid window per decision source, then runs one sequential
    barrier. [execute] is that loop with one window over [[0, n)], and
    [Scale.Shard.execute] is it with one window per shard, so the two
    share every slot rule, barrier step and oracle-view rule. *)

type stop_reason = Goal_reached | Quiescent | Max_ticks

type goal =
  | All_alive_performed
      (** every initiated action has been performed by every process not
          crashed at evaluation time — the UDC/nUDC success condition *)
  | All_alive_decided
      (** every process not crashed has performed at least one action —
          the consensus success condition (decisions are recorded as
          [do] events) *)
  | Run_to_max  (** never stop early (except on quiescence) *)

type config = {
  n : int;
  seed : int64;
  loss_rate : float;
  link_loss : ((Pid.t * Pid.t) * float) list;
      (** per-link loss-rate overrides (adversarial targeting) *)
  max_consecutive_drops : int;
  max_delay : int;
      (** in-flight messages older than this are force-delivered: the
          finite surrogate for "no upper bound on delay, but every kept
          message is eventually received" *)
  loss_schedule : (int * float) list;
      (** [(tick, rate)] switch points: when [tick] starts, the channel's
          global loss rate becomes [rate]. The finite surrogate for
          partial synchrony — an eventually-timely regime is a lossy rate
          followed by [(gst, 0.0)]. Entries at tick 0 or earlier take
          effect before the first tick (they override [loss_rate] for the
          whole run). Entries must be strictly increasing in tick:
          unsorted or duplicate-tick schedules raise [Invalid_argument]
          at execution (see {!validate}). Drop decisions are consulted
          per send regardless of the current rate, so the schedule
          changes drop {e outcomes} but never the decision-trace shape;
          the default [[]] leaves every existing configuration
          bit-identical. *)
  add : Channel.add option;
      (** [Some {window; bound}] switches the channel to the ADD
          (average delay/loss) regime of Kumar & Welch on top of the
          configured loss rate: per (src, dst) link at most [window - 1]
          consecutive sends are lost, and any kept message in flight for
          [bound] or more ticks is force-delivered before the deliver
          coin is consulted. Neither bound consumes a Decision, so
          record/replay and the explorer work unchanged, and the default
          [None] leaves every existing configuration bit-identical. *)
  fault_plan : Fault_plan.t;
  init_plan : Init_plan.t;
  oracle : Oracle.t;
  max_ticks : int;
  drain_margin : int;
      (** extra ticks after the goal holds, letting acknowledgments and
          failure-detector reports land before the run is cut *)
  goal : goal;
  blackout_after_do : bool;
      (** adversary move: the instant the first [do] event occurs, every
          in-flight message is lost (legal: fairness only constrains
          infinite behaviour) *)
  crash_budget : int;
      (** how many decision-driven crashes the run's {!Decision.source} may
          grant (on top of the fault plan). With the default [0] no crash
          decision is ever queried, so traces of existing configurations
          keep their historical shape; the explorer raises it to let the
          search place crashes itself. *)
}

(** Sensible defaults: no losses, no faults, no oracle, goal
    [All_alive_performed]. *)
val config : n:int -> seed:int64 -> config

(** [validate cfg] raises [Invalid_argument] when the configuration is
    malformed: [n < 1], [crash_budget < 0], a loss rate (global,
    per-link, or scheduled) outside [0, 1] or NaN, a [loss_schedule] that
    is not strictly increasing in tick (unsorted or duplicate ticks),
    [max_consecutive_drops < 0], an ADD window/bound below 1, or an init
    owner, fault victim or [After_did] performer outside [[0, n)].
    Negative and tick-0 schedule entries remain legal (pre-run cutover).
    Called by {!execute}; exposed so config builders can fail fast. *)
val validate : config -> unit

type result = {
  run : Run.t;
  reason : stop_reason;
  final_states : Protocol.t array;
}

(** [execute cfg make_process] runs the system where process [p] executes
    [make_process p]. [decisions] supplies every nondeterministic choice;
    it defaults to [Decision.random ~seed:cfg.seed ()], which reproduces
    the historical PRNG behaviour bit-identically. It is
    [execute_shards ~sources:[| decisions |]]. *)
val execute :
  ?decisions:Decision.source -> config -> (Pid.t -> Protocol.t) -> result

(** [execute_shards ~sources cfg make_process] splits [[0, n)] into
    [Array.length sources] balanced contiguous windows (the first
    [n mod s] hold one extra pid), window [k] drawing every decision from
    [sources.(k)]. Each tick, every window runs its slots (on the
    {!Ensemble} pool with [domains], inline when there is one window),
    each live process getting one slot (R2). Priorities within a slot:
    crash (planned or granted by the crash budget), then initiation, then
    a changed oracle report, then forced delivery (ADD bound, then
    [max_delay]), then the deliver-vs-step coin. A sequential barrier then
    routes the sends that crossed windows (they arrive at the next tick),
    commits the tick's crashes, applies the blackout, and checks the goal
    with its drain margin and quiescence.

    The oracle view: a window's oracle sees the crashes committed at the
    last barrier plus the window's own crashes since. With one window
    that is every crash so far, a crash earlier in the tick included.

    With more than one source, [cfg] must have crash budget 0 and
    [At]-triggered faults only ([Scale.Shard] checks this): a window
    counts its own crash budget and reads its own pids' actions.
    @raise Invalid_argument if [cfg] fails {!validate} or the number of
    sources is outside [[1, n]]. *)
val execute_shards :
  ?domains:int ->
  sources:Decision.source array ->
  config ->
  (Pid.t -> Protocol.t) ->
  result

(** All processes run the same protocol. *)
val execute_uniform :
  ?decisions:Decision.source -> config -> (module Protocol.S) -> result

(** Run with a recording random source and return the decision trace
    alongside the result. [replay ~trace] on the same configuration
    reproduces the run bit-identically. *)
val record : config -> (Pid.t -> Protocol.t) -> result * Decision.t list

(** Re-execute a recorded trace (strict: raises {!Decision.Divergence} if
    the trace does not fit the configuration). *)
val replay :
  trace:Decision.t list -> config -> (Pid.t -> Protocol.t) -> result

val pp_stop_reason : Format.formatter -> stop_reason -> unit
