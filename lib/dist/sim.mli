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

    The scheduling slot itself lives in a kernel over a pid window (at
    the end of this interface): [execute] drives one window over
    [[0, n)], and [Scale.Shard.execute] drives one per shard, so the two
    engines share every slot rule by construction. *)

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
    malformed: a loss rate (global, per-link, or scheduled) outside
    [0, 1] or NaN, a [loss_schedule] that is not strictly increasing in
    tick (unsorted or duplicate ticks), [max_consecutive_drops < 0], or
    an ADD window/bound below 1. Negative and tick-0 schedule entries
    remain legal (pre-run cutover). Called by {!execute}; exposed so
    config builders can fail fast. *)
val validate : config -> unit

type result = {
  run : Run.t;
  reason : stop_reason;
  final_states : Protocol.t array;
}

(** [execute cfg make_process] runs the system where process [p] executes
    [make_process p]. [decisions] supplies every nondeterministic choice;
    it defaults to [Decision.random ~seed:cfg.seed ()], which reproduces
    the historical PRNG behaviour bit-identically. *)
val execute :
  ?decisions:Decision.source -> config -> (Pid.t -> Protocol.t) -> result

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

(** {1 The scheduling kernel}

    The slot logic both engines share, over a contiguous pid {e window}
    [[base, base + size)]. Per-pid arrays are indexed locally
    ([pid - base]); decisions, fairness rows and events carry global
    pids. [execute] drives one window over [[0, n)] and adds the goal,
    drain, blackout and a fresh oracle view per poll; [Scale.Shard]
    drives one window per shard and adds the cross-shard barrier and a
    committed view per tick. *)

type window = {
  cfg : config;
  base : int;
  size : int;
  source : Decision.source;
  channel : Channel.t;  (** in-flight queues of the window's destinations *)
  hists : History.Builder.t array;
  states : Protocol.t array;
  crashed : bool array;
  order : Pid.t array;  (** the slot order, permuted in place every tick *)
  pending_inits : Init_plan.entry list array;  (** per owner, plan order *)
  mutable pending_init_count : int;  (** orphans included *)
  pending_faults : Fault_plan.entry list array;  (** per victim, plan order *)
  orphan_faults : Fault_plan.entry list;
  mutable schedule : (int * float) list;  (** loss-schedule entries ahead *)
  mutable crashes : Pid.t list;
      (** crashed pids, newest first; the caller may clear it once read *)
  mutable initiated : Action_id.t list;
  mutable any_do : bool;
  mutable crash_budget_left : int;
  done_actions : Action_id.Set.t array;
  mutable now : int;  (** the current (or last) tick *)
}

(** [window cfg ~base ~size ~source ~hists make_process] builds the window
    [[base, base + size)]: its slice of the init and fault plans, a
    channel that draws drop decisions from [source], [size] empty
    builders [hists], and the states [make_process p]. The window at base
    0 also keeps the plan entries that name no pid of [[0, n)]: they
    never fire but block quiescence (and the goal). Loss-schedule entries
    at tick 0 or earlier are applied at once. [cfg] must pass
    {!validate}. *)
val window :
  config ->
  base:int ->
  size:int ->
  source:Decision.source ->
  hists:History.Builder.t array ->
  (Pid.t -> Protocol.t) ->
  window

(** [tick w ~view ~send_out now] runs tick [now] on [w]: it applies the
    loss schedule, draws the slot order and gives every live process one
    slot (R2). Priorities within a slot: crash (planned or granted by the
    crash budget), then initiation, then a changed oracle report (polled
    with [view ()]), then forced delivery (ADD bound, then [max_delay]),
    then the deliver-vs-step coin. A send to a pid inside the window is
    gated and enqueued here; [send_out ~src ~dst msg] receives every
    other send, ungated. *)
val tick :
  window ->
  view:(unit -> Oracle.view) ->
  send_out:(src:Pid.t -> dst:Pid.t -> Message.t -> unit) ->
  int ->
  unit

(** No process of the window will emit another event unprompted: no
    pending init, nothing in flight, every live process quiescent, and no
    pending fault whose trigger can still fire. *)
val quiescent : window -> bool
