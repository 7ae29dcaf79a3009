(** Implemented failure detectors.

    {!Oracles} realises the paper's detector {e classes} axiomatically — an
    oracle is told who crashed and shapes its reports to satisfy the class
    definition. The backends here are the opposite: production-lineage
    detectors (φ-accrual, SWIM, gossip/anti-entropy) implemented {e inside}
    the simulated system as protocol components. They learn about crashes
    only through messages on the fair-lossy channels, so which class each
    one realises under which channel regime is an empirical question — the
    one {!Explore.Classify} answers.

    {2 The adapter}

    A backend is delivered as a {!pair}: a protocol (the component that
    probes, gossips, times out) and an {!Oracle.t} view of its suspicion
    output. The two sides share per-run mutable cells: the protocol
    publishes its current suspicion set into its cell on every transition,
    and the oracle's [poll] reports the cell whenever it changed. Suspicions
    therefore enter histories as ordinary [Suspect] events through the
    standard polling path, and every downstream consumer — the detector
    specs, the epistemic checker, the explorer, Table 1 — works unchanged.

    Because of the shared cells, a pair is {b single-use}: build a fresh
    one per execution (the same per-run discipline axiomatic oracles with
    mutable state already follow). Backend protocol states are single-use
    too: every transition updates the adapter's record, and the detector
    core inside it, in place and returns it (the {!Protocol.S_timed}
    contract), and the cell publication is a side effect, so backends are
    meant for the simulator and explorer, not for exhaustive enumeration.

    φ and gossip decide suspicion by deadline: a peer is suspected from
    the tick its φ crosses the threshold, or its counter has been stale
    for longer than [fail_timeout]. A core rescans its peers only when
    the clock reaches the earliest deadline of an unsuspected peer, and
    each arrival lowers that check to its peer's new deadline.

    {2 The label table}

    Each backend is one row of a table — its label, its full-mesh core
    and its ring core — that {!labels}, {!of_label}, {!of_label_inner}
    and {!of_ring_label} read. One pair builder serves every row. *)

(** Windowed inter-arrival statistics for the φ-accrual detector.
    Immutable; keeps the newest [capacity] samples. *)
module Phi_window : sig
  type t

  val create : capacity:int -> t
  val observe : t -> float -> t
  val count : t -> int

  (** [None] on an empty window. *)
  val mean : t -> float option

  (** Population variance; [Some 0.] on a single sample. *)
  val variance : t -> float option
end

(** [phi ~elapsed ~mean ~std] is the φ value of the accrual detector:
    [-log10 P(X > elapsed)] for [X ~ N(mean, std)], using the logistic
    approximation of the normal tail standard in φ-accrual
    implementations. Monotone increasing in [elapsed]. *)
val phi : elapsed:float -> mean:float -> std:float -> float

type phi_config = {
  hb_period : int;  (** ticks between heartbeat rounds *)
  window : int;  (** inter-arrival samples kept per peer *)
  threshold : float;  (** suspect when φ exceeds this *)
  min_std : float;  (** floor on the fitted deviation *)
  bootstrap : float;  (** assumed mean before the first sample *)
}

type swim_config = {
  probe_period : int;  (** ticks between probe launches *)
  rtt_timeout : int;  (** no ack after this: go indirect *)
  proxies : int;  (** ping-req fan-out [k] *)
  suspect_timeout : int;  (** no ack after this: suspect *)
  confirm_timeout : int;  (** suspected this long: confirm *)
}

type gossip_config = {
  gossip_period : int;  (** ticks between counter-vector pushes *)
  fanout : int;  (** gossip targets per round *)
  fail_timeout : int;  (** counter stale this long: suspect *)
}

val phi_defaults : phi_config
val swim_defaults : swim_config
val gossip_defaults : gossip_config

type pair = { oracle : Oracle.t; protocol : Pid.t -> Protocol.t }

(** The CLI and repro labels: ["phi"], ["swim"], ["gossip"]. *)
val labels : string list

(** The full-mesh backend [l], with the idle protocol on every pid. *)
val of_label : string -> (n:int -> pair) option

(** Like {!of_label}, but runs [inner] alongside the detector component
    on every pid (fair alternation, the {!Convert.With_gossip} idiom):
    a committee of all [n], in the terms of {!of_ring_label}. This is
    how the k-set experiment rides a decision protocol on each backend.
    The inner protocol receives the backend's suspicions through its
    ordinary [on_suspect], because the backend's oracle reports land in
    the history and the simulator forwards them — the adapter at work. *)
val of_label_inner :
  string -> (inner:(module Protocol.S) -> n:int -> pair) option

(** {2 Ring-topology variants for the sharded large-n mode}

    The full-mesh backends above keep O(n) state per process; at
    [n = 10^6] that is quadratic memory and per-tick work. The ring
    variants monitor a bounded neighbourhood instead: process [p] watches
    its [degree] successors [p+1 .. p+degree (mod n)] and pushes its
    liveness signal to the [degree] predecessors watching it. State and
    per-event work are O(degree), and a quiet tick leaves the detector
    state {e physically} unchanged, which the adapter turns into a slot
    that allocates no state and stores nothing — the property the
    sharded simulator's throughput target rests on.

    The φ and gossip rings are one push-heartbeat core under two rules.
    A rule gives the push period, the deadline a watched peer starts
    with, and the deadline an arrival sets; φ's rule keeps each watched
    peer's last arrival and inter-arrival window, gossip's keeps
    nothing, so a gossip ring core is one record and its deadline array.
    The core scans by deadline as the full-mesh cores do, but only on a
    step: an arrival retracts its peer's suspicion and re-arms the scan
    for the peer's new deadline without rescanning. SWIM's ring core
    pings its watched peers directly, with no proxies. *)

(** [ring_watched ~n ~degree p] is the list of processes [p] monitors —
    the [min degree (n-1)] successors of [p] on the ring. The estimator
    scopes completeness/accuracy claims to exactly these monitored
    pairs. *)
val ring_watched : n:int -> degree:int -> Pid.t -> Pid.t list

(** The processes monitoring [p] (to whom [p] pushes heartbeats). *)
val ring_watchers : n:int -> degree:int -> Pid.t -> Pid.t list

(** [phi_deadline ~mean ~std ~threshold] is the smallest integer elapsed
    time at which {!phi} crosses [threshold] — the arrival-time inversion
    that lets the φ detectors precompute a suspicion deadline instead of
    evaluating φ every tick. *)
val phi_deadline : mean:float -> std:float -> threshold:float -> int

(** [of_ring_label l ~degree ?committee ~n ()] builds the ring backend
    [l] with every process watching [degree] successors. [committee]
    [(c, inner)] runs [inner] on pids [0..c-1], re-created with [n = c],
    so a small protocol instance rides on a huge monitored system; all
    other pids run the idle protocol. Without it, every pid is idle. *)
val of_ring_label :
  string ->
  (degree:int -> ?committee:int * (module Protocol.S) -> n:int -> unit -> pair)
  option
