(** Runs: functions from time to cuts (Section 2.1).

    A cut is a tuple of finite process histories; a run maps each tick
    [0..horizon] to a cut. We store each process's full history with ticks
    and recover any cut as a prefix. The [check_*] functions verify the
    paper's run conditions R1-R5 (R5 in the finite bounded-unfairness
    surrogate documented in DESIGN.md) plus the init-at-most-once
    requirement of Section 2.4. *)

type t

(** [make ~n ~horizon histories] requires one history per pid. *)
val make : n:int -> horizon:int -> History.t array -> t

val n : t -> int
val horizon : t -> int

(** Full history of [p]. *)
val history : t -> Pid.t -> History.t

(** [p]'s component of the cut at tick [m], i.e. [r_p(m)]. *)
val history_at : t -> Pid.t -> int -> History.t

(** [F(r)]: the set of processes whose history contains [crash]. *)
val faulty : t -> Pid.Set.t

val correct : t -> Pid.Set.t

(** Tick at which [p] crashed, if it did. *)
val crash_tick : t -> Pid.t -> int option

(** Whether [p] has crashed by tick [m] (inclusive). *)
val crashed_by : t -> Pid.t -> int -> bool

(** Actions initiated in the run, with owner and tick. *)
val initiated : t -> (Action_id.t * int) list

(** [did r p alpha] holds if [do_p(alpha)] appears in [r]. *)
val did : t -> Pid.t -> Action_id.t -> bool

(** Tick of [do_p(alpha)], if it occurred. *)
val do_tick : t -> Pid.t -> Action_id.t -> int option

(** Exact equality: same arity, horizon, and timed event sequences
    (ticks included). This is the bit-identical comparison used by the
    determinism tests of the parallel ensemble engine. *)
val equal : t -> t -> bool

(** A 32-character hex MD5 digest of the run's structure. Each history
    is encoded canonically — its length, then per event its tick, a
    constructor tag and the fields, as 8-byte little-endian words; a set
    as its cardinal and its ascending elements, a list as its length and
    its elements — and digested; the run digest is the MD5 of [n], the
    horizon and the [n] history digests. It depends on nothing but
    structure: {!equal} runs get equal digests, whatever the shape or
    physical sharing of their set payloads, and distinct runs get
    distinct digests up to MD5 collisions. *)
val digest : t -> string

(** R2: within each history, ticks are strictly increasing and bounded by
    the horizon. (R1, the empty cut at time 0, holds by construction since
    ticks start at 1.) *)
val check_r2 : t -> (unit, string) result

(** R3: every receive is covered by at least as many earlier-or-same-tick
    sends of the same message along the same channel. Linear in the run:
    receives are scanned in tick order against a monotone cursor into
    each channel's ascending send ticks. *)
val check_r3 : t -> (unit, string) result

(** R4: a crash, if present, is the last event of its history. *)
val check_r4 : t -> (unit, string) result

(** R5 (finite surrogate): for every channel (p,q) with [q] correct and
    every fairness class, the number of {e consecutive unanswered} sends —
    trailing sends after the key's last receive (a receive at tick [t]
    answers every send of its key at tick [<= t]) — is at most
    [2 * max_consecutive_drops + 1]. Up to [max_consecutive_drops]
    trailing sends may be legitimately dropped by a fair channel and up
    to [max_consecutive_drops + 1] more may still be in flight when the
    finite prefix ends; a longer unanswered tail witnesses unfairness.
    Unlike a total-receive count, this flags a channel that delivers once
    early and then drops forever. *)
val check_r5 : t -> max_consecutive_drops:int -> (unit, string) result

(** Section 2.4: [init_p(alpha)] appears only in the history of
    [Action_id.owner alpha], at most once. *)
val check_init_once : t -> (unit, string) result

(** All of the above. *)
val check_well_formed : t -> max_consecutive_drops:int -> (unit, string) result

val pp : Format.formatter -> t -> unit
