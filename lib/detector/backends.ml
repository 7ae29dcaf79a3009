module Phi_window = struct
  type t = { capacity : int; samples : float list (* newest first *) }

  let create ~capacity = { capacity; samples = [] }

  let observe t x =
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | y :: rest -> y :: take (k - 1) rest
    in
    { t with samples = take t.capacity (x :: t.samples) }

  let count t = List.length t.samples

  let mean t =
    match t.samples with
    | [] -> None
    | l -> Some (List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l))

  let variance t =
    match (t.samples, mean t) with
    | [], _ | _, None -> None
    | l, Some m ->
        let s =
          List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 l
        in
        Some (Float.max 0.0 (s /. float_of_int (List.length l)))
end

(* The logistic approximation of the normal tail used by φ-accrual
   implementations (Hayashibara et al. give the model; the constants are
   the standard Bowling et al. fit): phi = -log10 P(X > elapsed). *)
let phi ~elapsed ~mean ~std =
  let y = (elapsed -. mean) /. std in
  let e = exp (-.y *. (1.5976 +. (0.070566 *. y *. y))) in
  if elapsed > mean then -.log10 (e /. (1.0 +. e))
  else -.log10 (1.0 -. (1.0 /. (1.0 +. e)))

type phi_config = {
  hb_period : int;
  window : int;
  threshold : float;
  min_std : float;
  bootstrap : float;
}

type swim_config = {
  probe_period : int;
  rtt_timeout : int;
  proxies : int;
  suspect_timeout : int;
  confirm_timeout : int;
}

type gossip_config = { gossip_period : int; fanout : int; fail_timeout : int }

let phi_defaults =
  { hb_period = 12; window = 10; threshold = 3.0; min_std = 2.0; bootstrap = 24.0 }

(* timeouts sized for this simulator's delivery latency: one event per
   process per tick plus the deliver-vs-step coin put a queued round trip
   at up to ~15 ticks even on loss-free channels, so the suspect timeout
   sits well above that and the rtt timeout above a typical 2×max_delay
   round trip *)
let swim_defaults =
  {
    probe_period = 6;
    rtt_timeout = 14;
    proxies = 2;
    suspect_timeout = 36;
    confirm_timeout = 54;
  }

let gossip_defaults = { gossip_period = 4; fanout = 2; fail_timeout = 60 }

type pair = { oracle : Oracle.t; protocol : Pid.t -> Protocol.t }

(* A detector core is the time/message logic of one backend; the
   [adapt] wrapper below turns it into a {!Protocol.S_timed} that
   publishes [suspicions] into the shared cells and alternates with an
   inner application protocol. Every core updates its argument in place
   and returns it, so a quiet step allocates no state and republishes
   the same physical suspicion set: a core state is single-use, like the
   pair that owns it. *)
module type CORE = sig
  type t

  val name : string
  val create : n:int -> me:Pid.t -> t

  (** [Some] when the message belongs to the detector, [None] to route it
      to the inner protocol. *)
  val on_message : t -> now:int -> src:Pid.t -> Message.t -> t option

  (** Time-driven transitions (timeouts, round rollovers); called once per
      granted step before anything is emitted. *)
  val tick : t -> now:int -> t

  (** Detector traffic due on the wire, at most one send per step. *)
  val next_send : t -> now:int -> (t * (Pid.t * Message.t)) option

  val suspicions : t -> Pid.Set.t
end

module Idle : Protocol.S = struct
  type state = unit

  let name = "idle"
  let create ~n:_ ~me:_ = ()
  let on_init s _ = s
  let on_recv s ~src:_ _ = s
  let on_suspect s _ = s
  let step s ~now:_ = (s, Protocol.No_op)
  let quiescent _ = true
  let performed _ = Action_id.Set.empty
end

let peers_of ~n ~me = List.filter (fun q -> not (Pid.equal q me)) (Pid.all n)

(* Smallest integer elapsed time at which the φ of the fitted
   distribution crosses the threshold — the arrival-time inversion that
   replaces a per-tick φ evaluation with a precomputed deadline. φ is
   monotone in [elapsed], so exponential search then bisection. *)
let phi_deadline ~mean ~std ~threshold =
  let over e = phi ~elapsed:(float_of_int e) ~mean ~std > threshold in
  let rec widen hi = if over hi || hi > 1_000_000 then hi else widen (2 * hi) in
  let hi = widen (max 1 (int_of_float mean)) in
  let rec bisect lo hi =
    (* invariant: not (over lo), over hi *)
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if over mid then bisect lo mid else bisect mid hi
  in
  if over 1 then 1 else bisect 1 hi

(* Ticks after its anchor at which a peer with inter-arrival window [w]
   is suspected: φ fitted to the window's mean and deviation (floored at
   [min_std]), or to the bootstrap mean before the first sample. *)
let suspect_after (cfg : phi_config) w =
  let mean, std =
    match (Phi_window.mean w, Phi_window.variance w) with
    | Some m, Some v -> (m, Float.max cfg.min_std (sqrt v))
    | _ -> (cfg.bootstrap, cfg.min_std)
  in
  phi_deadline ~mean ~std ~threshold:cfg.threshold

(* φ's arrival state over [k] monitored peers, full-mesh or ring: each
   peer's last arrival and its inter-arrival window. Ticks start at 1,
   so [last] 0 is the bootstrap anchor, before any arrival. *)
type phi_arrivals = { last : int array; windows : Phi_window.t array }

let phi_arrivals (cfg : phi_config) k =
  {
    last = Array.make k 0;
    windows = Array.make k (Phi_window.create ~capacity:cfg.window);
  }

(* An arrival from peer slot [i] at [now]: the first only anchors the
   clock, later ones feed the window. Returns the peer's new deadline. *)
let phi_arrive cfg a i ~now =
  if a.last.(i) > 0 then
    a.windows.(i) <-
      Phi_window.observe a.windows.(i) (float_of_int (now - a.last.(i)));
  a.last.(i) <- now;
  now + suspect_after cfg a.windows.(i)

(* The φ and gossip cores, full-mesh and ring, keep one suspicion
   deadline per monitored peer ([max_int] for a full-mesh core's own
   pid). Between arrivals a peer's φ and staleness only grow with the
   clock, so it is suspected exactly while [now >= deadline]. An arrival
   sets its peer's deadline, possibly earlier than before, and lowers
   [next_check] to it, so [next_check] stays at or below the earliest
   deadline of an unsuspected peer and the rescan runs only when the
   clock reaches it. [rescan_deadlines ~pid] returns the peers due at
   [now] (slot [i] is pid [pid i]; [suspected] itself when unchanged)
   and the next check. *)
let rescan_deadlines ~pid deadline ~now ~suspected =
  let found = ref Pid.Set.empty and next = ref max_int in
  for i = 0 to Array.length deadline - 1 do
    let d = deadline.(i) in
    if now >= d then found := Pid.Set.add (pid i) !found
    else if d < !next then next := d
  done;
  ((if Pid.Set.equal !found suspected then suspected else !found), !next)

(* ------------------------------------------------------------------ *)
(* φ-accrual: heartbeats round-robin; per-peer windowed inter-arrival
   statistics; suspect when the accrued φ exceeds the threshold.       *)

let phi_core (cfg : phi_config) : (module CORE) =
  (module struct
    type t = {
      me : Pid.t;
      peers : Pid.t list;
      arrivals : phi_arrivals;
      deadline : int array; (* suspect from this tick on *)
      mutable hb_ring : Pid.t list;
      mutable last_hb_round : int;
      mutable hb_seq : int;
      mutable suspected : Pid.Set.t;
      mutable next_check : int;
    }

    let name = "phi"

    (* Before the first arrival a peer is scored against the bootstrap
       mean from the run's start, so a peer that crashes before ever
       sending is still eventually suspected (completeness needs no
       history). *)
    let bootstrap = suspect_after cfg (Phi_window.create ~capacity:cfg.window)

    let create ~n ~me =
      {
        me;
        peers = peers_of ~n ~me;
        arrivals = phi_arrivals cfg n;
        deadline =
          Array.init n (fun q -> if q = me then max_int else bootstrap);
        hb_ring = [];
        last_hb_round = -1;
        hb_seq = 0;
        suspected = Pid.Set.empty;
        next_check = bootstrap;
      }

    let rescan t ~now =
      let suspected, next =
        rescan_deadlines ~pid:Fun.id t.deadline ~now ~suspected:t.suspected
      in
      t.suspected <- suspected;
      t.next_check <- next

    let on_message t ~now ~src = function
      | Message.Heartbeat _ ->
          if src <> t.me then begin
            let d = phi_arrive cfg t.arrivals src ~now in
            t.deadline.(src) <- d;
            if d < t.next_check then t.next_check <- d;
            if Pid.Set.mem src t.suspected then
              t.suspected <- Pid.Set.remove src t.suspected;
            if now >= t.next_check then rescan t ~now
          end;
          Some t
      | _ -> None

    let tick t ~now =
      if now >= t.next_check then rescan t ~now;
      t

    (* The round is detected here, not in [tick]: the adapter does not
       ask for detector traffic on every step. *)
    let next_send t ~now =
      let round = now / cfg.hb_period in
      if round > t.last_hb_round then begin
        t.last_hb_round <- round;
        t.hb_seq <- t.hb_seq + 1;
        t.hb_ring <- t.peers
      end;
      match t.hb_ring with
      | [] -> None
      | dst :: ring ->
          t.hb_ring <- ring;
          Some (t, (dst, Message.Heartbeat t.hb_seq))

    let suspicions t = t.suspected
  end)

(* ------------------------------------------------------------------ *)
(* SWIM: round-robin direct probes, indirect probes through k proxies
   after an rtt timeout, suspect-then-confirm. An ack retracts even a
   confirmed suspicion — the surrogate for SWIM's incarnation-number
   refutation (an ack is proof of life no incarnation can trump here,
   since our processes never recover). *)

let swim_core (cfg : swim_config) : (module CORE) =
  (module struct
    type probe = { target : Pid.t; seq : int; sent_at : int; indirect : bool }

    type t = {
      me : Pid.t;
      n : int;
      peers : Pid.t list;
      mutable ring : Pid.t list; (* probe-target rotation *)
      mutable last_probe_round : int;
      mutable next_seq : int;
      mutable outstanding : probe option;
      sent : Pid.t array;
          (* target of probe [seq] at [seq mod keep], for the last [keep] *)
      mutable suspected : int Pid.Map.t; (* target -> suspicion start tick *)
      mutable confirmed : Pid.Set.t;
      mutable published : Pid.Set.t; (* suspected ∪ confirmed *)
      mutable out : Outbox.t;
    }

    let name = "swim"

    (* probes remembered for a late ack *)
    let keep = 4 * (cfg.suspect_timeout / cfg.probe_period)

    let create ~n ~me =
      {
        me;
        n;
        peers = peers_of ~n ~me;
        ring = [];
        last_probe_round = -1;
        next_seq = 0;
        outstanding = None;
        sent = Array.make (max keep 0) 0;
        suspected = Pid.Map.empty;
        confirmed = Pid.Set.empty;
        published = Pid.Set.empty;
        out = Outbox.empty;
      }

    (* Rebuild the published set only when [suspected] or [confirmed]
       changed since [s] and [c] were read: the stdlib's [add] and
       [remove] return their argument when nothing changes. *)
    let republish t s c =
      if t.suspected != s || t.confirmed != c then
        t.published <-
          Pid.Map.fold (fun q _ acc -> Pid.Set.add q acc) t.suspected
            t.confirmed

    (* the [cfg.proxies] pids after [target] in ring order, skipping self
       and the target *)
    let proxy_list t target =
      let rec go i acc =
        if i > t.n || List.length acc >= cfg.proxies then List.rev acc
        else
          let q = (target + i) mod t.n in
          if Pid.equal q t.me || Pid.equal q target then go (i + 1) acc
          else go (i + 1) (q :: acc)
      in
      go 1 []

    let push t ~dst msg = t.out <- Outbox.push t.out ~dst msg

    let on_message t ~now:_ ~src = function
      | Message.Swim_ping { origin; seq } ->
          push t ~dst:src (Message.Swim_ack { origin; seq });
          Some t
      | Message.Swim_ack { origin; seq } when not (Pid.equal origin t.me) ->
          (* proxy leg: route the ack back to the prober *)
          push t ~dst:origin (Message.Swim_ack { origin; seq });
          Some t
      | Message.Swim_ack { origin = _; seq } ->
          (* an ack for ANY recent probe is proof of life for its target:
             a late ack (landing after the suspect timeout already fired)
             must still retract, or a single slow round-trip pins a false
             suspicion until the ring happens to re-probe the target *)
          if seq >= 0 && seq < t.next_seq && seq >= t.next_seq - keep then begin
            let target = t.sent.(seq mod keep) in
            (match t.outstanding with
            | Some o when o.seq = seq -> t.outstanding <- None
            | _ -> ());
            let s = t.suspected and c = t.confirmed in
            t.suspected <- Pid.Map.remove target s;
            t.confirmed <- Pid.Set.remove target c;
            republish t s c
          end;
          (* else an ack for a probe older than the memory *)
          Some t
      | Message.Swim_ping_req { target; seq } ->
          push t ~dst:target (Message.Swim_ping { origin = src; seq });
          Some t
      | _ -> None

    let tick t ~now =
      let s = t.suspected and c = t.confirmed in
      (match t.outstanding with
      | Some o when now - o.sent_at >= cfg.suspect_timeout ->
          t.outstanding <- None;
          t.suspected <- Pid.Map.add o.target now t.suspected
      | Some o when (not o.indirect) && now - o.sent_at >= cfg.rtt_timeout ->
          List.iter
            (fun proxy ->
              push t ~dst:proxy
                (Message.Swim_ping_req { target = o.target; seq = o.seq }))
            (proxy_list t o.target);
          t.outstanding <- Some { o with indirect = true }
      | _ -> ());
      let due _ since = now - since >= cfg.confirm_timeout in
      if Pid.Map.exists due t.suspected then begin
        let ripe, still = Pid.Map.partition due t.suspected in
        t.suspected <- still;
        t.confirmed <-
          Pid.Map.fold (fun q _ acc -> Pid.Set.add q acc) ripe t.confirmed
      end;
      republish t s c;
      let round = now / cfg.probe_period in
      if round > t.last_probe_round then begin
        (* an outstanding probe consumes the round's probe budget *)
        t.last_probe_round <- round;
        if t.outstanding = None then
          match (match t.ring with [] -> t.peers | r -> r) with
          | [] -> ()
          | target :: ring ->
              let seq = t.next_seq in
              t.ring <- ring;
              t.next_seq <- seq + 1;
              t.outstanding <-
                Some { target; seq; sent_at = now; indirect = false };
              if keep > 0 then t.sent.(seq mod keep) <- target;
              push t ~dst:target (Message.Swim_ping { origin = t.me; seq })
      end;
      t

    let next_send t ~now =
      match Outbox.next t.out ~now with
      | Some (out, send) ->
          t.out <- out;
          Some (t, send)
      | None -> None

    let suspicions t = t.published
  end)

(* ------------------------------------------------------------------ *)
(* Gossip / anti-entropy membership: every round, bump the own heartbeat
   counter and push the whole counter vector to [fanout] ring peers; on
   receipt, max-merge. A peer whose counter has not advanced for
   [fail_timeout] ticks is suspected; an advance retracts. *)

let gossip_core (cfg : gossip_config) : (module CORE) =
  (module struct
    type t = {
      me : Pid.t;
      n : int;
      peers : Pid.t list;
      counters : int array;
      mutable wire : (Pid.t * int) list; (* [counters] as sent; [] when stale *)
      deadline : int array; (* last advance + fail_timeout + 1 *)
      mutable ring : Pid.t list; (* gossip-target rotation *)
      mutable last_round : int;
      mutable pending : Pid.t list; (* this round's targets not yet sent *)
      mutable suspected : Pid.Set.t;
      mutable next_check : int;
    }

    let name = "gossip"

    let create ~n ~me =
      {
        me;
        n;
        peers = peers_of ~n ~me;
        counters = Array.make n 0;
        wire = [];
        deadline =
          Array.init n (fun q ->
              if q = me then max_int else cfg.fail_timeout + 1);
        ring = [];
        last_round = -1;
        pending = [];
        suspected = Pid.Set.empty;
        next_check = cfg.fail_timeout + 1;
      }

    let rescan t ~now =
      let suspected, next =
        rescan_deadlines ~pid:Fun.id t.deadline ~now ~suspected:t.suspected
      in
      t.suspected <- suspected;
      t.next_check <- next

    let on_message t ~now ~src:_ = function
      | Message.Gossip_counters l ->
          List.iter
            (fun (q, c) ->
              if c > t.counters.(q) then begin
                t.counters.(q) <- c;
                t.wire <- [];
                if q <> t.me then begin
                  let d = now + cfg.fail_timeout + 1 in
                  t.deadline.(q) <- d;
                  if d < t.next_check then t.next_check <- d;
                  if Pid.Set.mem q t.suspected then
                    t.suspected <- Pid.Set.remove q t.suspected
                end
              end)
            l;
          if now >= t.next_check then rescan t ~now;
          Some t
      | _ -> None

    let tick t ~now =
      let round = now / cfg.gossip_period in
      if round > t.last_round then begin
        t.counters.(t.me) <- t.counters.(t.me) + 1;
        t.wire <- [];
        let rec split k acc ring =
          if k = 0 then (List.rev acc, ring)
          else
            match ring with
            | [] -> (
                match t.peers with
                | [] -> (List.rev acc, [])
                | refreshed -> split k acc refreshed)
            | q :: rest -> split (k - 1) (q :: acc) rest
        in
        let targets, ring =
          split (min cfg.fanout (t.n - 1)) []
            (match t.ring with [] -> t.peers | r -> r)
        in
        t.last_round <- round;
        t.ring <- ring;
        (* a process too slow to drain last round's targets sheds them
           rather than queueing ever more gossip *)
        t.pending <- targets
      end;
      if now >= t.next_check then rescan t ~now;
      t

    let next_send t ~now:_ =
      match t.pending with
      | [] -> None
      | dst :: pending ->
          t.pending <- pending;
          if t.wire = [] then
            t.wire <- List.init t.n (fun q -> (q, t.counters.(q)));
          Some (t, (dst, Message.Gossip_counters t.wire))

    let suspicions t = t.suspected
  end)

(* ------------------------------------------------------------------ *)
(* Ring-topology cores for the sharded large-n mode. The full-mesh cores
   above keep O(n) state per process and touch every peer per round —
   unusable at n = 10^6 under the one-event-per-tick discipline. A ring
   core watches only its [degree] successors p+1 .. p+degree (mod n) and
   pushes its liveness signal to p-1 .. p-degree (mod n), the processes
   watching it, so state and per-tick work are O(degree). Every
   transition updates the state in place and returns it, so a quiet tick
   allocates no state and stores nothing. *)

let ring_watched ~n ~degree me =
  List.init (min degree (n - 1)) (fun i -> (me + i + 1) mod n)

let ring_watchers ~n ~degree me =
  List.init (min degree (n - 1)) (fun i -> ((me - i - 1) mod n + n) mod n)

(* Index of [src] among a ring core's watched peers, [-1] for a stray. *)
let watched_index watched src =
  let rec find i =
    if i < 0 then -1 else if watched.(i) = src then i else find (i - 1)
  in
  find (Array.length watched - 1)

(* What tells the push-heartbeat ring cores apart: the name, the push
   period, the deadline every watched peer starts with, and the
   deadline an arrival from watched peer [i] sets, computed over the
   rule's own per-core arrival state. *)
module type HEARTBEAT_RULE = sig
  type arrivals

  val name : string
  val period : int
  val first_deadline : int
  val arrivals : int -> arrivals (* for this many watched peers *)
  val arrive : arrivals -> int -> now:int -> int
end

(* Gossip over the ring: a watched peer is suspected once no heartbeat
   from it arrived for more than [fail_timeout] ticks (tick 0 before
   any). The rule keeps no arrival state. *)
let gossip_ring_rule (cfg : gossip_config) : (module HEARTBEAT_RULE) =
  (module struct
    type arrivals = unit

    let name = "gossip-ring"
    let period = cfg.gossip_period
    let first_deadline = cfg.fail_timeout + 1
    let arrivals _ = ()
    let arrive () _ ~now = now + cfg.fail_timeout + 1
  end)

(* φ over the ring: the arrival rule of [phi_core], per watched peer. *)
let phi_ring_rule (cfg : phi_config) : (module HEARTBEAT_RULE) =
  (module struct
    type arrivals = phi_arrivals

    let name = "phi-ring"
    let period = cfg.hb_period

    let first_deadline =
      suspect_after cfg (Phi_window.create ~capacity:cfg.window)

    let arrivals = phi_arrivals cfg
    let arrive = phi_arrive cfg
  end)

(* One core for both heartbeat rules: every [R.period] ticks push a
   heartbeat to each watcher, and suspect a watched peer from its
   deadline on. The core rescans only on a step; an arrival sets its
   peer's deadline and lowers [next_check] to it, so the scan re-arms
   even after every watched peer was suspected and then retracted. *)
let heartbeat_ring_core (module R : HEARTBEAT_RULE) ~degree : (module CORE) =
  (module struct
    type t = {
      watched : int array;
      watchers : Pid.t list; (* push targets, constant — shared as [pending] *)
      arrivals : R.arrivals;
      deadline : int array; (* per watched peer: suspect from this tick on *)
      mutable seq : int;
      mutable last_round : int;
      mutable pending : Pid.t list;
      mutable suspected : Pid.Set.t;
      mutable next_check : int;
          (* earliest tick a watched peer can become overdue *)
    }

    let name = R.name

    let create ~n ~me =
      let watched = Array.of_list (ring_watched ~n ~degree me) in
      let d = Array.length watched in
      {
        watched;
        watchers = ring_watchers ~n ~degree me;
        arrivals = R.arrivals d;
        deadline = Array.make d R.first_deadline;
        seq = 0;
        last_round = -1;
        pending = [];
        suspected = Pid.Set.empty;
        next_check = R.first_deadline;
      }

    let rescan t ~now =
      let suspected, next =
        rescan_deadlines
          ~pid:(fun i -> t.watched.(i))
          t.deadline ~now ~suspected:t.suspected
      in
      if suspected != t.suspected then t.suspected <- suspected;
      t.next_check <- next

    let on_message t ~now ~src = function
      | Message.Heartbeat _ ->
          let i = watched_index t.watched src in
          (* a stray heartbeat (i < 0) is still detector traffic *)
          if i >= 0 then begin
            let d = R.arrive t.arrivals i ~now in
            t.deadline.(i) <- d;
            if d < t.next_check then t.next_check <- d;
            if Pid.Set.mem src t.suspected then
              t.suspected <- Pid.Set.remove src t.suspected
          end;
          Some t
      | _ -> None

    let tick t ~now =
      let round = now / R.period in
      if round > t.last_round then begin
        t.seq <- t.seq + 1;
        t.last_round <- round;
        t.pending <- t.watchers
      end;
      if now >= t.next_check then rescan t ~now;
      t

    let next_send t ~now:_ =
      match t.pending with
      | [] -> None
      | dst :: pending ->
          t.pending <- pending;
          Some (t, (dst, Message.Heartbeat t.seq))

    let suspicions t = t.suspected
  end)

(* Direct-probe SWIM over the ring: round-robin ping of the watched
   successors, suspect on timeout, retract on any (even late) ack. No
   ping-req proxies — the indirection would cross the monitoring
   neighbourhood, and the retraction-on-ack surrogate already covers the
   false-suspicion recovery the proxies exist for. *)
let swim_ring_core (cfg : swim_config) ~degree : (module CORE) =
  (module struct
    type t = {
      me : Pid.t;
      watched : int array;
      mutable ring_pos : int;
      mutable seq : int;
      mutable last_round : int;
      mutable outstanding : (Pid.t * int * int) option;
          (* target, seq, sent_at *)
      mutable sent : (int * Pid.t) list;
          (* recent seq -> target, newest first *)
      mutable pending : (Pid.t * Message.t) list;
      mutable suspected : Pid.Set.t;
    }

    let name = "swim-ring"

    let create ~n ~me =
      {
        me;
        watched = Array.of_list (ring_watched ~n ~degree me);
        ring_pos = 0;
        seq = 0;
        last_round = -1;
        outstanding = None;
        sent = [];
        pending = [];
        suspected = Pid.Set.empty;
      }

    let keep = 8

    let on_message t ~now:_ ~src = function
      | Message.Swim_ping { origin; seq } ->
          t.pending <- (src, Message.Swim_ack { origin; seq }) :: t.pending;
          Some t
      | Message.Swim_ack { origin; seq } when Pid.equal origin t.me ->
          (match List.assoc_opt seq t.sent with
          | Some target ->
              (match t.outstanding with
              | Some (_, s, _) when s = seq -> t.outstanding <- None
              | _ -> ());
              t.suspected <- Pid.Set.remove target t.suspected
          | None -> ());
          Some t
      | Message.Swim_ack _ | Message.Swim_ping_req _ ->
          Some t (* stray probe traffic: consumed, never routed inward *)
      | _ -> None

    let tick t ~now =
      (match t.outstanding with
      | Some (target, _, sent_at) when now - sent_at >= cfg.suspect_timeout ->
          t.outstanding <- None;
          t.suspected <- Pid.Set.add target t.suspected
      | _ -> ());
      let round = now / cfg.probe_period in
      (* an outstanding probe consumes the round's probe budget *)
      if round > t.last_round then begin
        t.last_round <- round;
        let d = Array.length t.watched in
        if d > 0 && t.outstanding = None then begin
          let target = t.watched.(t.ring_pos mod d) in
          let seq = t.seq in
          t.ring_pos <- t.ring_pos + 1;
          t.seq <- seq + 1;
          t.outstanding <- Some (target, seq, now);
          t.sent <-
            List.filteri (fun i _ -> i < keep) ((seq, target) :: t.sent);
          t.pending <-
            (target, Message.Swim_ping { origin = t.me; seq }) :: t.pending
        end
      end;
      t

    let next_send t ~now:_ =
      match t.pending with
      | [] -> None
      | send :: pending ->
          t.pending <- pending;
          Some (t, send)

    let suspicions t = t.suspected
  end)

(* ------------------------------------------------------------------ *)
(* The adapter: wrap a core as a timed protocol that publishes its
   suspicions into the per-run cells and alternates fairly with an inner
   application protocol (the {!Convert.With_gossip} turn-taking idiom). *)

let adapt (type a) (module D : CORE with type t = a)
    (module P : Protocol.S) ~(cells : Pid.Set.t array) : (module Protocol.S_timed)
    =
  (module struct
    (* Updated in place and returned: a state is single-use (the pair
       is), so no caller steps an old one again. A slot where nothing
       changes allocates no state and stores nothing. *)
    type state = {
      mutable det : a;
      mutable inner : P.state;
      me : Pid.t;
      mutable det_turn : bool;
    }

    let name = if P.name = "idle" then D.name else D.name ^ "+" ^ P.name

    let create ~n ~me =
      { det = D.create ~n ~me; inner = P.create ~n ~me; me; det_turn = true }

    (* Invariant: [cells.(me)] is the detector's current suspicion set.
       Every core starts with an empty set, matching the cell
       initialisation, and every detector transition lands here, which
       republishes a set that changed physically. *)
    let set_det t det =
      if det != t.det then t.det <- det;
      let s = D.suspicions det in
      if s != cells.(t.me) then cells.(t.me) <- s

    let set_inner t inner = if inner != t.inner then t.inner <- inner

    let on_init t a =
      set_inner t (P.on_init t.inner a);
      t

    let on_recv t ~now ~src msg =
      (match D.on_message t.det ~now ~src msg with
      | Some det -> set_det t det
      | None -> set_inner t (P.on_recv t.inner ~src msg));
      t

    let on_suspect t r =
      set_inner t (P.on_suspect t.inner r);
      t

    let detector_sent t det dst msg =
      set_det t det;
      t.det_turn <- false;
      (t, Protocol.Send_to (dst, msg))

    let inner_stepped t inner act =
      set_inner t inner;
      t.det_turn <- true;
      (t, act)

    let step t ~now =
      set_det t (D.tick t.det ~now);
      (* The two sides are tried in alternating priority, written out as
         direct branches with no closure, because at large n almost
         every slot is one where neither side has work. A fully idle
         tick keeps its priority instead of flipping it — equivalent
         fairness (a side only loses its turn to a side that acted). *)
      if t.det_turn then
        match D.next_send t.det ~now with
        | Some (det, (dst, msg)) -> detector_sent t det dst msg
        | None ->
            let inner, act = P.step t.inner ~now in
            inner_stepped t inner act
      else
        let inner, act = P.step t.inner ~now in
        match act with
        | Protocol.No_op when inner == t.inner -> (
            match D.next_send t.det ~now with
            | Some (det, (dst, msg)) -> detector_sent t det dst msg
            | None -> (t, Protocol.No_op))
        | act -> inner_stepped t inner act

    (* Detectors probe forever; runs with a backend stop only at the
       horizon (or an application goal). *)
    let quiescent _ = false
    let performed t = P.performed t.inner
  end)

let cell_oracle ~name (cells : Pid.Set.t array) =
  let last = Array.make (Array.length cells) None in
  let poll p (_ : Oracle.view) =
    let cur = cells.(p) in
    match last.(p) with
    (* physical equality first: on quiet ticks the adapter republishes
       the same set, and at large n the structural compare would
       dominate the poll *)
    | Some prev when prev == cur || Pid.Set.equal prev cur -> None
    | None when Pid.Set.is_empty cur -> None
    | _ ->
        last.(p) <- Some cur;
        Some (Report.std cur)
  in
  { Oracle.name; poll }

(* [P] believing the system has [c] processes. *)
let clamp_committee c (module P : Protocol.S) : (module Protocol.S) =
  (module struct
    include P

    let create ~n:_ ~me = P.create ~n:c ~me
  end)

(* Pids [0..members-1] run [inner], re-created with [n = members]; the
   others run the idle protocol, adapted only when some pid does. The
   detector layer under both spans all [n]. *)
let make_pair (module D : CORE) ~members ~inner ~n =
  let cells = Array.make n Pid.Set.empty in
  let over inner =
    let module M = (val adapt (module D) inner ~cells) in
    fun p -> Protocol.make_timed (module M) ~n ~me:p
  in
  let member = over (clamp_committee members inner) in
  let protocol =
    if members >= n then member
    else
      let idle = over (module Idle) in
      fun p -> if p < members then member p else idle p
  in
  { oracle = cell_oracle ~name:D.name cells; protocol }

(* Every backend once: its label, its full-mesh core and its ring core. *)
let backends =
  [
    ( "phi",
      phi_core phi_defaults,
      heartbeat_ring_core (phi_ring_rule phi_defaults) );
    ("swim", swim_core swim_defaults, swim_ring_core swim_defaults);
    ( "gossip",
      gossip_core gossip_defaults,
      heartbeat_ring_core (gossip_ring_rule gossip_defaults) );
  ]

let labels = List.map (fun (label, _, _) -> label) backends
let find label = List.find_opt (fun (l, _, _) -> l = label) backends

(* A full-mesh inner protocol is a committee of all [n], and so is the
   idle protocol when no committee is named. *)
let of_label_inner label =
  Option.map
    (fun (_, core, _) ~inner ~n -> make_pair core ~members:n ~inner ~n)
    (find label)

let of_label label =
  Option.map (fun mk ~n -> mk ~inner:(module Idle : Protocol.S) ~n)
    (of_label_inner label)

let of_ring_label label =
  Option.map
    (fun (_, _, ring) ~degree ?committee ~n () ->
      let members, inner =
        Option.value committee ~default:(n, (module Idle : Protocol.S))
      in
      make_pair (ring ~degree) ~members ~inner ~n)
    (find label)
