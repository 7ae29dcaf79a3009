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

(* The full-mesh φ and gossip cores keep one suspicion deadline per pid
   ([max_int] for the own pid, never suspected). Between arrivals from a
   peer, its φ and its counter's staleness only grow with the clock, so
   it is suspected exactly while [now >= deadline]. An arrival sets its
   peer's deadline, possibly earlier than before, and lowers
   [next_check] to it: [next_check] stays at or below the earliest
   deadline of an unsuspected peer, and the O(n) rescan runs only when
   the clock reaches it. *)
let rescan_deadlines deadline ~now ~suspected =
  let found = ref Pid.Set.empty and next = ref max_int in
  Array.iteri
    (fun q d ->
      if now >= d then found := Pid.Set.add q !found
      else if d < !next then next := d)
    deadline;
  ((if Pid.Set.equal !found suspected then suspected else !found), !next)

(* ------------------------------------------------------------------ *)
(* φ-accrual: heartbeats round-robin; per-peer windowed inter-arrival
   statistics; suspect when the accrued φ exceeds the threshold.       *)

let phi_core (cfg : phi_config) : (module CORE) =
  (module struct
    type t = {
      me : Pid.t;
      peers : Pid.t list;
      last : int array; (* last arrival; -1 before the first *)
      windows : Phi_window.t array;
      deadline : int array; (* suspect from this tick on *)
      mutable hb_ring : Pid.t list;
      mutable last_hb_round : int;
      mutable hb_seq : int;
      mutable suspected : Pid.Set.t;
      mutable next_check : int;
    }

    let name = "phi"
    let empty = Phi_window.create ~capacity:cfg.window

    (* Before the first arrival a peer is scored against the bootstrap
       mean from the run's start, so a peer that crashes before ever
       sending is still eventually suspected (completeness needs no
       history). *)
    let bootstrap = suspect_after cfg empty

    let create ~n ~me =
      {
        me;
        peers = peers_of ~n ~me;
        last = Array.make n (-1);
        windows = Array.make n empty;
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
        rescan_deadlines t.deadline ~now ~suspected:t.suspected
      in
      t.suspected <- suspected;
      t.next_check <- next

    let on_message t ~now ~src = function
      | Message.Heartbeat _ ->
          if src <> t.me then begin
            (* the first arrival only anchors the clock; later ones feed
               the inter-arrival window *)
            if t.last.(src) >= 0 then
              t.windows.(src) <-
                Phi_window.observe t.windows.(src)
                  (float_of_int (now - t.last.(src)));
            t.last.(src) <- now;
            let d = now + suspect_after cfg t.windows.(src) in
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
        rescan_deadlines t.deadline ~now ~suspected:t.suspected
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
   unusable at n = 10^6 under the one-event-per-tick discipline. The ring
   cores monitor only [degree] successors: process p watches
   p+1 .. p+degree (mod n) and pushes its liveness signal to
   p-1 .. p-degree (mod n), the processes watching it. State and per-tick
   work are O(degree). Every transition updates the state in place and
   returns it, so a quiet tick allocates no state and stores nothing, and
   the adapter below publishes a suspicion set only when one changes.
   Suspicion scans are deadline-driven, as in the full-mesh cores, but a
   ring core rescans only on a step: an arrival sets its peer's deadline
   and lowers [next_check] to it, so the scan re-arms even after every
   watched peer was suspected and then retracted, and the O(degree)
   rescan runs only when the clock reaches [next_check]. *)

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

let gossip_ring_core (cfg : gossip_config) ~degree : (module CORE) =
  (module struct
    type t = {
      me : Pid.t;
      watched : int array;
      watchers : Pid.t list; (* push targets, constant — shared as [pending] *)
      last_heard : int array;
      mutable seq : int;
      mutable last_round : int;
      mutable pending : Pid.t list;
      mutable suspected : Pid.Set.t;
      mutable next_check : int;
          (* earliest tick a watched peer can become overdue *)
    }

    let name = "gossip-ring"

    let create ~n ~me =
      {
        me;
        watched = Array.of_list (ring_watched ~n ~degree me);
        watchers = ring_watchers ~n ~degree me;
        last_heard = Array.make (min degree (n - 1)) 0;
        seq = 0;
        last_round = -1;
        pending = [];
        suspected = Pid.Set.empty;
        next_check = cfg.fail_timeout + 1;
      }

    let rescan t ~now =
      let suspected = ref Pid.Set.empty in
      let next = ref max_int in
      Array.iteri
        (fun i q ->
          if now - t.last_heard.(i) > cfg.fail_timeout then
            suspected := Pid.Set.add q !suspected
          else next := min !next (t.last_heard.(i) + cfg.fail_timeout + 1))
        t.watched;
      if not (Pid.Set.equal !suspected t.suspected) then
        t.suspected <- !suspected;
      t.next_check <- !next

    let on_message t ~now ~src = function
      | Message.Heartbeat _ ->
          let i = watched_index t.watched src in
          (* a stray heartbeat (i < 0) is still detector traffic *)
          if i >= 0 then begin
            t.last_heard.(i) <- now;
            let d = now + cfg.fail_timeout + 1 in
            if d < t.next_check then t.next_check <- d;
            if Pid.Set.mem src t.suspected then
              t.suspected <- Pid.Set.remove src t.suspected
          end;
          Some t
      | _ -> None

    let tick t ~now =
      let round = now / cfg.gossip_period in
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

let phi_ring_core (cfg : phi_config) ~degree : (module CORE) =
  (module struct
    type t = {
      me : Pid.t;
      watched : int array;
      watchers : Pid.t list;
      last : int array; (* last arrival; 0 = bootstrap anchor, as phi_core *)
      windows : Phi_window.t array;
      deadline : int array; (* per watched peer: suspect at this tick *)
      mutable seq : int;
      mutable last_round : int;
      mutable pending : Pid.t list;
      mutable suspected : Pid.Set.t;
      mutable next_check : int;
    }

    let name = "phi-ring"

    let empty = Phi_window.create ~capacity:cfg.window
    let bootstrap_deadline = suspect_after cfg empty

    let create ~n ~me =
      let d = min degree (n - 1) in
      {
        me;
        watched = Array.of_list (ring_watched ~n ~degree me);
        watchers = ring_watchers ~n ~degree me;
        last = Array.make d 0;
        windows = Array.make d empty;
        deadline = Array.make d bootstrap_deadline;
        seq = 0;
        last_round = -1;
        pending = [];
        suspected = Pid.Set.empty;
        next_check = bootstrap_deadline;
      }

    let rescan t ~now =
      let suspected = ref Pid.Set.empty in
      let next = ref max_int in
      Array.iteri
        (fun i q ->
          if now >= t.deadline.(i) then suspected := Pid.Set.add q !suspected
          else next := min !next t.deadline.(i))
        t.watched;
      if not (Pid.Set.equal !suspected t.suspected) then
        t.suspected <- !suspected;
      t.next_check <- !next

    let on_message t ~now ~src = function
      | Message.Heartbeat _ ->
          let i = watched_index t.watched src in
          if i >= 0 then begin
            (* as in phi_core: the first arrival only anchors the clock;
               later ones feed the inter-arrival window *)
            if t.last.(i) > 0 then
              t.windows.(i) <-
                Phi_window.observe t.windows.(i)
                  (float_of_int (now - t.last.(i)));
            t.last.(i) <- now;
            let d = now + suspect_after cfg t.windows.(i) in
            t.deadline.(i) <- d;
            if d < t.next_check then t.next_check <- d;
            if Pid.Set.mem src t.suspected then
              t.suspected <- Pid.Set.remove src t.suspected
          end;
          Some t
      | _ -> None

    let tick t ~now =
      let round = now / cfg.hb_period in
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

let make_pair (module D : CORE) ?inner ~n () =
  let inner =
    match inner with Some p -> p | None -> (module Idle : Protocol.S)
  in
  let cells = Array.make n Pid.Set.empty in
  let module M = (val adapt (module D) inner ~cells) in
  {
    oracle = cell_oracle ~name:D.name cells;
    protocol = (fun p -> Protocol.make_timed (module M) ~n ~me:p);
  }

let phi_accrual ?(cfg = phi_defaults) ?inner ~n () =
  make_pair (phi_core cfg) ?inner ~n ()

let swim ?(cfg = swim_defaults) ?inner ~n () =
  make_pair (swim_core cfg) ?inner ~n ()

let gossip ?(cfg = gossip_defaults) ?inner ~n () =
  make_pair (gossip_core cfg) ?inner ~n ()

(* Committee wrapper for the sharded mode: the application protocol runs
   only on pids 0..c-1 and believes the system has [c] members, while the
   detector layer above it still spans the full ring. *)
let clamp_committee c (module P : Protocol.S) : (module Protocol.S) =
  (module struct
    include P

    let create ~n:_ ~me = P.create ~n:c ~me
  end)

let make_ring_pair (module D : CORE) ?committee ~n () =
  let cells = Array.make n Pid.Set.empty in
  let module Base = (val adapt (module D) (module Idle) ~cells) in
  let base p = Protocol.make_timed (module Base) ~n ~me:p in
  let protocol =
    match committee with
    | None -> base
    | Some (c, inner) ->
        let module Com = (val adapt (module D) (clamp_committee c inner) ~cells)
        in
        fun p ->
          if p < c then Protocol.make_timed (module Com) ~n ~me:p else base p
  in
  { oracle = cell_oracle ~name:D.name cells; protocol }

let gossip_ring ?(cfg = gossip_defaults) ?(degree = 2) ?committee ~n () =
  make_ring_pair (gossip_ring_core cfg ~degree) ?committee ~n ()

let phi_ring ?(cfg = phi_defaults) ?(degree = 2) ?committee ~n () =
  make_ring_pair (phi_ring_core cfg ~degree) ?committee ~n ()

let swim_ring ?(cfg = swim_defaults) ?(degree = 2) ?committee ~n () =
  make_ring_pair (swim_ring_core cfg ~degree) ?committee ~n ()

let labels = [ "phi"; "swim"; "gossip" ]

let of_label = function
  | "phi" -> Some (fun ~n -> phi_accrual ~n ())
  | "swim" -> Some (fun ~n -> swim ~n ())
  | "gossip" -> Some (fun ~n -> gossip ~n ())
  | _ -> None

let of_label_inner = function
  | "phi" -> Some (fun ~inner ~n -> phi_accrual ~inner ~n ())
  | "swim" -> Some (fun ~inner ~n -> swim ~inner ~n ())
  | "gossip" -> Some (fun ~inner ~n -> gossip ~inner ~n ())
  | _ -> None

let of_ring_label = function
  | "phi" -> Some (fun ~degree ?committee ~n () -> phi_ring ~degree ?committee ~n ())
  | "swim" ->
      Some (fun ~degree ?committee ~n () -> swim_ring ~degree ?committee ~n ())
  | "gossip" ->
      Some (fun ~degree ?committee ~n () -> gossip_ring ~degree ?committee ~n ())
  | _ -> None
