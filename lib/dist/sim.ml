type stop_reason = Goal_reached | Quiescent | Max_ticks
type goal = All_alive_performed | All_alive_decided | Run_to_max

type config = {
  n : int;
  seed : int64;
  loss_rate : float;
  link_loss : ((Pid.t * Pid.t) * float) list;
  max_consecutive_drops : int;
  max_delay : int;
  loss_schedule : (int * float) list;
  add : Channel.add option;
  fault_plan : Fault_plan.t;
  init_plan : Init_plan.t;
  oracle : Oracle.t;
  max_ticks : int;
  drain_margin : int;
  goal : goal;
  blackout_after_do : bool;
  crash_budget : int;
}

let config ~n ~seed =
  {
    n;
    seed;
    loss_rate = 0.0;
    link_loss = [];
    max_consecutive_drops = 8;
    max_delay = 6;
    loss_schedule = [];
    add = None;
    fault_plan = Fault_plan.empty;
    init_plan = Init_plan.empty;
    oracle = Oracle.none;
    max_ticks = 2000;
    drain_margin = 12;
    goal = All_alive_performed;
    blackout_after_do = false;
    crash_budget = 0;
  }

(* Config validation. Bad loss rates, unsorted or duplicate-tick schedule
   entries, and negative fairness bounds used to be accepted silently and
   surface as nonsense downstream (PR 9 fixed one such symptom — same-tick
   last-wins — after the fact). Reject them at construction instead.
   Negative and tick-0 schedule entries stay legal: they are the pinned
   "cutover before the first tick" behaviour. The rate check is written
   [not (r >= 0 && r <= 1)] so NaN is rejected too. A plan entry naming a
   pid outside [0, n) could never fire, and would hold the run open to
   [max_ticks] or index past the window. *)
let validate cfg =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  if cfg.n < 1 then bad "Sim.validate: n %d < 1" cfg.n;
  let check_pid what p =
    if p < 0 || p >= cfg.n then
      bad "Sim.validate: %s %d outside [0, %d)" what p cfg.n
  in
  List.iter
    (fun e -> check_pid "init owner" (Action_id.owner e.Init_plan.action))
    (Init_plan.entries cfg.init_plan);
  List.iter
    (fun e ->
      check_pid "fault victim" e.Fault_plan.victim;
      match e.Fault_plan.trigger with
      | Fault_plan.After_did (q, _) -> check_pid "After_did performer" q
      | Fault_plan.At _ | Fault_plan.After_any_do -> ())
    (Fault_plan.entries cfg.fault_plan);
  if cfg.crash_budget < 0 then
    bad "Sim.validate: crash_budget %d < 0" cfg.crash_budget;
  let check_rate what r =
    if not (r >= 0.0 && r <= 1.0) then
      bad "Sim.validate: %s %g outside [0, 1]" what r
  in
  check_rate "loss_rate" cfg.loss_rate;
  List.iter (fun (_, r) -> check_rate "link_loss rate" r) cfg.link_loss;
  if cfg.max_consecutive_drops < 0 then
    bad "Sim.validate: max_consecutive_drops %d < 0" cfg.max_consecutive_drops;
  let rec check_schedule = function
    | (t1, _) :: ((t2, _) :: _ as rest) ->
        if t1 > t2 then
          bad "Sim.validate: loss_schedule not sorted (tick %d after %d)" t2 t1;
        if t1 = t2 then
          bad "Sim.validate: loss_schedule duplicate tick %d" t1;
        check_schedule rest
    | [ _ ] | [] -> ()
  in
  List.iter (fun (_, r) -> check_rate "loss_schedule rate" r) cfg.loss_schedule;
  check_schedule cfg.loss_schedule;
  match cfg.add with
  | None -> ()
  | Some { Channel.window; bound } ->
      if window < 1 then bad "Sim.validate: add window %d < 1" window;
      if bound < 1 then bad "Sim.validate: add bound %d < 1" bound

type result = {
  run : Run.t;
  reason : stop_reason;
  final_states : Protocol.t array;
}

let pp_stop_reason ppf = function
  | Goal_reached -> Format.pp_print_string ppf "goal reached"
  | Quiescent -> Format.pp_print_string ppf "quiescent"
  | Max_ticks -> Format.pp_print_string ppf "max ticks"

(* ---------- The tick loop ---------- *)

(* A window is a contiguous pid range [base, base + size) and the dense
   state its slots touch, indexed locally (pid - base): history builders,
   protocol states, crash flags, pending inits and faults per owner pid
   (plan order per owner is preserved, so "first due entry" agrees with
   the old scan of the global list), and a channel holding the in-flight
   queues of the window's own destinations. Decisions, fairness rows and
   events carry global pids. [execute_shards] ticks one window per decision
   source; a send to a pid in another window waits in the sender's outbox
   for the barrier. *)
type window = {
  cfg : config;
  base : int;
  size : int;
  source : Decision.source;
  channel : Channel.t;
  hists : History.Builder.t array;
  states : Protocol.t array;
  crashed : bool array;
  order : Pid.t array; (* global pids; permuted in place every tick *)
  pending_inits : Init_plan.entry list array; (* per owner, plan order *)
  mutable pending_init_count : int; (* live entries *)
  pending_faults : Fault_plan.entry list array; (* per victim, plan order *)
  mutable schedule : (int * float) list; (* loss-schedule entries ahead *)
  mutable crashes : Pid.t list; (* since the last barrier, newest first *)
  mutable known : Pid.t list; (* [crashes], then the committed ones *)
  mutable view : Oracle.view; (* its [crashed] is [known] as a set *)
  mutable initiated : Action_id.t list; (* every Init event so far *)
  mutable any_do : bool;
  mutable crash_budget_left : int;
  done_actions : Action_id.Set.t array; (* per pid, for After_did triggers *)
  mutable now : int;
  outbox : (Pid.t * Pid.t * Message.t) list array;
      (* per destination window, newest first; drained at the barrier *)
  mutable inbox : (Pid.t * Pid.t * Message.t) list; (* delivery order *)
}

(* Balanced contiguous partition of [0, n) into [s] windows: the first
   [n mod s] hold one extra pid. Both directions are O(1). *)
let window_of ~n ~s p =
  let q = n / s and r = n mod s in
  if p < r * (q + 1) then p / (q + 1) else r + ((p - (r * (q + 1))) / q)

let window_base ~n ~s k =
  let q = n / s and r = n mod s in
  (k * q) + min k r

(* Builders start small and grow geometrically: a million mostly-quiet
   ring-detector histories at 64 preallocated slots each would reserve
   gigabytes before the first event lands. *)
let builder_capacity = 16

(* The schedule is walked by a cursor: O(schedule) total. [validate] has
   rejected unsorted and duplicate-tick schedules, and entries at tick 0
   (or earlier) take effect before the first tick. *)
let rec apply_schedule w =
  match w.schedule with
  | (at, rate) :: rest when at <= w.now ->
      Channel.set_loss_rate w.channel rate;
      w.schedule <- rest;
      apply_schedule w
  | _ -> ()

let window cfg ~windows ~view ~base ~size ~source make_process =
  let mine p = p >= base && p < base + size in
  let pending_inits = Array.make size [] and init_count = ref 0 in
  List.iter
    (fun e ->
      let owner = Action_id.owner e.Init_plan.action in
      if mine owner then (
        pending_inits.(owner - base) <- e :: pending_inits.(owner - base);
        incr init_count))
    (List.rev (Init_plan.entries cfg.init_plan));
  let pending_faults = Array.make size [] in
  List.iter
    (fun e ->
      let v = e.Fault_plan.victim in
      if mine v then pending_faults.(v - base) <- e :: pending_faults.(v - base))
    (List.rev (Fault_plan.entries cfg.fault_plan));
  let decide ~now ~src ~dst ~rate =
    Decision.drop source ~tick:now ~src ~dst ~rate
  in
  let w =
    {
      cfg;
      base;
      size;
      source;
      channel =
        Channel.create ~link_loss:cfg.link_loss ?add:cfg.add ~n:size ~decide
          ~loss_rate:cfg.loss_rate
          ~max_consecutive_drops:cfg.max_consecutive_drops ();
      hists =
        Array.init size (fun _ ->
            History.Builder.fresh ~capacity:builder_capacity ());
      states = Array.init size (fun i -> make_process (base + i));
      crashed = Array.make size false;
      order = Array.init size (fun i -> base + i);
      pending_inits;
      pending_init_count = !init_count;
      pending_faults;
      schedule = cfg.loss_schedule;
      crashes = [];
      known = [];
      view;
      initiated = [];
      any_do = false;
      crash_budget_left = cfg.crash_budget;
      done_actions = Array.make size Action_id.Set.empty;
      now = 0;
      outbox = Array.make windows [];
      inbox = [];
    }
  in
  apply_schedule w;
  w

let append w lp e = History.Builder.append w.hists.(lp) e ~tick:w.now

(* A transition that comes back physically unchanged needs no store:
   [w.states] is old, and a store into it costs a write barrier. *)
let set_state w lp s = if s != w.states.(lp) then w.states.(lp) <- s

(* The single crash path, whatever caused the crash: a dead process
   never initiates or crashes again, so its planned inits and faults are
   consumed with it (a stale [At] entry would otherwise block quiescence
   forever). The window's own oracle sees the crash at its next poll. *)
let crash w lp =
  let p = w.base + lp in
  append w lp Event.Crash;
  w.crashed.(lp) <- true;
  w.crashes <- p :: w.crashes;
  w.known <- p :: w.known;
  w.view <- { w.view with Oracle.crashed = Pid.Set.of_list w.known };
  Channel.drop_in_flight_to w.channel ~dst:lp;
  Channel.forget w.channel ~pid:p;
  w.pending_init_count <-
    w.pending_init_count - List.length w.pending_inits.(lp);
  w.pending_inits.(lp) <- [];
  w.pending_faults.(lp) <- []

(* [fires w ~by e]: [e]'s trigger holds at tick [by]; [~by:max_int] asks
   whether it can still fire at all. *)
let fires w ~by e =
  match e.Fault_plan.trigger with
  | Fault_plan.At tick -> by >= tick
  | Fault_plan.After_did (q, a) ->
      Action_id.Set.mem a w.done_actions.(q - w.base)
  | Fault_plan.After_any_do -> w.any_do

let fault_due w lp =
  match w.pending_faults.(lp) with
  | [] -> false
  | entries -> List.exists (fires w ~by:w.now) entries

(* Explorer-granted crash: queried only while the config's crash budget has
   anything left, so configs with the default [crash_budget = 0] never make
   the query and their decision traces keep their historical shape. *)
let decision_crash w lp =
  w.crash_budget_left > 0
  && Decision.crash w.source ~tick:w.now ~pid:(w.base + lp)
       ~events:(History.Builder.length w.hists.(lp))
  &&
  (w.crash_budget_left <- w.crash_budget_left - 1;
   true)

let pending_init w lp =
  List.find_opt (fun e -> e.Init_plan.at <= w.now) w.pending_inits.(lp)

let consume_init w lp entry =
  let keep, gone =
    List.partition
      (fun e -> not (Action_id.equal e.Init_plan.action entry.Init_plan.action))
      w.pending_inits.(lp)
  in
  w.pending_inits.(lp) <- keep;
  w.pending_init_count <- w.pending_init_count - List.length gone

let deliver_message w lp (src, msg, _sent_at) =
  Channel.deliver w.channel ~src ~dst:lp msg;
  append w lp (Event.Recv { src; msg });
  set_state w lp (Protocol.on_recv w.states.(lp) ~now:w.now ~src msg)

(* A send to another window is gated on the sender's channel and
   decision stream ([Channel.send] split in two, so the gate sees global
   pids and fairness classes do not depend on the partition) and waits in
   the outbox for the barrier. The sender reads the crashes committed at
   the last barrier (its view's set, since no crash of its own window can
   name [dst]); the destination re-checks its exact flag when the batch
   is injected, so a message is never enqueued for a crashed process. *)
let send_out w ~src ~dst msg =
  let n = w.cfg.n in
  if dst < 0 || dst >= n then
    invalid_arg (Printf.sprintf "Sim: send to pid %d outside [0, %d)" dst n);
  if
    (not (Pid.Set.mem dst w.view.Oracle.crashed))
    && Channel.gate w.channel ~now:w.now ~src ~dst msg
  then
    let k = window_of ~n ~s:(Array.length w.outbox) dst in
    w.outbox.(k) <- (src, dst, msg) :: w.outbox.(k)

let protocol_step w lp =
  let p = w.base + lp in
  let state', act = Protocol.step w.states.(lp) ~now:w.now in
  set_state w lp state';
  match act with
  | Protocol.No_op -> ()
  | Protocol.Perform a ->
      append w lp (Event.Do a);
      w.done_actions.(lp) <- Action_id.Set.add a w.done_actions.(lp);
      w.any_do <- true
  | Protocol.Send_to (dst, msg) ->
      append w lp (Event.Send { dst; msg });
      let ld = dst - w.base in
      if ld < 0 || ld >= w.size then send_out w ~src:p ~dst msg
      else if
        (not w.crashed.(ld))
        && Channel.gate w.channel ~now:w.now ~src:p ~dst msg
      then Channel.inject w.channel ~src:p ~dst:ld ~sent:w.now msg

(* One scheduling slot for process p. Priorities: crash, then initiation,
   then a changed failure-detector report, then forced (overdue) delivery,
   then a coin flip between delivering a message and a protocol step. *)
let slot w p =
  let lp = p - w.base in
  if w.crashed.(lp) then ()
  else if fault_due w lp || decision_crash w lp then crash w lp
  else
    match pending_init w lp with
    | Some entry ->
        consume_init w lp entry;
        append w lp (Event.Init entry.Init_plan.action);
        w.initiated <- entry.Init_plan.action :: w.initiated;
        set_state w lp (Protocol.on_init w.states.(lp) entry.Init_plan.action)
    | None -> (
        let report =
          match w.cfg.oracle.Oracle.poll p w.view with
          | None -> None
          | Some r -> (
              match History.Builder.last_suspect w.hists.(lp) with
              | Some prev when Report.equal prev r -> None
              | _ -> Some r)
        in
        match report with
        | Some r ->
            append w lp (Event.Suspect r);
            set_state w lp (Protocol.on_suspect w.states.(lp) r)
        | None -> (
            (* Delivery competes with protocol steps for the slot. The
               delivery probability grows with the backlog (a process
               drains a long input queue before generating more traffic)
               but is capped below 1 so steps never starve; an overdue
               message (older than max_delay) is served first, so every
               kept message is eventually received. *)
            let backlog = Channel.backlog w.channel ~dst:lp in
            if backlog = 0 then protocol_step w lp
            else
              (* ADD delay bound: a kept message older than [bound] must
                 be received now — it preempts the whole slot and consumes
                 no Decision, so the trace stays a pure function of the
                 decision stream (replay and the explorer see nothing
                 new) and configs without [add] are bit-identical. *)
              let add_overdue =
                match w.cfg.add with
                | None -> None
                | Some { Channel.bound; _ } -> (
                    match Channel.oldest_in_flight w.channel ~dst:lp with
                    | Some (_, _, sent_at) as x when w.now - sent_at >= bound
                      ->
                        x
                    | _ -> None)
              in
              match add_overdue with
              | Some delivery -> deliver_message w lp delivery
              | None ->
              let p_deliver =
                Float.min 0.9 (0.5 +. (0.08 *. float_of_int backlog))
              in
              if
                Decision.deliver w.source ~tick:w.now ~dst:p ~backlog
                  ~p:p_deliver
              then
                let overdue =
                  match Channel.oldest_in_flight w.channel ~dst:lp with
                  | Some (_, _, sent_at) as x
                    when w.now - sent_at >= w.cfg.max_delay ->
                      x
                  | _ -> None
                in
                match overdue with
                | Some delivery -> deliver_message w lp delivery
                | None ->
                    (* [Hashtbl.hash] here is collision-tolerant: keys
                       only decide which pick alternatives the explorer
                       treats as equal (sleep-set pruning). A collision
                       merges two genuinely distinct deliveries — it can
                       narrow the bounded search, never corrupt a
                       verdict — and a (src, msg) pair is shallow enough
                       for the bounded traversal to cover it. Contrast
                       whole histories, whose hash folds every event
                       ([History.hash_timed_events]) because the bounded
                       traversal collided them systematically. *)
                    let keys () =
                      Array.init backlog (fun i ->
                          let src, msg, _ =
                            Channel.nth_in_flight w.channel ~dst:lp i
                          in
                          Hashtbl.hash (src, msg))
                    in
                    let i =
                      Decision.pick w.source ~tick:w.now ~dst:p ~keys
                        ~arity:backlog
                    in
                    deliver_message w lp
                      (Channel.nth_in_flight w.channel ~dst:lp i)
              else protocol_step w lp))

(* The batch the last barrier routed here, sent at the previous tick. *)
let rec inject w = function
  | [] -> ()
  | (src, dst, msg) :: rest ->
      let lp = dst - w.base in
      if not w.crashed.(lp) then
        Channel.inject w.channel ~src ~dst:lp ~sent:(w.now - 1) msg;
      inject w rest

(* Tick [now] on one window: inject the routed batch, apply the loss
   schedule, draw the slot order and give every live process one slot
   (R2). It touches only the window's own state, its decision stream and
   what the last barrier left it, so windows tick in parallel. *)
let tick w now =
  w.now <- now;
  w.view <- { w.view with Oracle.now };
  (match w.inbox with
  | [] -> ()
  | batch ->
      w.inbox <- [];
      inject w batch);
  apply_schedule w;
  Decision.order w.source ~tick:now w.order;
  for i = 0 to w.size - 1 do
    slot w w.order.(i)
  done

(* ---- The barrier, sequential in window order ---- *)

(* Move every outbox into its destination's inbox, ordered by sending
   window, then by send. *)
let route ws =
  let s = Array.length ws in
  for dk = 0 to s - 1 do
    let inbound = ref [] in
    for sk = s - 1 downto 0 do
      match ws.(sk).outbox.(dk) with
      | [] -> ()
      | l ->
          ws.(sk).outbox.(dk) <- [];
          inbound := List.rev_append l !inbound
    done;
    ws.(dk).inbox <- !inbound
  done

(* Commit the crashes since the last barrier, window by window, oldest
   first: prune each victim's fairness rows in the other windows' channels
   too, and restart every view from the committed list. *)
let commit ws committed =
  let s = Array.length ws and any = ref false in
  for k = 0 to s - 1 do
    match ws.(k).crashes with
    | [] -> ()
    | l ->
        any := true;
        ws.(k).crashes <- [];
        List.iter
          (fun p ->
            committed := p :: !committed;
            for j = 0 to s - 1 do
              if j <> k then Channel.forget ws.(j).channel ~pid:p
            done)
          (List.rev l)
  done;
  if !any then begin
    let crashed = Pid.Set.of_list !committed in
    Array.iter
      (fun w ->
        w.known <- !committed;
        w.view <- { w.view with Oracle.crashed })
      ws
  end

(* The goal and quiescence checks run after every tick, so they are
   loops over windows and local pids that build no closure and no pid
   list. *)
let rec live_performed ws a k lp =
  k = Array.length ws
  ||
  let w = ws.(k) in
  if lp = w.size then live_performed ws a (k + 1) 0
  else
    (w.crashed.(lp) || Action_id.Set.mem a (Protocol.performed w.states.(lp)))
    && live_performed ws a k (lp + 1)

let rec live_decided ws k lp =
  k = Array.length ws
  ||
  let w = ws.(k) in
  if lp = w.size then live_decided ws (k + 1) 0
  else
    (w.crashed.(lp)
    || not (Action_id.Set.is_empty (Protocol.performed w.states.(lp))))
    && live_decided ws k (lp + 1)

let rec performed_all ws = function
  | [] -> true
  | a :: rest -> live_performed ws a 0 0 && performed_all ws rest

(* every action initiated in window [k] or later *)
let rec initiated_performed ws k =
  k = Array.length ws
  || (performed_all ws ws.(k).initiated && initiated_performed ws (k + 1))

let goal_holds cfg ws =
  Array.for_all (fun w -> w.pending_init_count = 0) ws
  &&
  match cfg.goal with
  | Run_to_max -> false
  | All_alive_decided -> live_decided ws 0 0
  | All_alive_performed -> initiated_performed ws 0

let rec can_fire w = function
  | [] -> false
  | e :: rest -> fires w ~by:max_int e || can_fire w rest

let rec quiet w lp =
  lp = w.size
  || (w.crashed.(lp) || Protocol.quiescent w.states.(lp))
     && (not (can_fire w w.pending_faults.(lp)))
     && quiet w (lp + 1)

(* No process of the window will emit another event unprompted: no
   pending init, nothing in flight or routed to it, every live process
   quiescent, and no pending fault whose trigger can still fire. *)
let quiescent w =
  w.pending_init_count = 0
  && Channel.in_flight_count w.channel = 0
  && w.inbox = []
  && quiet w 0

let execute_shards ?domains ~sources cfg make_process =
  validate cfg;
  let n = cfg.n and s = Array.length sources in
  if s < 1 || s > n then
    invalid_arg
      (Printf.sprintf "Sim.execute_shards: %d sources outside [1, %d]" s n);
  let view =
    {
      Oracle.now = 0;
      n;
      crashed = Pid.Set.empty;
      planned_faulty = Fault_plan.planned_faulty cfg.fault_plan;
    }
  in
  let ws =
    Array.init s (fun k ->
        let base = window_base ~n ~s k in
        window cfg ~windows:s ~view ~base
          ~size:(window_base ~n ~s (k + 1) - base)
          ~source:sources.(k) make_process)
  in
  let committed = ref [] in
  let reason = ref Max_ticks in
  let drained = ref 0 in
  let blackout_done = ref false in
  (try
     for now = 1 to cfg.max_ticks do
       (* a single window ticks inline, without a pool dispatch *)
       if s = 1 then tick ws.(0) now
       else ignore (Ensemble.map_array ?domains (fun w -> tick w now) ws);
       if s > 1 then route ws;
       commit ws committed;
       if
         cfg.blackout_after_do && (not !blackout_done)
         && Array.exists (fun w -> w.any_do) ws
       then (
         Array.iter
           (fun w ->
             Channel.drop_all_in_flight w.channel;
             w.inbox <- [])
           ws;
         blackout_done := true);
       if goal_holds cfg ws then (
         incr drained;
         if !drained > cfg.drain_margin then (
           reason := Goal_reached;
           raise Exit))
       else drained := 0;
       if Array.for_all quiescent ws then (
         reason := Quiescent;
         raise Exit)
     done
   with Exit -> ());
  let gather f = Array.concat (Array.to_list (Array.map f ws)) in
  {
    (* every window runs the same ticks *)
    run =
      Run.make ~n ~horizon:ws.(0).now
        (gather (fun w -> Array.map History.Builder.seal w.hists));
    reason = !reason;
    final_states = gather (fun w -> w.states);
  }

let execute ?decisions cfg make_process =
  let source =
    match decisions with
    | Some s -> s
    | None -> Decision.random ~seed:cfg.seed ()
  in
  execute_shards ~sources:[| source |] cfg make_process

let execute_uniform ?decisions cfg proto =
  execute ?decisions cfg (fun p -> Protocol.make proto ~n:cfg.n ~me:p)

let record cfg make_process =
  let source = Decision.random ~record:true ~seed:cfg.seed () in
  let res = execute ~decisions:source cfg make_process in
  (res, Decision.trace source)

let replay ~trace cfg make_process =
  execute ~decisions:(Decision.replay trace) cfg make_process
