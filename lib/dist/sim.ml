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
   [not (r >= 0 && r <= 1)] so NaN is rejected too. *)
let validate cfg =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
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

(* ---------- The scheduling kernel ---------- *)

(* A window is a contiguous pid range [base, base + size) and the dense
   state its slots touch, indexed locally (pid - base): history builders,
   protocol states, crash flags, pending inits and faults per owner pid
   (plan order per owner is preserved, so "first due entry" agrees with
   the old scan of the global list), and a channel holding the in-flight
   queues of the window's own destinations. Decisions, fairness rows and
   events carry global pids. [execute] drives one window over [0, n);
   [Shard.execute] drives one per shard plus its cross-shard barrier. *)
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
  mutable pending_init_count : int; (* live entries, orphans included *)
  pending_faults : Fault_plan.entry list array; (* per victim, plan order *)
  orphan_faults : Fault_plan.entry list;
  mutable schedule : (int * float) list; (* loss-schedule entries ahead *)
  mutable crashes : Pid.t list; (* newest first; a caller may clear it *)
  mutable initiated : Action_id.t list; (* every Init event so far *)
  mutable any_do : bool;
  mutable crash_budget_left : int;
  done_actions : Action_id.Set.t array; (* per pid, for After_did triggers *)
  mutable now : int;
}

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

(* Plan entries whose owner/victim is outside [0, n) can never fire but
   do block goal and quiescence checks, as the old global-list scans did;
   the window at base 0 keeps them aside ([orphan_faults], and inits in
   the count only) so that behaviour survives the dense indexing. *)
let window cfg ~base ~size ~source ~hists make_process =
  let mine p = p >= base && p < base + size in
  let orphan p = base = 0 && (p < 0 || p >= cfg.n) in
  let pending_inits = Array.make size [] and init_count = ref 0 in
  List.iter
    (fun e ->
      let owner = Action_id.owner e.Init_plan.action in
      if mine owner then (
        pending_inits.(owner - base) <- e :: pending_inits.(owner - base);
        incr init_count)
      else if orphan owner then incr init_count)
    (List.rev (Init_plan.entries cfg.init_plan));
  let pending_faults = Array.make size [] and orphan_faults = ref [] in
  List.iter
    (fun e ->
      let v = e.Fault_plan.victim in
      if mine v then pending_faults.(v - base) <- e :: pending_faults.(v - base)
      else if orphan v then orphan_faults := e :: !orphan_faults)
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
      hists;
      states = Array.init size (fun i -> make_process (base + i));
      crashed = Array.make size false;
      order = Array.init size (fun i -> base + i);
      pending_inits;
      pending_init_count = !init_count;
      pending_faults;
      orphan_faults = !orphan_faults;
      schedule = cfg.loss_schedule;
      crashes = [];
      initiated = [];
      any_do = false;
      crash_budget_left = cfg.crash_budget;
      done_actions = Array.make size Action_id.Set.empty;
      now = 0;
    }
  in
  apply_schedule w;
  w

let append w lp e = History.Builder.append w.hists.(lp) e ~tick:w.now

(* The single crash path, whatever caused the crash: a dead process
   never initiates or crashes again, so its planned inits and faults are
   consumed with it (a stale [At] entry would otherwise block quiescence
   forever). *)
let crash w lp =
  let p = w.base + lp in
  append w lp Event.Crash;
  w.crashed.(lp) <- true;
  w.crashes <- p :: w.crashes;
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
  w.states.(lp) <- Protocol.on_recv w.states.(lp) ~now:w.now ~src msg

(* A send to a destination inside the window is gated and enqueued here
   ([Channel.send] split in two, so the gate sees global pids); any other
   destination goes to the caller's [send_out] hook. *)
let protocol_step w ~send_out lp =
  let p = w.base + lp in
  let state', act = Protocol.step w.states.(lp) ~now:w.now in
  w.states.(lp) <- state';
  match act with
  | Protocol.No_op -> ()
  | Protocol.Perform a ->
      append w lp (Event.Do a);
      w.done_actions.(lp) <- Action_id.Set.add a w.done_actions.(lp);
      w.any_do <- true
  | Protocol.Send_to (dst, msg) ->
      append w lp (Event.Send { dst; msg });
      let ld = dst - w.base in
      if ld < 0 || ld >= w.size then send_out ~src:p ~dst msg
      else if
        (not w.crashed.(ld))
        && Channel.gate w.channel ~now:w.now ~src:p ~dst msg
      then Channel.inject w.channel ~src:p ~dst:ld ~sent:w.now msg

(* One scheduling slot for process p. Priorities: crash, then initiation,
   then a changed failure-detector report, then forced (overdue) delivery,
   then a coin flip between delivering a message and a protocol step. *)
let slot w ~view ~send_out p =
  let lp = p - w.base in
  if w.crashed.(lp) then ()
  else if fault_due w lp || decision_crash w lp then crash w lp
  else
    match pending_init w lp with
    | Some entry ->
        consume_init w lp entry;
        append w lp (Event.Init entry.Init_plan.action);
        w.initiated <- entry.Init_plan.action :: w.initiated;
        w.states.(lp) <- Protocol.on_init w.states.(lp) entry.Init_plan.action
    | None -> (
        let report =
          match w.cfg.oracle.Oracle.poll p (view ()) with
          | None -> None
          | Some r -> (
              match History.Builder.last_suspect w.hists.(lp) with
              | Some prev when Report.equal prev r -> None
              | _ -> Some r)
        in
        match report with
        | Some r ->
            append w lp (Event.Suspect r);
            w.states.(lp) <- Protocol.on_suspect w.states.(lp) r
        | None -> (
            (* Delivery competes with protocol steps for the slot. The
               delivery probability grows with the backlog (a process
               drains a long input queue before generating more traffic)
               but is capped below 1 so steps never starve; an overdue
               message (older than max_delay) is served first, so every
               kept message is eventually received. *)
            let backlog = Channel.backlog w.channel ~dst:lp in
            if backlog = 0 then protocol_step w ~send_out lp
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
                       [History.hash_events], where collisions were
                       systematic and had to be fixed. *)
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
              else protocol_step w ~send_out lp))

let tick w ~view ~send_out now =
  w.now <- now;
  apply_schedule w;
  Decision.order w.source ~tick:now w.order;
  Array.iter (fun p -> slot w ~view ~send_out p) w.order

let quiescent w =
  let rec quiet lp =
    lp >= w.size
    || (w.crashed.(lp) || Protocol.quiescent w.states.(lp)) && quiet (lp + 1)
  in
  w.pending_init_count = 0
  && Channel.in_flight_count w.channel = 0
  && quiet 0
  && (* no pending fault whose trigger can still fire *)
  (not (Array.exists (List.exists (fires w ~by:max_int)) w.pending_faults))
  && not (List.exists (fires w ~by:max_int) w.orphan_faults)

(* ---------- The unsharded engine: one window over [0, n) ---------- *)

let goal_holds w =
  w.pending_init_count = 0
  &&
  match w.cfg.goal with
  | Run_to_max -> false
  | All_alive_decided ->
      List.for_all
        (fun p ->
          w.crashed.(p)
          || not (Action_id.Set.is_empty (Protocol.performed w.states.(p))))
        (Pid.all w.cfg.n)
  | All_alive_performed ->
      List.for_all
        (fun a ->
          List.for_all
            (fun p ->
              w.crashed.(p)
              || Action_id.Set.mem a (Protocol.performed w.states.(p)))
            (Pid.all w.cfg.n))
        w.initiated

(* One history arena per domain, reused across every run executed on that
   worker (the Ensemble pool keeps its domains alive across jobs, so the
   arena converges on the workload's high-water mark and stops
   allocating). Sealing copies exact-size snapshots, so nothing escapes
   the arena between seeds. *)
let arena_key = Domain.DLS.new_key History.Builder.arena

let execute ?decisions cfg make_process =
  validate cfg;
  let source =
    match decisions with
    | Some s -> s
    | None -> Decision.random ~seed:cfg.seed ()
  in
  let hists, release =
    History.Builder.acquire (Domain.DLS.get arena_key) ~n:cfg.n
  in
  Fun.protect ~finally:release @@ fun () ->
  let w = window cfg ~base:0 ~size:cfg.n ~source ~hists make_process in
  (* The oracle view is a parameter of [tick] because [Run.digest] Marshals
     reports with their physical sharing. Oracles embed the view's sets
     in their reports ([Set.filter]/[Set.union] return an input unchanged
     when nothing changes), and default [Marshal] encodes sharing as
     back-references, so handing every poll the same set values would
     change digest bytes. Every poll therefore gets a fresh ascending
     [Pid.Set.of_list] (the list is re-sorted only after a crash) and a
     fresh planned-faulty set: the historical per-poll structure. *)
  let seen = ref [] and ascending = ref [] in
  let view () =
    if w.crashes != !seen then begin
      seen := w.crashes;
      ascending := List.sort Pid.compare w.crashes
    end;
    {
      Oracle.now = w.now;
      n = cfg.n;
      crashed = Pid.Set.of_list !ascending;
      planned_faulty = Fault_plan.planned_faulty cfg.fault_plan;
    }
  in
  let send_out ~src:_ ~dst _ =
    invalid_arg (Printf.sprintf "Sim: send to pid %d outside [0, %d)" dst cfg.n)
  in
  let reason = ref Max_ticks in
  let drained = ref 0 in
  let blackout_done = ref false in
  (try
     for now = 1 to cfg.max_ticks do
       tick w ~view ~send_out now;
       if cfg.blackout_after_do && w.any_do && not !blackout_done then (
         Channel.drop_all_in_flight w.channel;
         blackout_done := true);
       if goal_holds w then (
         incr drained;
         if !drained > cfg.drain_margin then (
           reason := Goal_reached;
           raise Exit))
       else drained := 0;
       if quiescent w then (
         reason := Quiescent;
         raise Exit)
     done
   with Exit -> ());
  {
    run =
      Run.make ~n:cfg.n ~horizon:w.now (Array.map History.Builder.seal w.hists);
    reason = !reason;
    final_states = w.states;
  }

let execute_uniform ?decisions cfg proto =
  execute ?decisions cfg (fun p -> Protocol.make proto ~n:cfg.n ~me:p)

let record cfg make_process =
  let source = Decision.random ~record:true ~seed:cfg.seed () in
  let res = execute ~decisions:source cfg make_process in
  (res, Decision.trace source)

let replay ~trace cfg make_process =
  execute ~decisions:(Decision.replay trace) cfg make_process
