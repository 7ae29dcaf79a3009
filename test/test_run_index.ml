(* Run_index vs the naive scans it replaces: on random simulated runs,
   every indexed answer must agree with a direct walk over the raw
   [History.timed_events] lists. *)

let timed run p = History.timed_events (Run.history run p)

(* -- naive reference implementations ------------------------------------ *)

let naive_first_send run ~src ~dst msg =
  List.find_map
    (fun (e, t) ->
      match e with
      | Event.Send { dst = d; msg = m }
        when Pid.equal d dst && Message.equal m msg ->
          Some t
      | _ -> None)
    (timed run src)

let naive_first_recv run ~dst ~src msg =
  List.find_map
    (fun (e, t) ->
      match e with
      | Event.Recv { src = s; msg = m }
        when Pid.equal s src && Message.equal m msg ->
          Some t
      | _ -> None)
    (timed run dst)

let naive_crash_tick run p =
  List.find_map
    (fun (e, t) -> if Event.is_crash e then Some t else None)
    (timed run p)

let naive_first_do run p alpha =
  List.find_map
    (fun (e, t) ->
      match e with
      | Event.Do a when Action_id.equal a alpha -> Some t
      | _ -> None)
    (timed run p)

let naive_first_init run alpha =
  List.find_map
    (fun (e, t) ->
      match e with
      | Event.Init a when Action_id.equal a alpha -> Some t
      | _ -> None)
    (timed run (Action_id.owner alpha))

let naive_all_actions run =
  Action_id.Set.elements
    (List.fold_left
       (fun acc p ->
         List.fold_left
           (fun acc (e, _) ->
             match e with
             | Event.Do a | Event.Init a -> Action_id.Set.add a acc
             | _ -> acc)
           acc (timed run p))
       Action_id.Set.empty
       (Pid.all (Run.n run)))

let naive_performers run alpha =
  List.filter (fun p -> Run.did run p alpha) (Pid.all (Run.n run))

let naive_decision run p =
  List.find_map
    (fun (e, _) ->
      match e with Event.Do a -> Some (Action_id.tag a) | _ -> None)
    (timed run p)

(* the raw detector timeline read at tick [m]: last non-[Gen] report *)
let naive_suspects_at run p m =
  List.fold_left
    (fun acc (e, t) ->
      match e with
      | Event.Suspect (Report.Gen _) -> acc
      | Event.Suspect r when t <= m ->
          Some (Report.suspects_in ~n:(Run.n run) r)
      | _ -> acc)
    None (timed run p)
  |> Option.value ~default:Pid.Set.empty

(* the checker's Suspects primitive: every report counts *)
let naive_all_suspects_at run p m =
  List.fold_left
    (fun acc (e, t) ->
      match e with
      | Event.Suspect r when t <= m ->
          Some (Report.suspects_in ~n:(Run.n run) r)
      | _ -> acc)
    None (timed run p)
  |> Option.value ~default:Pid.Set.empty

let naive_counts run =
  List.fold_left
    (fun acc p ->
      List.fold_left
        (fun (s, r, d, i, c, su) (e, _) ->
          match e with
          | Event.Send _ -> (s + 1, r, d, i, c, su)
          | Event.Recv _ -> (s, r + 1, d, i, c, su)
          | Event.Do _ -> (s, r, d + 1, i, c, su)
          | Event.Init _ -> (s, r, d, i + 1, c, su)
          | Event.Crash -> (s, r, d, i, c + 1, su)
          | Event.Suspect _ -> (s, r, d, i, c, su + 1))
        acc (timed run p))
    (0, 0, 0, 0, 0, 0)
    (Pid.all (Run.n run))

(* -- rebuilt and foreign messages ----------------------------------------- *)

(* [msg] with its set payload rebuilt in reverse insertion order: equal
   under [Message.equal], built as a different tree. *)
let reshaped = function
  | Message.Coord_request (a, f) ->
      Message.Coord_request
        (a, List.fold_right Fact.Set.add (Fact.Set.elements f) Fact.Set.empty)
  | Message.Coord_ack (a, f) ->
      Message.Coord_ack
        (a, List.fold_right Fact.Set.add (Fact.Set.elements f) Fact.Set.empty)
  | Message.Gossip s ->
      Message.Gossip
        (List.fold_right Pid.Set.add (Pid.Set.elements s) Pid.Set.empty)
  | m -> m

(* A message no run carries: [msg]'s set payload grown by an element no
   run of at most six processes can hold, or a negative heartbeat. *)
let never_carried = function
  | Message.Coord_request (a, f) ->
      Message.Coord_request (a, Fact.Set.add (Fact.Crashed 99) f)
  | Message.Coord_ack (a, f) ->
      Message.Coord_ack (a, Fact.Set.add (Fact.Crashed 99) f)
  | Message.Gossip s -> Message.Gossip (Pid.Set.add 99 s)
  | _ -> Message.Heartbeat (-1)

(* -- one full cross-check of a run -------------------------------------- *)

let opt_int = Alcotest.(option int)

let cross_check run =
  let idx = Run_index.of_run run in
  let n = Run.n run in
  let pids = Pid.all n in
  List.iter
    (fun p ->
      Alcotest.check opt_int
        (Printf.sprintf "crash_tick p%d" p)
        (naive_crash_tick run p)
        (Run_index.crash_tick idx p);
      Alcotest.check opt_int
        (Printf.sprintf "decision p%d" p)
        (naive_decision run p) (Run_index.decision idx p);
      (* every send/recv that occurred is found at its first tick, also
         when asked with an equal message built as a different tree; a
         message the run never carried is never found *)
      List.iter
        (fun (e, _) ->
          match e with
          | Event.Send { dst; msg } ->
              let expected = naive_first_send run ~src:p ~dst msg in
              Alcotest.check opt_int "first_send" expected
                (Run_index.first_send idx ~src:p ~dst msg);
              Alcotest.check opt_int "first_send, reshaped" expected
                (Run_index.first_send idx ~src:p ~dst (reshaped msg));
              Alcotest.check opt_int "first_send, never carried" None
                (Run_index.first_send idx ~src:p ~dst (never_carried msg))
          | Event.Recv { src; msg } ->
              let expected = naive_first_recv run ~dst:p ~src msg in
              Alcotest.check opt_int "first_recv" expected
                (Run_index.first_recv idx ~dst:p ~src msg);
              Alcotest.check opt_int "first_recv, reshaped" expected
                (Run_index.first_recv idx ~dst:p ~src (reshaped msg));
              Alcotest.check opt_int "first_recv, never carried" None
                (Run_index.first_recv idx ~dst:p ~src (never_carried msg))
          | _ -> ())
        (timed run p);
      (* suspicion timelines, at every tick of the run *)
      for m = 0 to Run.horizon run do
        Alcotest.(check bool)
          (Printf.sprintf "suspects_at p%d m%d" p m)
          true
          (Pid.Set.equal
             (naive_suspects_at run p m)
             (Run_index.suspects_at (Run_index.suspicions idx p) m));
        Alcotest.(check bool)
          (Printf.sprintf "all_suspects_at p%d m%d" p m)
          true
          (Pid.Set.equal
             (naive_all_suspects_at run p m)
             (Run_index.suspects_at (Run_index.all_suspicions idx p) m))
      done)
    pids;
  (* the action inventory *)
  let actions = naive_all_actions run in
  Alcotest.(check (list string))
    "all_actions"
    (List.map Action_id.to_string actions)
    (List.map Action_id.to_string (Run_index.all_actions idx));
  List.iter
    (fun alpha ->
      Alcotest.check opt_int "first_init" (naive_first_init run alpha)
        (Run_index.first_init idx alpha);
      Alcotest.(check (list int))
        "performers"
        (naive_performers run alpha)
        (Run_index.performers idx alpha);
      List.iter
        (fun p ->
          Alcotest.check opt_int "first_do" (naive_first_do run p alpha)
            (Run_index.first_do idx p alpha))
        pids)
    actions;
  List.iter2
    (fun (a, t) (a', t') ->
      Alcotest.(check bool) "initiated action" true (Action_id.equal a a');
      Alcotest.(check int) "initiated tick" t t')
    (Run.initiated run)
    (Run_index.initiated idx);
  (* counts *)
  let s, r, d, i, c, su = naive_counts run in
  let cs = Run_index.counts idx in
  Alcotest.(check (list int))
    "counts" [ s; r; d; i; c; su ]
    [
      cs.Run_index.sends;
      cs.Run_index.recvs;
      cs.Run_index.dos;
      cs.Run_index.inits;
      cs.Run_index.crashes;
      cs.Run_index.suspects;
    ]

(* -- random runs --------------------------------------------------------- *)

(* A run from a random workload: size, faults, loss, oracle and protocol
   all drawn from the seed (shared generators in {!Helpers}). The random
   protocols never send a non-empty set, so one seed in three wraps the
   protocol in full-information piggybacking (non-empty [Fact.Set]
   payloads) and one in three in the gossip conversion over a churning
   strong detector (non-empty [Gossip] sets). *)
let random_run seed =
  let seed64 = Int64.of_int ((seed * 7919) + 3) in
  let _, proto, cfg = Helpers.random_setup ~max_ticks:600 seed64 in
  let proto, cfg =
    match seed mod 3 with
    | 0 -> (proto, cfg)
    | 1 -> (Core.Fip.make proto, cfg)
    | _ ->
        let module P = (val proto) in
        ( (module Detector.Convert.With_gossip (P) : Protocol.S),
          { cfg with Sim.oracle = Detector.Oracles.strong ~seed:seed64 () } )
  in
  (Sim.execute_uniform cfg proto).Sim.run

(* The generator really carries set payloads: some Fip run sends a
   non-empty fact set and some gossip run a non-empty [Gossip] set. *)
let test_generator_carries_sets () =
  let sends seeds pred =
    List.exists
      (fun seed ->
        let run = random_run seed in
        List.exists
          (fun p ->
            List.exists
              (fun (e, _) ->
                match e with Event.Send { msg; _ } -> pred msg | _ -> false)
              (timed run p))
          (Pid.all (Run.n run)))
      seeds
  in
  Alcotest.(check bool)
    "non-empty fact set" true
    (sends [ 1; 4; 7; 10 ] (function
      | Message.Coord_request (_, f) | Message.Coord_ack (_, f) ->
          not (Fact.Set.is_empty f)
      | _ -> false));
  Alcotest.(check bool)
    "non-empty gossip set" true
    (sends [ 2; 5; 8; 11 ] (function
      | Message.Gossip s -> not (Pid.Set.is_empty s)
      | _ -> false))

let qcheck_index_agrees =
  QCheck.Test.make ~count:45 ~name:"index agrees with naive timed_events scan"
    QCheck.(map (fun i -> abs i) small_int)
    (fun seed ->
      cross_check (random_run seed);
      true)

let test_memoized () =
  let run = random_run 5 in
  let idx = Run_index.of_run run in
  Alcotest.(check bool)
    "same physical index" true
    (idx == Run_index.of_run run);
  (* hashing the run's histories must not disturb the cached index *)
  for p = 0 to Run.n run - 1 do
    ignore (History.hash_timed_events (Run.history run p))
  done;
  Alcotest.(check bool)
    "same physical index after the first hash request" true
    (idx == Run_index.of_run run)

(* The index reads the sealed histories in place: building it on a
   large ring run allocates its tables, not a second copy of the events.
   A copy costs about four words per event (a tuple and an array slot);
   the tables cost a fraction of a word, since most events are sends and
   receives that only bump a counter. Large arrays skip the minor heap,
   so the count is minor + major - promoted words; [Gc.counters] also
   counts the words not yet flushed from the minor heap, which
   [Gc.quick_stat] misses. *)
let test_no_copy () =
  let p =
    Scale.Estimate.params ~n:1000 ~backend:"gossip" ~ticks:120 ()
  in
  let pair = Scale.Estimate.pair p in
  let cfg =
    {
      (Scale.Estimate.config p ~seed:42L) with
      Sim.oracle = pair.Detector.Backends.oracle;
    }
  in
  let run =
    (Scale.Shard.execute ~shards:1 cfg pair.Detector.Backends.protocol)
      .Sim.run
  in
  let events =
    List.fold_left
      (fun acc p -> acc + History.length (Run.history run p))
      0
      (Pid.all (Run.n run))
  in
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  ignore (Sys.opaque_identity (Run_index.of_run run));
  let per_event = (words () -. w0) /. float_of_int events in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per event (%d events) < 1" per_event events)
    true (per_event < 1.)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_index_agrees;
    Alcotest.test_case "index memoized per run" `Quick test_memoized;
    Alcotest.test_case "generator carries set payloads" `Quick
      test_generator_carries_sets;
    Alcotest.test_case "index holds no copy of the events" `Quick
      test_no_copy;
  ]
