(* Unit and property tests for the simulation substrate. *)

let alpha owner tag = Action_id.make ~owner ~tag

(* ---------- Prng ---------- *)

let prng_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let prng_split_independent () =
  let a = Prng.create 42L in
  let child = Prng.split a in
  (* the child stream must differ from the parent's continuation *)
  let xs = List.init 20 (fun _ -> Prng.next_int64 a) in
  let ys = List.init 20 (fun _ -> Prng.next_int64 child) in
  Alcotest.(check bool) "independent" false (xs = ys)

let prng_int_bounds =
  QCheck.Test.make ~name:"Prng.int stays in bounds" ~count:500
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let p = Prng.create seed in
      let x = Prng.int p bound in
      x >= 0 && x < bound)

let prng_float_bounds =
  QCheck.Test.make ~name:"Prng.float in [0,1)" ~count:500 QCheck.int64
    (fun seed ->
      let p = Prng.create seed in
      let x = Prng.float p in
      x >= 0.0 && x < 1.0)

let prng_shuffle_permutes =
  QCheck.Test.make ~name:"Prng.shuffle permutes" ~count:200
    QCheck.(pair int64 (list_of_size (Gen.int_range 0 30) small_int))
    (fun (seed, l) ->
      let a = Array.of_list l in
      Prng.shuffle (Prng.create seed) a;
      List.sort compare (Array.to_list a) = List.sort compare l)

(* ---------- History ---------- *)

let history_append_order () =
  let h = History.empty in
  let h = History.append h (Event.Init (alpha 0 0)) ~tick:1 in
  let h = History.append h (Event.Do (alpha 0 0)) ~tick:3 in
  Alcotest.(check int) "length" 2 (History.length h);
  (match History.last h with
  | Some (Event.Do _) -> ()
  | _ -> Alcotest.fail "last should be Do");
  Alcotest.check_raises "same tick rejected (R2)"
    (Invalid_argument "History.append: more than one event per tick (R2)")
    (fun () -> ignore (History.append h (Event.Crash) ~tick:3))

let history_crash_is_final () =
  let h = History.append History.empty Event.Crash ~tick:1 in
  Alcotest.(check bool) "crashed" true (History.is_crashed h);
  Alcotest.check_raises "no event after crash (R4)"
    (Invalid_argument "History.append: history ends in crash (R4)")
    (fun () -> ignore (History.append h (Event.Do (alpha 0 0)) ~tick:2))

let history_prefix () =
  let h = History.empty in
  let h = History.append h (Event.Init (alpha 0 0)) ~tick:2 in
  let h = History.append h (Event.Do (alpha 0 0)) ~tick:5 in
  Alcotest.(check int) "prefix at 1 empty" 0 (History.length (History.prefix_upto h 1));
  Alcotest.(check int) "prefix at 2" 1 (History.length (History.prefix_upto h 2));
  Alcotest.(check int) "prefix at 4" 1 (History.length (History.prefix_upto h 4));
  Alcotest.(check int) "prefix at 5" 2 (History.length (History.prefix_upto h 5))

let history_equal_ignores_ticks () =
  let mk ticks =
    List.fold_left
      (fun h tick -> History.append h (Event.Init (alpha 0 0)) ~tick)
      History.empty ticks
  in
  (* one event each, at different ticks *)
  let a = mk [ 1 ] and b = mk [ 7 ] in
  Alcotest.(check bool) "tick-insensitive" true (History.equal_events a b);
  Alcotest.(check int) "same hash" (History.hash_events a) (History.hash_events b)

let history_hash_covers_all_events () =
  (* regression: [Hashtbl.hash] on the event list only traverses a
     bounded prefix, so histories differing only past ~event 10 collided
     systematically. Build two 20-event histories that differ only at
     event index 12. *)
  let mk divergent_tag =
    List.fold_left
      (fun h i ->
        let tag = if i = 12 then divergent_tag else i in
        History.append h (Event.Do (alpha 0 tag)) ~tick:(i + 1))
      History.empty
      (List.init 20 Fun.id)
  in
  let a = mk 12 and b = mk 999 in
  Alcotest.(check bool) "sequences differ" false (History.equal_events a b);
  Alcotest.(check bool)
    "histories differing only at index 12 hash differently" false
    (History.hash_events a = History.hash_events b);
  (* and equal sequences still agree, ticks ignored *)
  let c =
    List.fold_left
      (fun h i -> History.append h (Event.Do (alpha 0 i)) ~tick:((i + 1) * 3))
      History.empty
      (List.init 20 Fun.id)
  in
  Alcotest.(check int)
    "equal sequences, equal hash" (History.hash_events (mk 12))
    (History.hash_events c)

(* ---------- Outbox ---------- *)

let outbox_fifo () =
  let ob = Outbox.empty in
  let m1 = Message.Coord_ack (alpha 0 0, Fact.Set.empty) in
  let m2 = Message.Coord_ack (alpha 0 1, Fact.Set.empty) in
  let ob = Outbox.push ob ~dst:1 m1 in
  let ob = Outbox.push ob ~dst:2 m2 in
  match Outbox.next ob ~now:0 with
  | Some (ob, (d, m)) ->
      Alcotest.(check int) "first dst" 1 d;
      Alcotest.(check bool) "first msg" true (Message.equal m m1);
      (match Outbox.next ob ~now:0 with
      | Some (_, (d2, _)) -> Alcotest.(check int) "second dst" 2 d2
      | None -> Alcotest.fail "second missing")
  | None -> Alcotest.fail "first missing"

let outbox_recurring_paced () =
  let m = Message.Coord_request (alpha 0 0, Fact.Set.empty) in
  let ob = Outbox.set_recurring Outbox.empty ~key:"k" ~dst:1 m in
  (match Outbox.next ob ~now:0 with
  | Some (ob', _) ->
      (* immediately after sending, the entry is not yet eligible *)
      Alcotest.(check bool) "paced" true (Outbox.next ob' ~now:1 = None);
      Alcotest.(check bool)
        "eligible after period" true
        (Outbox.next ob' ~now:Outbox.resend_period <> None)
  | None -> Alcotest.fail "fresh entry should be eligible");
  let ob = Outbox.cancel ob ~key:"k" in
  Alcotest.(check bool) "cancelled" true (Outbox.next ob ~now:100 = None)

let outbox_oneshot_priority () =
  let req = Message.Coord_request (alpha 0 0, Fact.Set.empty) in
  let ack = Message.Coord_ack (alpha 0 0, Fact.Set.empty) in
  let ob = Outbox.set_recurring Outbox.empty ~key:"k" ~dst:1 req in
  let ob = Outbox.push ob ~dst:2 ack in
  match Outbox.next ob ~now:0 with
  | Some (_, (_, m)) ->
      Alcotest.(check bool) "one-shot first" true (Message.equal m ack)
  | None -> Alcotest.fail "missing"

let outbox_replace_recurring () =
  let m1 = Message.Coord_request (alpha 0 0, Fact.Set.empty) in
  let m2 = Message.Coord_request (alpha 0 1, Fact.Set.empty) in
  let ob = Outbox.set_recurring Outbox.empty ~key:"k" ~dst:1 m1 in
  let ob = Outbox.set_recurring ob ~key:"k" ~dst:1 m2 in
  match Outbox.next ob ~now:10 with
  | Some (_, (_, m)) -> Alcotest.(check bool) "replaced" true (Message.equal m m2)
  | None -> Alcotest.fail "missing"

(* ---------- Channel ---------- *)

let prng_decide seed =
  let prng = Prng.create seed in
  fun ~now:_ ~src:_ ~dst:_ ~rate -> Prng.bool prng rate

let channel_lossless_delivers () =
  let ch =
    Channel.create ~n:2 ~decide:(prng_decide 1L) ~loss_rate:0.0
      ~max_consecutive_drops:4 ()
  in
  let m = Message.Coord_request (alpha 0 0, Fact.Set.empty) in
  Alcotest.(check bool) "kept" true (Channel.send ch ~now:1 ~src:0 ~dst:1 m = `Kept);
  Alcotest.(check int) "in flight" 1 (Channel.in_flight_count ch);
  Channel.deliver ch ~src:0 ~dst:1 m;
  Alcotest.(check int) "drained" 0 (Channel.in_flight_count ch)

let channel_bounded_unfairness =
  QCheck.Test.make ~name:"forced keep after k consecutive drops" ~count:100
    QCheck.(pair int64 (int_range 0 6))
    (fun (seed, k) ->
      let ch =
        Channel.create ~n:2 ~decide:(prng_decide seed) ~loss_rate:1.0
          ~max_consecutive_drops:k ()
      in
      let m = Message.Coord_request (alpha 0 0, Fact.Set.empty) in
      (* with loss 1.0 exactly the first k sends drop, then one is kept *)
      let rec go i =
        match Channel.send ch ~now:i ~src:0 ~dst:1 m with
        | `Kept -> i
        | `Dropped -> go (i + 1)
      in
      go 0 = k)

let channel_link_override () =
  let ch =
    Channel.create
      ~link_loss:[ ((0, 1), 1.0) ]
      ~n:3 ~decide:(prng_decide 1L) ~loss_rate:0.0 ~max_consecutive_drops:1000 ()
  in
  let m = Message.Coord_request (alpha 0 0, Fact.Set.empty) in
  Alcotest.(check bool) "0->1 lossy" true
    (Channel.send ch ~now:1 ~src:0 ~dst:1 m = `Dropped);
  Alcotest.(check bool) "0->2 clean" true
    (Channel.send ch ~now:1 ~src:0 ~dst:2 m = `Kept)

(* ---------- Run checkers ---------- *)

let mk_run n specs =
  (* specs: per-pid (event, tick) lists, chronological *)
  let hists =
    Array.init n (fun p ->
        List.fold_left
          (fun h (e, tick) -> History.append h e ~tick)
          History.empty
          (List.assoc p specs))
  in
  let horizon =
    List.fold_left
      (fun acc (_, evs) ->
        List.fold_left (fun acc (_, t) -> max acc t) acc evs)
      0 specs
  in
  Run.make ~n ~horizon hists

let req = Message.Coord_request (alpha 0 0, Fact.Set.empty)

let run_r3_detects_phantom_recv () =
  let r =
    mk_run 2 [ (0, []); (1, [ (Event.Recv { src = 0; msg = req }, 1) ]) ]
  in
  Alcotest.(check bool) "R3 fails" true (Result.is_error (Run.check_r3 r))

let run_r3_accepts_matched () =
  let r =
    mk_run 2
      [
        (0, [ (Event.Send { dst = 1; msg = req }, 1) ]);
        (1, [ (Event.Recv { src = 0; msg = req }, 2) ]);
      ]
  in
  Alcotest.(check bool) "R3 ok" true (Result.is_ok (Run.check_r3 r))

let run_r3_multiplicity () =
  (* two receives of a message sent once: violation *)
  let r =
    mk_run 2
      [
        (0, [ (Event.Send { dst = 1; msg = req }, 1) ]);
        ( 1,
          [
            (Event.Recv { src = 0; msg = req }, 2);
            (Event.Recv { src = 0; msg = req }, 3);
          ] );
      ]
  in
  Alcotest.(check bool) "R3 fails" true (Result.is_error (Run.check_r3 r))

let run_r3_rejects_early_recv () =
  (* receive strictly before the send *)
  let r =
    mk_run 2
      [
        (0, [ (Event.Send { dst = 1; msg = req }, 5) ]);
        (1, [ (Event.Recv { src = 0; msg = req }, 2) ]);
      ]
  in
  Alcotest.(check bool) "R3 fails" true (Result.is_error (Run.check_r3 r))

(* R3 property: the monotone-cursor checker agrees with the quadratic
   reference algorithm (re-filter the send list at every receive) it
   replaced, on randomly generated two-message channels — both satisfying
   and violating runs. *)
let r3_reference run =
  let n = Run.n run in
  let sends = Hashtbl.create 64 in
  List.iter
    (fun p ->
      List.iter
        (fun (e, tick) ->
          match e with
          | Event.Send { dst; msg } ->
              let key = (p, dst, msg) in
              let prev = Option.value ~default:[] (Hashtbl.find_opt sends key) in
              Hashtbl.replace sends key (tick :: prev)
          | _ -> ())
        (History.timed_events (Run.history run p)))
    (Pid.all n);
  Hashtbl.iter (fun k v -> Hashtbl.replace sends k (List.rev v)) sends;
  let ok = ref true in
  List.iter
    (fun q ->
      let consumed = Hashtbl.create 16 in
      List.iter
        (fun (e, tick) ->
          match e with
          | Event.Recv { src; msg } ->
              let key = (src, q, msg) in
              let already =
                Option.value ~default:0 (Hashtbl.find_opt consumed key)
              in
              let available =
                match Hashtbl.find_opt sends key with
                | None -> 0
                | Some ticks ->
                    List.length (List.filter (fun s -> s <= tick) ticks)
              in
              if already >= available then ok := false
              else Hashtbl.replace consumed key (already + 1)
          | _ -> ())
        (History.timed_events (Run.history run q)))
    (Pid.all n);
  !ok

let req2 = Message.Coord_ack (alpha 0 0, Fact.Set.empty)

let r3_cursor_matches_reference =
  (* one tick-deduplicated event stream per side; the bool picks one of
     two message contents, so per-key cursors interleave *)
  let stream = QCheck.(list (pair (int_range 1 40) bool)) in
  QCheck.Test.make ~name:"R3 cursor agrees with quadratic reference"
    ~count:500 QCheck.(pair stream stream) (fun (send_spec, recv_spec) ->
      let dedup l =
        List.sort_uniq (fun (t1, _) (t2, _) -> compare t1 t2) l
      in
      let msg b = if b then req else req2 in
      let sends =
        List.map
          (fun (t, b) -> (Event.Send { dst = 1; msg = msg b }, t))
          (dedup send_spec)
      in
      let recvs =
        List.map
          (fun (t, b) -> (Event.Recv { src = 0; msg = msg b }, t))
          (dedup recv_spec)
      in
      let r = mk_run 2 [ (0, sends); (1, recvs) ] in
      Result.is_ok (Run.check_r3 r) = r3_reference r)

(* R5: the consecutive-unanswered-send count must flag a channel that
   delivers once early and then drops forever — the case a total receive
   count is blind to. *)
let run_r5_early_receive_then_silence () =
  let sends =
    List.init 10 (fun i -> (Event.Send { dst = 1; msg = req }, i + 1))
  in
  let r =
    mk_run 2 [ (0, sends); (1, [ (Event.Recv { src = 0; msg = req }, 1) ]) ]
  in
  (* 9 unanswered sends after the tick-1 receive > 2*2 + 1 *)
  Alcotest.(check bool) "R5 fails" true
    (Result.is_error (Run.check_r5 r ~max_consecutive_drops:2))

let run_r5_tolerates_bounded_tail () =
  let sends =
    List.init 6 (fun i -> (Event.Send { dst = 1; msg = req }, i + 1))
  in
  let r =
    mk_run 2 [ (0, sends); (1, [ (Event.Recv { src = 0; msg = req }, 1) ]) ]
  in
  (* 5 = 2k+1 trailing sends: within the drop + in-flight allowance *)
  Alcotest.(check bool) "R5 ok" true
    (Result.is_ok (Run.check_r5 r ~max_consecutive_drops:2))

let run_r5_late_receive_answers_all () =
  let sends =
    List.init 10 (fun i -> (Event.Send { dst = 1; msg = req }, i + 1))
  in
  let r =
    mk_run 2 [ (0, sends); (1, [ (Event.Recv { src = 0; msg = req }, 11) ]) ]
  in
  (* a receive at tick 11 answers every earlier send of its key *)
  Alcotest.(check bool) "R5 ok" true
    (Result.is_ok (Run.check_r5 r ~max_consecutive_drops:0))

let run_r5_crashed_receiver_exempt () =
  let sends =
    List.init 10 (fun i -> (Event.Send { dst = 1; msg = req }, i + 1))
  in
  let r = mk_run 2 [ (0, sends); (1, [ (Event.Crash, 1) ]) ] in
  Alcotest.(check bool) "R5 ok" true
    (Result.is_ok (Run.check_r5 r ~max_consecutive_drops:0))

let run_init_once () =
  let r =
    mk_run 2
      [
        (0, [ (Event.Init (alpha 0 0), 1) ]);
        (1, [ (Event.Init (alpha 0 1), 2) ]);
      ]
  in
  (* p1 "initiating" p0's action a0.1 violates ownership *)
  Alcotest.(check bool) "ownership" true
    (Result.is_error (Run.check_init_once r))

let run_faulty_set () =
  let r =
    mk_run 3
      [ (0, [ (Event.Crash, 4) ]); (1, []); (2, [ (Event.Crash, 2) ]) ]
  in
  Alcotest.(check bool) "F(r)" true
    (Pid.Set.equal (Run.faulty r) (Pid.Set.of_list [ 0; 2 ]));
  Alcotest.(check bool) "crashed_by" true (Run.crashed_by r 2 2);
  Alcotest.(check bool) "not yet" false (Run.crashed_by r 0 3)

(* Every simulator-produced run is well-formed: a broad property over
   random configurations AND random protocols (shared generators in
   {!Helpers}). *)
let sim_runs_well_formed =
  QCheck.Test.make ~name:"simulator output satisfies R1-R5" ~count:30
    QCheck.int64
    (fun seed ->
      let cfg, r = Helpers.random_result seed in
      Result.is_ok
        (Run.check_well_formed r.Sim.run
           ~max_consecutive_drops:cfg.Sim.max_consecutive_drops))

(* Determinism: the same configuration yields the same run. *)
let sim_deterministic () =
  let cfg = Sim.config ~n:4 ~seed:99L in
  let cfg =
    {
      cfg with
      Sim.loss_rate = 0.4;
      fault_plan = Fault_plan.crash_at [ (2, 7) ];
      init_plan = Init_plan.one ~owner:0 ~at:1;
      oracle = Detector.Oracles.perfect ();
    }
  in
  let r1 = Sim.execute_uniform cfg (module Core.Ack_udc.P) in
  let r2 = Sim.execute_uniform cfg (module Core.Ack_udc.P) in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        "same histories" true
        (History.timed_events (Run.history r1.Sim.run p)
        = History.timed_events (Run.history r2.Sim.run p)))
    (Pid.all 4)

(* ---------- Loss schedules (the tick-0 cutover fix) ---------- *)

(* A fixed workload whose only varying inputs are the loss rate and its
   schedule representation. *)
let digest_with ~seed ~loss_rate ~schedule =
  let cfg = Sim.config ~n:5 ~seed in
  let cfg =
    {
      cfg with
      Sim.loss_rate;
      loss_schedule = schedule;
      goal = Sim.Run_to_max;
      max_ticks = 60;
      init_plan = Init_plan.one ~owner:0 ~at:1;
      fault_plan = Fault_plan.crash_at [ (3, 20) ];
      oracle = Detector.Oracles.perfect ();
    }
  in
  let r = Sim.execute_uniform cfg (module Core.Ack_udc.P) in
  Run.digest r.Sim.run

(* A tick-0 (or negative-tick) schedule entry must override the base rate
   before any send is gated — the regression where entries at [tick <= 0]
   were silently skipped and the base rate leaked into the whole run. *)
let schedule_tick0_cutover () =
  Alcotest.(check string) "tick-0 entry overrides base rate"
    (digest_with ~seed:3L ~loss_rate:0.35 ~schedule:[])
    (digest_with ~seed:3L ~loss_rate:0.9 ~schedule:[ (0, 0.35) ]);
  Alcotest.(check string) "negative tick behaves like tick 0"
    (digest_with ~seed:3L ~loss_rate:0.9 ~schedule:[ (0, 0.35) ])
    (digest_with ~seed:3L ~loss_rate:0.9 ~schedule:[ (-4, 0.35) ])

(* Malformed configurations are rejected at construction instead of
   silently producing nonsense: duplicate-tick and unsorted schedules
   (PR 9 fixed a same-tick ambiguity downstream; they are now errors),
   out-of-range or NaN rates, negative fairness bounds, bad ADD params. *)
let config_validation_rejects () =
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  rejects "duplicate tick" (fun () ->
      digest_with ~seed:7L ~loss_rate:0.1
        ~schedule:[ (12, 0.0); (12, 0.95); (12, 0.6) ]);
  rejects "unsorted schedule" (fun () ->
      digest_with ~seed:7L ~loss_rate:0.1 ~schedule:[ (30, 0.2); (12, 0.6) ]);
  rejects "negative loss rate" (fun () ->
      digest_with ~seed:7L ~loss_rate:(-0.1) ~schedule:[]);
  rejects "loss rate above 1" (fun () ->
      digest_with ~seed:7L ~loss_rate:1.5 ~schedule:[]);
  rejects "NaN loss rate" (fun () ->
      digest_with ~seed:7L ~loss_rate:Float.nan ~schedule:[]);
  rejects "bad scheduled rate" (fun () ->
      digest_with ~seed:7L ~loss_rate:0.1 ~schedule:[ (12, 1.5) ]);
  let base = Sim.config ~n:3 ~seed:1L in
  rejects "negative max_consecutive_drops" (fun () ->
      Sim.validate { base with Sim.max_consecutive_drops = -1 });
  rejects "bad link rate" (fun () ->
      Sim.validate { base with Sim.link_loss = [ ((0, 1), 2.0) ] });
  rejects "add window 0" (fun () ->
      Sim.validate
        { base with Sim.add = Some { Channel.window = 0; bound = 8 } });
  rejects "add bound 0" (fun () ->
      Sim.validate
        { base with Sim.add = Some { Channel.window = 4; bound = 0 } });
  (* the legal shapes stay legal *)
  Sim.validate { base with Sim.loss_schedule = [ (-4, 0.1); (0, 0.2) ] };
  Sim.validate
    { base with Sim.add = Some { Channel.window = 1; bound = 1 } }

(* Representation invariance: a constant rate [r] and the schedule
   [[(0, r)]] over a junk base rate describe the same channel, so the run
   is bit-identical either way. *)
let schedule_representation_invariant =
  QCheck.Test.make ~name:"loss schedule [(0,r)] = constant rate r" ~count:40
    QCheck.(pair int64 (float_range 0.0 0.8))
    (fun (seed, r) ->
      digest_with ~seed ~loss_rate:r ~schedule:[]
      = digest_with ~seed ~loss_rate:0.99 ~schedule:[ (0, r) ])

(* A strictly increasing schedule is accepted; any out-of-order listing
   of the same entries is rejected at construction (the cursor used to
   stable-sort silently — order mistakes now surface as errors). *)
let schedule_order_invariant =
  QCheck.Test.make ~name:"unsorted loss schedule rejected" ~count:40
    QCheck.(pair int64 (list_of_size (Gen.int_range 0 6) (float_range 0.0 0.8)))
    (fun (seed, rates) ->
      let sched = List.mapi (fun i r -> ((i * 7) + 2, r)) rates in
      let sorted_ok =
        String.length (digest_with ~seed ~loss_rate:0.2 ~schedule:sched) > 0
      in
      let reversed_rejected =
        List.length sched < 2
        ||
        match digest_with ~seed ~loss_rate:0.2 ~schedule:(List.rev sched) with
        | exception Invalid_argument _ -> true
        | _ -> false
      in
      sorted_ok && reversed_rejected)

(* ---------- Channel state across crashes (S2/S3) ---------- *)

(* Crashing a process must prune its rows from the fairness-drop table:
   under churn the table stays bounded by the live pairs instead of
   growing with every pid that ever existed. *)
let channel_forget_prunes_drops () =
  let always_drop ~now:_ ~src:_ ~dst:_ ~rate:_ = true in
  let ch =
    Channel.create ~n:16 ~decide:always_drop ~loss_rate:1.0
      ~max_consecutive_drops:100 ()
  in
  let m = Message.Coord_request (alpha 0 0, Fact.Set.empty) in
  for round = 0 to 200 do
    let src = round mod 16 and dst = (round + 1) mod 16 in
    ignore (Channel.send ch ~now:round ~src ~dst m)
  done;
  Alcotest.(check bool) "table populated" true
    (Channel.fairness_table_size ch > 0);
  for pid = 0 to 15 do
    Channel.forget ch ~pid
  done;
  Alcotest.(check int) "all rows pruned" 0 (Channel.fairness_table_size ch);
  (* interleaved churn: the table never exceeds the live-pair bound *)
  for round = 0 to 300 do
    let src = round mod 16 and dst = (round + 3) mod 16 in
    ignore (Channel.send ch ~now:round ~src ~dst m);
    if round mod 10 = 9 then Channel.forget ch ~pid:(round mod 16);
    Alcotest.(check bool) "bounded by pairs" true
      (Channel.fairness_table_size ch <= 16 * 16)
  done

(* The sorted-cursor oldest_in_flight must agree with a linear scan in
   both regimes: nondecreasing sends (binary-searched) and out-of-order
   injections (fallback scan). *)
let channel_oldest_in_flight () =
  let keep ~now:_ ~src:_ ~dst:_ ~rate:_ = false in
  let ch =
    Channel.create ~n:4 ~decide:keep ~loss_rate:0.0 ~max_consecutive_drops:4 ()
  in
  let m = Message.Coord_request (alpha 0 0, Fact.Set.empty) in
  Alcotest.(check bool) "empty" true (Channel.oldest_in_flight ch ~dst:1 = None);
  Channel.inject ch ~src:0 ~dst:1 ~sent:5 m;
  Channel.inject ch ~src:2 ~dst:1 ~sent:7 m;
  Channel.inject ch ~src:3 ~dst:1 ~sent:7 m;
  (match Channel.oldest_in_flight ch ~dst:1 with
  | Some (src, _, sent) ->
      Alcotest.(check int) "oldest sent" 5 sent;
      Alcotest.(check int) "oldest src" 0 src
  | None -> Alcotest.fail "expected a message");
  (* deliver the oldest; the next oldest surfaces *)
  Channel.deliver ch ~src:0 ~dst:1 m;
  (match Channel.oldest_in_flight ch ~dst:1 with
  | Some (_, _, sent) -> Alcotest.(check int) "next oldest" 7 sent
  | None -> Alcotest.fail "expected a message");
  (* out-of-order injection (sent below the tail) switches to the scan *)
  Channel.inject ch ~src:0 ~dst:1 ~sent:2 m;
  match Channel.oldest_in_flight ch ~dst:1 with
  | Some (_, _, sent) -> Alcotest.(check int) "unsorted oldest" 2 sent
  | None -> Alcotest.fail "expected a message"

(* Pinned digest: a fixed-seed reference run. Any change to the channel
   internals, the loss-schedule cursor, or the scheduler that shifts
   observable behavior shows up here as a digest mismatch. *)
let sim_pinned_digest () =
  Alcotest.(check string) "reference digest"
    "7f1a31145dd8ebf8f291a10dd476ff6d"
    (digest_with ~seed:2026L ~loss_rate:0.3 ~schedule:[ (15, 0.05); (30, 0.6) ])

(* A crash the decision source grants consumes the victim's planned fault:
   the run goes quiescent at the same tick as when the plan itself crashes
   the victim there, instead of waiting forever on an [At] entry for a
   process that is already dead. *)
let decision_crash_consumes_fault () =
  let run ~at =
    let cfg =
      {
        (Sim.config ~n:2 ~seed:1L) with
        Sim.goal = Sim.Run_to_max;
        max_ticks = 100;
        crash_budget = 1;
        fault_plan = Fault_plan.crash_at [ (0, at) ];
      }
    in
    (* decision 0 is tick 1's slot order, decision 1 pid 0's crash query *)
    let decisions = Decision.scripted ~plan:[ (1, Decision.Crash true) ] () in
    let r = Sim.execute_uniform ~decisions cfg (module Core.Reliable_udc.P) in
    (r.Sim.reason, Run.horizon r.Sim.run)
  in
  List.iter
    (fun at ->
      let reason, horizon = run ~at in
      Alcotest.(check string)
        (Printf.sprintf "fault at %d: stop reason" at)
        "quiescent"
        (Format.asprintf "%a" Sim.pp_stop_reason reason);
      Alcotest.(check int) (Printf.sprintf "fault at %d: horizon" at) 1 horizon)
    [ 1; 50 ]

(* ---------- ADD channels ---------- *)

(* The per-link loss window: under an always-drop decision source an ADD
   channel still delivers at least one of every [window] consecutive
   sends on a link, while the plain channel (huge fairness bound, varied
   message contents so no fairness class accumulates) drops them all. *)
let channel_add_window () =
  let always_drop ~now:_ ~src:_ ~dst:_ ~rate:_ = true in
  let msgs = [| Message.Heartbeat 1; Message.Heartbeat 2; Message.Heartbeat 3 |] in
  let sends = 30 and window = 4 in
  let count_kept ch =
    let kept = ref 0 in
    for i = 0 to sends - 1 do
      match
        Channel.send ch ~now:i ~src:0 ~dst:1 msgs.(i mod Array.length msgs)
      with
      | `Kept -> incr kept
      | `Dropped -> ()
    done;
    !kept
  in
  let plain =
    Channel.create ~n:2 ~decide:always_drop ~loss_rate:1.0
      ~max_consecutive_drops:1000 ()
  in
  Alcotest.(check int) "plain channel loses everything" 0 (count_kept plain);
  let add_ch =
    Channel.create ~n:2 ~decide:always_drop ~loss_rate:1.0
      ~max_consecutive_drops:1000
      ~add:{ Channel.window; bound = 8 }
      ()
  in
  (* exactly one forced keep per window of [window] sends *)
  Alcotest.(check int) "one keep per window" (sends / window)
    (count_kept add_ch)

(* An ADD simulation run: well-formed, record/replay digest-strict, and
   the regime genuinely changes behaviour relative to the same seed
   without [add]. *)
let sim_add_regime () =
  let cfg ~add =
    let c = Sim.config ~n:5 ~seed:2027L in
    {
      c with
      Sim.loss_rate = 0.45;
      add;
      goal = Sim.Run_to_max;
      max_ticks = 60;
      init_plan = Init_plan.one ~owner:0 ~at:1;
      fault_plan = Fault_plan.crash_at [ (3, 20) ];
      oracle = Detector.Oracles.perfect ();
    }
  in
  let add = Some { Channel.window = 3; bound = 8 } in
  let mk p = Protocol.make (module Core.Ack_udc.P) ~n:5 ~me:p in
  let res, trace = Sim.record (cfg ~add) mk in
  Alcotest.(check bool) "well-formed" true
    (Result.is_ok (Run.check_well_formed res.Sim.run ~max_consecutive_drops:8));
  let replayed = Sim.replay ~trace (cfg ~add) mk in
  Alcotest.(check string) "replay digest-strict"
    (Run.digest res.Sim.run)
    (Run.digest replayed.Sim.run);
  let plain = Sim.execute (cfg ~add:None) mk in
  Alcotest.(check bool) "ADD changes the run" true
    (Run.digest res.Sim.run <> Run.digest plain.Sim.run);
  (* the delay bound holds observably: no Recv arrives more than [bound]
     ticks after a send of the same message could have been in flight —
     checked indirectly via the channel invariant that every in-flight
     message of age >= bound is delivered before any coin is consulted;
     here we assert the run still satisfies R1-R5 under the forced
     deliveries (no phantom or early receives). *)
  Alcotest.(check bool) "replay well-formed" true
    (Result.is_ok
       (Run.check_well_formed replayed.Sim.run ~max_consecutive_drops:8))

let qsuite = List.map QCheck_alcotest.to_alcotest
  [
    prng_int_bounds;
    prng_float_bounds;
    prng_shuffle_permutes;
    channel_bounded_unfairness;
    r3_cursor_matches_reference;
    sim_runs_well_formed;
    schedule_representation_invariant;
    schedule_order_invariant;
  ]

let suite =
  [
    Alcotest.test_case "prng: deterministic" `Quick prng_deterministic;
    Alcotest.test_case "prng: split independent" `Quick prng_split_independent;
    Alcotest.test_case "history: append/R2" `Quick history_append_order;
    Alcotest.test_case "history: crash final (R4)" `Quick history_crash_is_final;
    Alcotest.test_case "history: cut prefixes" `Quick history_prefix;
    Alcotest.test_case "history: tick-insensitive equality" `Quick
      history_equal_ignores_ticks;
    Alcotest.test_case "history: hash covers all events" `Quick
      history_hash_covers_all_events;
    Alcotest.test_case "outbox: one-shot FIFO" `Quick outbox_fifo;
    Alcotest.test_case "outbox: recurring pacing" `Quick outbox_recurring_paced;
    Alcotest.test_case "outbox: one-shots first" `Quick outbox_oneshot_priority;
    Alcotest.test_case "outbox: recurring replacement" `Quick
      outbox_replace_recurring;
    Alcotest.test_case "channel: lossless delivery" `Quick
      channel_lossless_delivers;
    Alcotest.test_case "channel: per-link override" `Quick channel_link_override;
    Alcotest.test_case "run: R3 phantom receive" `Quick
      run_r3_detects_phantom_recv;
    Alcotest.test_case "run: R3 matched" `Quick run_r3_accepts_matched;
    Alcotest.test_case "run: R3 multiplicity" `Quick run_r3_multiplicity;
    Alcotest.test_case "run: R3 early receive" `Quick run_r3_rejects_early_recv;
    Alcotest.test_case "run: R5 early receive then silence" `Quick
      run_r5_early_receive_then_silence;
    Alcotest.test_case "run: R5 bounded tail tolerated" `Quick
      run_r5_tolerates_bounded_tail;
    Alcotest.test_case "run: R5 late receive answers all" `Quick
      run_r5_late_receive_answers_all;
    Alcotest.test_case "run: R5 crashed receiver exempt" `Quick
      run_r5_crashed_receiver_exempt;
    Alcotest.test_case "run: init ownership" `Quick run_init_once;
    Alcotest.test_case "run: faulty set" `Quick run_faulty_set;
    Alcotest.test_case "sim: deterministic" `Quick sim_deterministic;
    Alcotest.test_case "loss schedule: tick-0 cutover" `Quick
      schedule_tick0_cutover;
    Alcotest.test_case "sim: config validation" `Quick config_validation_rejects;
    Alcotest.test_case "channel: ADD loss window" `Quick channel_add_window;
    Alcotest.test_case "sim: ADD regime record/replay" `Quick sim_add_regime;
    Alcotest.test_case "channel: crash prunes drop rows" `Quick
      channel_forget_prunes_drops;
    Alcotest.test_case "channel: oldest in flight" `Quick
      channel_oldest_in_flight;
    Alcotest.test_case "sim: pinned reference digest" `Quick sim_pinned_digest;
    Alcotest.test_case "sim: decision crash consumes planned fault" `Quick
      decision_crash_consumes_fault;
  ]
  @ qsuite
