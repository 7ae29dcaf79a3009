(* Differential tests of the flat struct-of-arrays history against the
   legacy cons-list implementation ({!History_reference}), plus pinned
   run digests for the whole sim -> run -> digest pipeline. *)

let alpha owner tag = Action_id.make ~owner ~tag

(* A raw script is a list of (event code, tick gap >= 1); [build_script]
   turns it into a valid timed event sequence: ticks strictly increasing
   (R2) and nothing after a Crash (R4). *)
let event_of = function
  | 0 -> Event.Init (alpha 0 0)
  | 1 -> Event.Do (alpha 0 1)
  | 2 -> Event.Send { dst = 1; msg = Message.Heartbeat 3 }
  | 3 ->
      Event.Recv { src = 2; msg = Message.Coord_request (alpha 1 0, Fact.Set.empty) }
  | 4 -> Event.Suspect (Report.std (Pid.Set.of_list [ 1; 2 ]))
  | _ -> Event.Crash

let build_script codes =
  let rec go tick acc = function
    | [] -> List.rev acc
    | (c, gap) :: rest ->
        let e = event_of c in
        let tick = tick + gap in
        let acc = (e, tick) :: acc in
        if Event.is_crash e then List.rev acc else go tick acc rest
  in
  go 0 [] codes

let flat_of script =
  List.fold_left (fun h (e, tick) -> History.append h e ~tick) History.empty
    script

let ref_of script =
  List.fold_left
    (fun h (e, tick) -> History_reference.append h e ~tick)
    History_reference.empty script

(* The positional reads agree with the reference's chronological list,
   and reject every index outside [0, length). *)
let positional_reads_match h timed =
  let out_of_bounds read i =
    match read h i with _ -> false | exception Invalid_argument _ -> true
  in
  List.for_all2
    (fun i (e, tick) ->
      Event.equal (History.event h i) e && Int.equal (History.tick h i) tick)
    (List.init (List.length timed) Fun.id)
    timed
  && List.for_all
       (fun i -> out_of_bounds History.event i && out_of_bounds History.tick i)
       [ -1; History.length h ]

let raw_script =
  QCheck.(list_of_size Gen.(int_range 0 40) (pair (int_range 0 5) (int_range 1 3)))

(* Every accessor of the flat implementation agrees with the legacy one,
   on the full history and on every prefix cut (a cut shares its parent's
   arrays, so its positional reads must stop at the cut). *)
let flat_matches_reference =
  QCheck.Test.make ~name:"flat history = legacy Reference (differential)"
    ~count:300 raw_script (fun codes ->
      let script = build_script codes in
      let f = flat_of script and r = ref_of script in
      let max_tick = List.fold_left (fun a (_, t) -> max a t) 0 script in
      History.length f = History_reference.length r
      && History.is_crashed f = History_reference.is_crashed r
      && History.events f = History_reference.events r
      && History.timed_events f = History_reference.timed_events r
      && positional_reads_match f (History_reference.timed_events r)
      && History.last f = History_reference.last r
      && History.last_tick f = History_reference.last_tick r
      && History.hash_timed_events f = History_reference.hash_timed_events r
      && List.for_all
           (fun m ->
             let pf = History.prefix_upto f m
             and pr = History_reference.prefix_upto r m in
             History.timed_events pf = History_reference.timed_events pr
             && positional_reads_match pf (History_reference.timed_events pr)
             && History.hash_timed_events pf
                = History_reference.hash_timed_events pr)
           (List.init (max_tick + 2) Fun.id))

(* The two-history comparison agrees as well (including pairs that share
   event sequences but differ in ticks). *)
let equality_matches_reference =
  QCheck.Test.make ~name:"equal_timed agrees with Reference" ~count:300
    QCheck.(pair raw_script raw_script)
    (fun (c1, c2) ->
      let s1 = build_script c1 and s2 = build_script c2 in
      History.equal_timed (flat_of s1) (flat_of s2)
      = History_reference.equal_timed (ref_of s1) (ref_of s2))

(* The mutable builder and the functional append construct the same
   history, hash included, on every prefix cut. *)
let builder_matches_functional =
  QCheck.Test.make ~name:"Builder.seal = functional append" ~count:300
    raw_script (fun codes ->
      let script = build_script codes in
      let f = flat_of script in
      let b = History.Builder.fresh () in
      List.iter (fun (e, tick) -> History.Builder.append b e ~tick) script;
      let sealed = History.Builder.seal b in
      let max_tick = List.fold_left (fun a (_, t) -> max a t) 0 script in
      let same h g =
        History.equal_timed h g
        && History.hash_timed_events h = History.hash_timed_events g
      in
      same sealed f
      && List.for_all
           (fun m ->
             same (History.prefix_upto sealed m) (History.prefix_upto f m))
           (List.init (max_tick + 2) Fun.id))

(* Run digests of fixed simulations. The first five runs were pinned
   under the legacy cons-list representation, before the flattening, and
   re-pinned once when the digest became structural, with every run's
   printed form unchanged. [Run.digest] depends on structure alone, so
   these pin exactly the runs: any change to what the simulator, an
   oracle or a protocol records shows up here, and nothing about how it
   is stored. *)
let pinned_digests () =
  let ack = (module Core.Ack_udc.P : Protocol.S) in
  let digest ~proto ~n ~t ~loss ~oracle seed =
    let prng = Prng.create seed in
    let cfg = Sim.config ~n ~seed in
    let cfg =
      {
        cfg with
        Sim.loss_rate = loss;
        oracle;
        fault_plan = Fault_plan.random prng ~n ~t ~max_tick:25;
        init_plan = Init_plan.staggered ~n ~actions_per_process:1 ~spacing:3;
        max_ticks = 4000;
      }
    in
    Run.digest (Sim.execute_uniform cfg proto).Sim.run
  in
  Alcotest.(check string)
    "perfect oracle, seed 31" "c2ffa8ead06a39c3c6f6834355bcac46"
    (digest ~proto:ack ~n:6 ~t:2 ~loss:0.3
       ~oracle:(Detector.Oracles.perfect ()) 31L);
  Alcotest.(check string)
    "perfect oracle, seed 104760" "876f719b378f13234c9dcdb568ed030e"
    (digest ~proto:ack ~n:6 ~t:2 ~loss:0.3
       ~oracle:(Detector.Oracles.perfect ()) 104760L);
  Alcotest.(check string)
    "no oracle, seed 42" "b9e133331b0ab79cc5fcb59facdf4059"
    (digest ~proto:ack ~n:3 ~t:0 ~loss:0.0 ~oracle:Oracle.none 42L);
  Alcotest.(check string)
    "eventually-perfect oracle, seed 7" "b3225042a95c44fce1b8df6dfea3ca7b"
    (digest ~proto:ack ~n:4 ~t:1 ~loss:0.6
       ~oracle:(Detector.Oracles.eventually_perfect ~stabilize_at:40 ~seed:7L ())
       7L);
  (* The other acknowledgement-based protocols, each with the detector
     its discharge rule reads. *)
  Alcotest.(check string)
    "quiet ack protocol, perfect oracle, seed 13"
    "12f10fbc3b7f3bda19aa8303ffdd40cf"
    (digest ~proto:(module Core.Ack_udc.Quiet) ~n:6 ~t:2 ~loss:0.3
       ~oracle:(Detector.Oracles.perfect ()) 13L);
  Alcotest.(check string)
    "theta protocol, rotating oracle, seed 39"
    "76b0d09319561642b7eeb69dff3036f5"
    (digest ~proto:(module Core.Theta_udc.P) ~n:5 ~t:2 ~loss:0.3
       ~oracle:(Detector.Theta.rotating ()) 39L);
  Alcotest.(check string)
    "majority protocol t=2, no oracle, seed 39"
    "bdc2df369650e13bdbca761d9838cf1f"
    (digest ~proto:(Core.Majority_udc.make ~t:2) ~n:5 ~t:2 ~loss:0.3
       ~oracle:Oracle.none 39L);
  Alcotest.(check string)
    "generalized protocol t=3, exact oracle, seed 39"
    "b2b1b6bd9da44d5e14e42bfc8bfea535"
    (digest ~proto:(Core.Generalized_udc.make ~t:3) ~n:6 ~t:3 ~loss:0.3
       ~oracle:(Detector.Oracles.gen_exact ()) 39L);
  (* The gossip conversions of Propositions 2.1 and 2.2 over nUDC: the
     cumulative one under an accumulated impermanent-weak oracle, and
     the current-suspicion one under an eventually-weak oracle. *)
  Alcotest.(check string)
    "cumulative gossip, accumulated impermanent-weak oracle, seed 17"
    "bfab0f2e32474f71b06ed6d0bbe44216"
    (digest
       ~proto:(module Detector.Convert.With_gossip (Core.Nudc.P))
       ~n:6 ~t:2 ~loss:0.25
       ~oracle:
         (Detector.Oracles.accumulate (Detector.Oracles.impermanent_weak ()))
       17L);
  Alcotest.(check string)
    "current gossip, eventually-weak oracle, seed 17"
    "dabdccc9431007fdc053d1d164e7efda"
    (digest
       ~proto:(module Detector.Convert.With_gossip_current (Core.Nudc.P))
       ~n:6 ~t:2 ~loss:0.25
       ~oracle:
         (Detector.Oracles.eventually_weak ~stabilize_at:80 ~seed:17L ())
       17L);
  let cfg = Sim.config ~n:5 ~seed:11L in
  let cfg =
    {
      cfg with
      Sim.loss_rate = 0.2;
      max_ticks = 600;
      Sim.goal = Sim.Run_to_max;
      init_plan = Init_plan.one ~owner:0 ~at:1;
    }
  in
  Alcotest.(check string)
    "heartbeat protocol, seed 11" "77aa9d8b7d15fc9e07bd87a4542b83aa"
    (Run.digest
       (Sim.execute_uniform cfg (module Core.Heartbeat_nudc.P)).Sim.run);
  (* The full-mesh detector backends, each through its own oracle, on a
     lossy run with one crash; the count of suspicion changes shows what
     each core reported. *)
  let backend label =
    let pair = (Option.get (Detector.Backends.of_label label)) ~n:5 in
    let cfg = Sim.config ~n:5 ~seed:2026L in
    let cfg =
      {
        cfg with
        Sim.loss_rate = 0.3;
        oracle = pair.Detector.Backends.oracle;
        fault_plan = Fault_plan.crash_at [ (2, 50) ];
        goal = Sim.Run_to_max;
        max_ticks = 200;
      }
    in
    let run = (Sim.execute cfg pair.Detector.Backends.protocol).Sim.run in
    let changes =
      List.fold_left
        (fun acc p -> acc + List.length (Detector.Spec.event_timeline run p))
        0 (Pid.all 5)
    in
    (Run.digest run, changes)
  in
  List.iter
    (fun (label, digest, changes) ->
      Alcotest.(check (pair string int))
        (label ^ " backend, seed 2026")
        (digest, changes) (backend label))
    [
      ("phi", "d8376e3524f9fae8f1303d01a23be89e", 29);
      ("swim", "c09661d11d7867ebe406ad5fbb5d7c03", 18);
      ("gossip", "fe81b4214466cb6aae436fe3b6e4369c", 4);
    ]

(* ---------- The run digest depends only on structure ---------- *)

(* A copy of [run] that shares nothing with it: every event, action id,
   fact and list is a fresh allocation, and every [Pid.Set]/[Fact.Set]
   payload is rebuilt in reverse insertion order (largest element first),
   so it is an equal set with its own tree. *)
let rebuilt run =
  let pids s =
    List.fold_right Pid.Set.add (Pid.Set.elements s) Pid.Set.empty
  in
  let action a =
    Action_id.make ~owner:(Action_id.owner a) ~tag:(Action_id.tag a)
  in
  let fact = function
    | Fact.Inited a -> Fact.Inited (action a)
    | Fact.Did (p, a) -> Fact.Did (p, action a)
    | Fact.Crashed p -> Fact.Crashed p
  in
  let facts f =
    List.fold_right
      (fun x acc -> Fact.Set.add (fact x) acc)
      (Fact.Set.elements f) Fact.Set.empty
  in
  let message = function
    | Message.Coord_request (a, f) -> Message.Coord_request (action a, facts f)
    | Message.Coord_ack (a, f) -> Message.Coord_ack (action a, facts f)
    | Message.Gossip s -> Message.Gossip (pids s)
    | Message.Heartbeat seq -> Message.Heartbeat seq
    | Message.Cons_estimate { round; value; ts } ->
        Message.Cons_estimate { round; value; ts }
    | Message.Cons_propose { round; value } ->
        Message.Cons_propose { round; value }
    | Message.Cons_ack { round; ok } -> Message.Cons_ack { round; ok }
    | Message.Cons_decide { value } -> Message.Cons_decide { value }
    | Message.Swim_ping { origin; seq } -> Message.Swim_ping { origin; seq }
    | Message.Swim_ack { origin; seq } -> Message.Swim_ack { origin; seq }
    | Message.Swim_ping_req { target; seq } ->
        Message.Swim_ping_req { target; seq }
    | Message.Gossip_counters l ->
        Message.Gossip_counters (List.map (fun (p, c) -> (p, c)) l)
  in
  let report = function
    | Report.Std s -> Report.Std (pids s)
    | Report.Gen (s, k) -> Report.Gen (pids s, k)
    | Report.Correct_set c -> Report.Correct_set (pids c)
  in
  let event = function
    | Event.Send { dst; msg } -> Event.Send { dst; msg = message msg }
    | Event.Recv { src; msg } -> Event.Recv { src; msg = message msg }
    | Event.Do a -> Event.Do (action a)
    | Event.Init a -> Event.Init (action a)
    | Event.Crash -> Event.Crash
    | Event.Suspect r -> Event.Suspect (report r)
  in
  let history p =
    let b = History.Builder.fresh () in
    History.iter
      (fun e ~tick -> History.Builder.append b (event e) ~tick)
      (Run.history run p);
    History.Builder.seal b
  in
  Run.make ~n:(Run.n run) ~horizon:(Run.horizon run)
    (Array.init (Run.n run) history)

(* Runs from the run-index generator (plain, full-information and
   gossip-converted protocols, so set payloads occur) and small sharded
   runs of the ring backends. *)
type source = Simulated of int | Sharded of int * Test_scale.case

let source_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Simulated s) (int_range 0 1000);
        map2 (fun k c -> Sharded (k, c)) (int_range 1 3) Test_scale.case_gen;
      ])

let show_source = function
  | Simulated s -> Printf.sprintf "random_run %d" s
  | Sharded (k, c) -> Printf.sprintf "shards=%d %s" k (Test_scale.show_case c)

let run_of = function
  | Simulated s -> Test_run_index.random_run s
  | Sharded (shards, c) ->
      let cfg, proto = Test_scale.build c in
      (Scale.Shard.execute ~shards cfg proto).Sim.run

let digest_ignores_shape =
  QCheck.Test.make ~name:"run digest ignores set shape and sharing" ~count:120
    (QCheck.make ~print:show_source source_gen)
    (fun src ->
      let run = run_of src in
      let copy = rebuilt run in
      Run.equal run copy && String.equal (Run.digest run) (Run.digest copy))

(* [run] with its first non-empty history one event shorter. *)
let drop_last run =
  let n = Run.n run in
  let hists = Array.init n (Run.history run) in
  (match List.find_opt (fun p -> History.length hists.(p) > 0) (Pid.all n) with
  | None -> ()
  | Some p ->
      let events = History.timed_events hists.(p) in
      hists.(p) <-
        List.fold_left
          (fun h (e, tick) -> History.append h e ~tick)
          History.empty
          (List.filteri (fun i _ -> i < List.length events - 1) events));
  Run.make ~n ~horizon:(Run.horizon run) hists

type variant = Same | Drop_last | Longer_horizon

(* Seeds from a small range, so equal runs occur, plus near misses: one
   event fewer, or the same histories over a longer horizon. *)
let digest_iff_equal =
  QCheck.Test.make ~name:"equal digests iff Run.equal" ~count:150
    QCheck.(
      triple (int_range 0 7) (int_range 0 7)
        (make Gen.(oneofl [ Same; Same; Drop_last; Longer_horizon ])))
    (fun (s1, s2, variant) ->
      let a = Test_run_index.random_run s1 in
      let b = Test_run_index.random_run s2 in
      let b =
        match variant with
        | Same -> b
        | Drop_last -> drop_last b
        | Longer_horizon ->
            Run.make ~n:(Run.n b) ~horizon:(Run.horizon b + 1)
              (Array.init (Run.n b) (Run.history b))
      in
      Bool.equal (Run.equal a b) (String.equal (Run.digest a) (Run.digest b)))

(* Why the digest is not a fold of [History.hash_timed_events]:
   [Fnv.mix 1 1 = Fnv.mix 2 2 = 0], so [send(p1,hb(1))] and
   [recv(p2,hb(1))] hash alike, and two one-event runs that differ only
   there share every per-history hash. A receive from the send's own
   peer differs from it only in the constructor, which the digest must
   see too. *)
let digest_separates_thash_collision () =
  let one e =
    Run.make ~n:3 ~horizon:4
      [| History.append History.empty e ~tick:4; History.empty; History.empty |]
  in
  let send = one (Event.Send { dst = 1; msg = Message.Heartbeat 1 }) in
  let recv = one (Event.Recv { src = 2; msg = Message.Heartbeat 1 }) in
  let recv_from_peer =
    one (Event.Recv { src = 1; msg = Message.Heartbeat 1 })
  in
  Alcotest.(check int)
    "per-history timed hashes collide"
    (History.hash_timed_events (Run.history send 0))
    (History.hash_timed_events (Run.history recv 0));
  Alcotest.(check bool) "runs differ" false (Run.equal send recv);
  Alcotest.(check bool)
    "digests differ" false
    (String.equal (Run.digest send) (Run.digest recv));
  Alcotest.(check bool)
    "send and receive differ" false
    (String.equal (Run.digest send) (Run.digest recv_from_peer))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      flat_matches_reference; equality_matches_reference;
      builder_matches_functional; digest_ignores_shape; digest_iff_equal;
    ]

let suite =
  [
    Alcotest.test_case "run digests pinned to legacy representation" `Quick
      pinned_digests;
    Alcotest.test_case "digest separates a per-history hash collision" `Quick
      digest_separates_thash_collision;
  ]
  @ qsuite
