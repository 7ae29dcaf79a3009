(* The schedule explorer: decision traces, record/replay, systematic
   search, shrinking, and repro files.

   The load-bearing claims: (1) a recorded trace replays bit-identically,
   sequentially and on the domain pool; (2) the explorer rediscovers every
   adversary scenario's violation from the specification alone, without
   the hand-built schedule; (3) the shrunk counterexample still violates
   the same expectation and never has more decisions than the witness;
   (4) protocols that are correct in the explored regime come back
   [Exhausted] — the bounded space is certified clean. *)

(* ---------- Decision sources ---------- *)

let scripted_defaults () =
  let s = Decision.scripted () in
  let a = [| 0; 1; 2; 3 |] in
  Decision.order s ~tick:1 a;
  Alcotest.(check (array int)) "identity order" [| 0; 1; 2; 3 |] a;
  Alcotest.(check bool)
    "deliver" true
    (Decision.deliver s ~tick:1 ~dst:0 ~backlog:2 ~p:0.5);
  Alcotest.(check int)
    "pick head" 0
    (Decision.pick s ~tick:1 ~dst:0 ~keys:(fun () -> [| 7; 8 |]) ~arity:2);
  Alcotest.(check bool)
    "no drop" false
    (Decision.drop s ~tick:1 ~src:0 ~dst:1 ~rate:0.9);
  Alcotest.(check bool)
    "no crash" false
    (Decision.crash s ~tick:1 ~pid:0 ~events:3);
  Alcotest.(check int)
    "no suspicion" 0
    (Decision.suspect s ~tick:1 ~pid:0 ~arity:5)

let scripted_plan_and_silence () =
  (* decision index 1 is overridden; the silenced link drops forever *)
  let s =
    Decision.scripted
      ~plan:[ (1, Decision.Crash true) ]
      ~silence:[ (0, 2) ] ()
  in
  Alcotest.(check bool)
    "index 0: default" false
    (Decision.crash s ~tick:1 ~pid:0 ~events:0);
  Alcotest.(check bool)
    "index 1: planned" true
    (Decision.crash s ~tick:1 ~pid:1 ~events:0);
  Alcotest.(check bool)
    "silenced link drops" true
    (Decision.drop s ~tick:2 ~src:0 ~dst:2 ~rate:0.0);
  Alcotest.(check bool)
    "other link keeps" false
    (Decision.drop s ~tick:2 ~src:2 ~dst:0 ~rate:1.0)

let sticky_drops () =
  let s = Decision.scripted ~plan:[ (0, Decision.Drop true) ] () in
  Alcotest.(check bool)
    "planned drop" true
    (Decision.drop s ~tick:1 ~src:1 ~dst:0 ~rate:0.0);
  Alcotest.(check bool)
    "link now silenced" true
    (Decision.drop s ~tick:5 ~src:1 ~dst:0 ~rate:0.0);
  Alcotest.(check bool)
    "other link unaffected" false
    (Decision.drop s ~tick:5 ~src:0 ~dst:1 ~rate:0.0)

(* The plan is read in decision order whatever order it is given in; a
   repeated index takes its later entry; a negative index is never
   taken; and an entry whose index a silenced link answers is skipped,
   not taken by the next decision. *)
let scripted_plan_semantics () =
  let crashes plan =
    let s = Decision.scripted ~plan () in
    List.init 4 (fun pid -> Decision.crash s ~tick:1 ~pid ~events:0)
  in
  Alcotest.(check (list bool))
    "out of order" [ true; false; true; false ]
    (crashes [ (2, Decision.Crash true); (0, Decision.Crash true) ]);
  Alcotest.(check (list bool))
    "later entry wins" [ true; false; false; false ]
    (crashes
       [
         (1, Decision.Crash true);
         (0, Decision.Crash false);
         (1, Decision.Crash false);
         (0, Decision.Crash true);
       ]);
  Alcotest.(check (list bool))
    "negative index" [ false; false; false; false ]
    (crashes [ (-1, Decision.Crash true) ]);
  let s =
    Decision.scripted ~plan:[ (0, Decision.Drop true) ] ~silence:[ (0, 1) ] ()
  in
  Alcotest.(check bool)
    "silenced link answers index 0" true
    (Decision.drop s ~tick:1 ~src:0 ~dst:1 ~rate:0.0);
  Alcotest.(check bool)
    "index 1 keeps its default" false
    (Decision.drop s ~tick:1 ~src:1 ~dst:0 ~rate:0.0);
  Alcotest.(check bool)
    "and its link stays open" false
    (Decision.drop s ~tick:2 ~src:1 ~dst:0 ~rate:0.0)

let trace_roundtrip =
  QCheck.Test.make ~name:"trace serialization round-trips" ~count:20
    QCheck.int64
    (fun seed ->
      let _, proto, cfg = Helpers.random_setup ~max_ticks:200 seed in
      let _, trace =
        Sim.record cfg (fun p -> Protocol.make proto ~n:cfg.Sim.n ~me:p)
      in
      match Decision.trace_of_string (Decision.trace_to_string trace) with
      | Ok tr -> List.equal Decision.equal tr trace
      | Error _ -> false)

let replay_divergence () =
  (* a trace from one run fed to a structurally different query stream *)
  let s = Decision.replay [ Decision.Deliver true ] in
  Alcotest.check_raises "kind mismatch raises"
    (Decision.Divergence
       "decision #0: trace has deliver(true) where the run asks for crash")
    (fun () -> ignore (Decision.crash s ~tick:1 ~pid:0 ~events:0))

let guided_fallback () =
  (* guided sources downgrade to defaults at the first mismatch instead
     of raising *)
  let s = Decision.guided [ Decision.Deliver true; Decision.Crash true ] in
  Alcotest.(check bool)
    "follows while aligned" true
    (Decision.deliver s ~tick:1 ~dst:0 ~backlog:1 ~p:0.5);
  Alcotest.(check bool)
    "diverges silently" false
    (Decision.drop s ~tick:1 ~src:0 ~dst:1 ~rate:0.9);
  Alcotest.(check bool)
    "stays on defaults" false
    (Decision.crash s ~tick:2 ~pid:0 ~events:1)

(* ---------- record / replay differential (random workloads) ---------- *)

(* [random_setup] is re-invoked per execution: oracles are stateful, so a
   config (and its oracle) must be freshly built for every run — sharing
   one across executions or domains would race on the oracle state. *)
let fresh_setup seed () =
  let _, proto, cfg = Helpers.random_setup ~max_ticks:400 seed in
  let mk p = Protocol.make proto ~n:cfg.Sim.n ~me:p in
  (cfg, mk)

let record_replay_digest =
  QCheck.Test.make ~name:"Sim.replay (Sim.record cfg) is bit-identical"
    ~count:15 QCheck.int64
    (fun seed ->
      let cfg, mk = fresh_setup seed () in
      let result, trace = Sim.record cfg mk in
      let digest = Run.digest result.Sim.run in
      (* sequentially, and on a 4-domain ensemble: all replays agree *)
      let replays =
        Ensemble.map ~domains:4
          (fun () ->
            let cfg, mk = fresh_setup seed () in
            Run.digest (Sim.replay ~trace cfg mk).Sim.run)
          [ (); (); (); () ]
      in
      List.for_all (String.equal digest) replays)

let record_matches_plain_execute () =
  (* recording is an observer: the run is the one execute produces *)
  let cfg, mk = fresh_setup 7L () in
  let plain = Sim.execute cfg mk in
  let cfg, mk = fresh_setup 7L () in
  let recorded, _ = Sim.record cfg mk in
  Alcotest.(check string)
    "same digest"
    (Run.digest plain.Sim.run)
    (Run.digest recorded.Sim.run)

(* ---------- leaves run without a journal ---------- *)

(* A non-recording run is the run a recording source makes: same run
   digest, same decision count, same verdict. Only its trace and journal
   are empty. *)
let unrecorded_run_matches =
  let decision =
    QCheck.Gen.(
      oneof
        [
          map (fun b -> Decision.Deliver b) bool;
          map (fun k -> Decision.Pick k) (int_range 0 3);
          map (fun b -> Decision.Drop b) bool;
          map (fun b -> Decision.Crash b) bool;
          return (Decision.Order [| 3; 2; 1; 0 |]);
        ])
  in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 4) (pair (int_range (-2) 300) decision))
        (list_size (int_range 0 2) (pair (int_range 0 3) (int_range 0 3))))
  in
  let print (plan, silence) =
    Format.asprintf "plan [%a] silence [%a]"
      (Format.pp_print_list (fun ppf (i, d) ->
           Format.fprintf ppf "%a@@%d;" Decision.pp d i))
      plan
      (Format.pp_print_list (fun ppf (s, d) ->
           Format.fprintf ppf "%d->%d;" s d))
      silence
  in
  QCheck.Test.make ~name:"Problem.run ~record:false is the recorded run"
    ~count:50 (QCheck.make ~print gen) (fun (plan, silence) ->
      (* perf P9's heartbeat problem *)
      let problem =
        Helpers.clean_problem ~seed:11L ~crash_budget:2
          ~protocol_label:"heartbeat" ~max_ticks:60 Explore.Property.Dc3
      in
      let recorded, rs = Explore.Problem.run problem ~plan ~silence in
      let bare, bs = Explore.Problem.run problem ~record:false ~plan ~silence in
      Run.digest recorded.Sim.run = Run.digest bare.Sim.run
      && Decision.count rs = Decision.count bs
      && Decision.count rs = List.length (Decision.trace rs)
      && Explore.Problem.violation problem recorded
         = Explore.Problem.violation problem bare
      && Decision.trace bs = []
      && Decision.journal bs = [||])

(* ---------- scenario rediscovery + shrinking ---------- *)

let scenarios =
  [
    ("solo", false, fun () -> Core.Adversary.solo_performer ~n:4 ~seed:42L);
    ( "confined",
      true,
      fun () -> Core.Adversary.confined_clique ~n:4 ~t:2 ~seed:42L );
    ("lying", true, fun () -> Core.Adversary.lying_detector ~n:4 ~seed:42L);
    ("blind", true, fun () -> Core.Adversary.blind_detector ~n:4 ~seed:42L);
  ]

let rediscover (name, strict_shrink, mk) () =
  let s = mk () in
  let problem = Explore.Problem.of_scenario s in
  match Explore.Engine.search problem with
  | Explore.Engine.Exhausted _, _ | Explore.Engine.Budget _, _ ->
      Alcotest.failf "%s: explorer found no violation" name
  | Explore.Engine.Violation (w, stats), _ ->
      Alcotest.(check bool)
        "some runs explored" true
        (stats.Explore.Engine.explored > 0);
      (* the witness trace replays to the same violating run *)
      let replayed = Explore.Problem.replay problem ~trace:w.Explore.Engine.trace in
      Alcotest.(check string)
        "witness trace replays"
        (Run.digest w.Explore.Engine.result.Sim.run)
        (Run.digest replayed.Sim.run);
      (* shrinking preserves the violated expectation *)
      let shrunk = Explore.Shrink.minimize problem w in
      Helpers.check_ok "shrunk run still exhibits the expectation"
        (Result.map (fun _ -> ())
           (Core.Adversary.check_expectation s.Core.Adversary.expectation
              shrunk.Explore.Shrink.result.Sim.run));
      let witness_decisions = List.length w.Explore.Engine.trace in
      if strict_shrink then
        Alcotest.(check bool)
          (Printf.sprintf "strictly fewer decisions (%d < %d)"
             shrunk.Explore.Shrink.decisions witness_decisions)
          true
          (shrunk.Explore.Shrink.decisions < witness_decisions)
      else
        (* the solo witness is already minimal: BFS found it at depth 1
           and the violating run quiesces by itself *)
        Alcotest.(check bool)
          "no more decisions than the witness" true
          (shrunk.Explore.Shrink.decisions <= witness_decisions);
      (* the shrunk repro replays to the same violation deterministically
         under both 1 and 4 ensemble domains *)
      let repro = Explore.Repro.of_shrunk problem shrunk in
      let replay_once () =
        match Explore.Repro.replay repro with
        | Ok (result, desc) -> (Run.digest result.Sim.run, desc)
        | Error e -> Alcotest.failf "%s: repro replay failed: %s" name e
      in
      let expected =
        (Run.digest shrunk.Explore.Shrink.result.Sim.run,
         shrunk.Explore.Shrink.violation)
      in
      List.iter
        (fun domains ->
          List.iter
            (fun got ->
              Alcotest.(check (pair string string))
                (Printf.sprintf "replay under %d domains" domains)
                expected got)
            (Ensemble.map ~domains
               (fun () -> replay_once ())
               [ (); (); (); () ]))
        [ 1; 4 ]

(* ---------- chunking ---------- *)

let split_large_frontier () =
  (* regression: the naive non-tail-recursive split overflowed the stack
     on the frontiers BFS builds at depth >= 2 (tens of thousands of
     nodes); 200k is comfortably past any default stack *)
  let n = 200_000 in
  let frontier = List.init n Fun.id in
  let a, b = Explore.Engine.split_at 150_000 frontier in
  Alcotest.(check int) "prefix length" 150_000 (List.length a);
  Alcotest.(check int) "suffix length" (n - 150_000) (List.length b);
  Alcotest.(check (option int)) "prefix starts at 0" (Some 0) (List.nth_opt a 0);
  Alcotest.(check (option int))
    "suffix starts where the prefix ends" (Some 150_000) (List.nth_opt b 0);
  (* boundary shapes *)
  let a, b = Explore.Engine.split_at 0 frontier in
  Alcotest.(check int) "k=0: empty prefix" 0 (List.length a);
  Alcotest.(check int) "k=0: all in suffix" n (List.length b);
  let a, b = Explore.Engine.split_at (n + 1) frontier in
  Alcotest.(check int) "k>len: all in prefix" n (List.length a);
  Alcotest.(check int) "k>len: empty suffix" 0 (List.length b)

(* ---------- repro files ---------- *)

let repro_roundtrip () =
  let s = Core.Adversary.confined_clique ~n:4 ~t:2 ~seed:42L in
  let problem = Explore.Problem.of_scenario s in
  match Explore.Engine.search problem with
  | Explore.Engine.Violation (w, _), _ ->
      let shrunk = Explore.Shrink.minimize problem w in
      let repro = Explore.Repro.of_shrunk problem shrunk in
      let text = Explore.Repro.to_string repro in
      let reloaded =
        match Explore.Repro.of_string text with
        | Ok r -> r
        | Error e -> Alcotest.failf "parse failed: %s" e
      in
      Alcotest.(check string)
        "same text after round-trip" text
        (Explore.Repro.to_string reloaded);
      (match Explore.Repro.replay reloaded with
      | Ok (_, desc) ->
          Alcotest.(check string)
            "same violation" shrunk.Explore.Shrink.violation desc
      | Error e -> Alcotest.failf "reloaded replay failed: %s" e);
      (* tampering with the digest is caught *)
      let tampered = { reloaded with Explore.Repro.digest = "deadbeef" } in
      Alcotest.(check bool)
        "digest mismatch detected" true
        (Result.is_error (Explore.Repro.replay tampered))
  | _ -> Alcotest.fail "no violation to round-trip"

(* ---------- positive gates: clean protocols come back Exhausted ------- *)

let exhausted_options =
  { Explore.Engine.default_options with Explore.Engine.depth = 2 }

let expect_exhausted ?(options = exhausted_options) name problem =
  match Explore.Engine.search ~options problem with
  | Explore.Engine.Exhausted _, stats ->
      Alcotest.(check bool)
        "space was actually explored" true
        (stats.Explore.Engine.explored > 1)
  | Explore.Engine.Budget _, _ -> Alcotest.failf "%s: budget too small" name
  | Explore.Engine.Violation (w, _), _ ->
      Alcotest.failf "%s: unexpected violation %s (schedule %s)" name
        w.Explore.Engine.violation
        (Format.asprintf "%a" Explore.Engine.pp_node w.Explore.Engine.node)

let reliable_clean () =
  let config =
    {
      (Sim.config ~n:4 ~seed:42L) with
      Sim.init_plan = Init_plan.one ~owner:0 ~at:1;
      max_ticks = 120;
      crash_budget = 1;
    }
  in
  let protocol =
    match Explore.Protocols.instantiate "reliable" ~n:4 with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  expect_exhausted "reliable"
    (Explore.Problem.make ~name:"reliable" ~config ~protocol
       ~protocol_label:"reliable" Explore.Property.Udc)

let ack_with_perfect_detector_clean () =
  (* the paper's positive result: ack + a perfect detector attains UDC
     even when the explorer places the crash adversarially. Silence
     branching is off: persistent silences don't model crash failures but
     channel slowness, and the forced-keep trickle (one delivery per
     [max_consecutive_drops + 1] sends) can legitimately stretch the ack
     round-trip past any fixed horizon — a finite-horizon artifact, not a
     refutation of the theorem. The reliable-protocol gate keeps silences
     on. *)
  let config =
    {
      (Sim.config ~n:4 ~seed:42L) with
      Sim.init_plan = Init_plan.one ~owner:0 ~at:1;
      oracle = Detector.Oracles.perfect ~lag:1 ();
      max_ticks = 120;
      crash_budget = 1;
    }
  in
  let protocol =
    match Explore.Protocols.instantiate "ack" ~n:4 with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  expect_exhausted
    ~options:
      { exhausted_options with Explore.Engine.branch_silences = false }
    "ack+perfect"
    (Explore.Problem.make ~name:"ack+perfect" ~config ~protocol
       ~protocol_label:"ack" Explore.Property.Udc)

(* ---------- property parsing & the k-set grid ---------- *)

let property_roundtrip () =
  List.iter
    (fun p ->
      let s = Explore.Property.to_string p in
      match Explore.Property.of_string s with
      | Ok p' ->
          Alcotest.(check string) "round-trip" s (Explore.Property.to_string p')
      | Error e -> Alcotest.failf "parse of %S failed: %s" s e)
    (Explore.Property.all
    @ [
        Explore.Property.Kset 3;
        Explore.Property.Kset 7;
        Explore.Property.Detector (Detector.Spec.Strong_k 2);
        Explore.Property.Detector (Detector.Spec.Strong_k 5);
      ]);
  List.iter
    (fun s ->
      match Explore.Property.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "kset:0"; "kset:-1"; "kset:"; "kset:x"; "detector:strong-0"; "bogus" ]

let kset_grid () =
  let params =
    {
      Explore.Classify.default_params with
      Explore.Classify.n = 4;
      crashes = 1;
      runs = 3;
      max_ticks = 160;
    }
  in
  let outcome domains =
    match
      Explore.Classify.kset ~domains ~backend:"gossip"
        ~regime:Explore.Classify.Reliable ~k:2 params
    with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  let o = outcome 1 in
  (* reliable channels, one crash: the grid's easy cell — all runs
     attain 2-set safety, terminate, and pass both knowledge checks *)
  Alcotest.(check int) "attained" 3 o.Explore.Classify.attained;
  Alcotest.(check int) "terminated" 3 o.Explore.Classify.terminated;
  Alcotest.(check int) "KS1" 3 o.Explore.Classify.ks1;
  Alcotest.(check int) "KS2" 3 o.Explore.Classify.ks2;
  Alcotest.(check bool) "ks2 <= attained" true
    (o.Explore.Classify.ks2 <= o.Explore.Classify.attained);
  (* bit-identical across domain counts, like classify *)
  Alcotest.(check string) "domains=3 digest" o.Explore.Classify.digest
    (outcome 3).Explore.Classify.digest;
  (* unknown backend is an Error, not an exception *)
  Alcotest.(check bool) "unknown backend" true
    (Result.is_error
       (Explore.Classify.kset ~backend:"nope"
          ~regime:Explore.Classify.Reliable ~k:2 params))

(* ---------- KS1/KS2: the closed form against the model checker ---------- *)

(* Each decider with its decide tick. *)
let decide_ticks run =
  List.filter_map
    (fun p ->
      match Consensus.Spec.decision run p with
      | None -> None
      | Some v ->
          Option.map
            (fun tick -> (p, tick))
            (Run.do_tick run p (Action_id.make ~owner:p ~tag:v)))
    (Pid.all (Run.n run))

(* The reference: KS1/KS2 evaluated by the model checker on the system of
   the one run, at the same decide ticks. *)
let checker_knowledge ~k run =
  let deciders = decide_ticks run in
  let env = Epistemic.Checker.make (Epistemic.System.of_runs [ run ]) in
  let knows p tick q =
    Epistemic.Checker.holds env
      (Epistemic.Formula.intern
         (Epistemic.Formula.K
            (p, Epistemic.Formula.inited (Action_id.make ~owner:q ~tag:q))))
      ~run:0 ~tick
  in
  let ks1 =
    deciders <> [] && List.for_all (fun (p, tick) -> knows p tick p) deciders
  in
  let correct = Pid.Set.elements (Run.correct run) in
  let core =
    List.filter
      (fun q -> List.for_all (fun (p, tick) -> knows p tick q) deciders)
      correct
  in
  let ks2 = deciders <> [] && List.length core >= min k (List.length correct) in
  (ks1, ks2)

(* classify-grid's k-set cells: n = 4, one crash, 240 ticks *)
let kset_params =
  {
    Explore.Classify.default_params with
    Explore.Classify.n = 4;
    crashes = 1;
    max_ticks = 240;
  }

(* One k-set run of a grid cell. [late] moves proposer n-1's init to that
   tick, so deciders that suspect it decide before it initiates. *)
let kset_run ?late ~backend ~regime seed =
  let n = kset_params.Explore.Classify.n in
  let plan =
    Init_plan.of_entries
      (List.map
         (fun (e : Init_plan.entry) ->
           match late with
           | Some at when Action_id.owner e.action = n - 1 -> { e with at }
           | _ -> e)
         (Init_plan.entries (Explore.Classify.proposal_plan n)))
  in
  let mk = Option.get (Detector.Backends.of_label_inner backend) in
  let { Detector.Backends.oracle; protocol } =
    mk ~inner:(module Consensus.Kset.P : Protocol.S) ~n
  in
  let cfg =
    {
      (Explore.Classify.config ~regime ~params:kset_params ~seed) with
      Sim.init_plan = plan;
      oracle;
    }
  in
  (Sim.execute cfg protocol).Sim.run

let kset_knowledge_matches_checker () =
  let ks2_seen = ref [] in
  List.iter
    (fun late ->
      List.iter
        (fun backend ->
          List.iter
            (fun regime ->
              List.iter
                (fun seed ->
                  let run = kset_run ?late ~backend ~regime seed in
                  List.iter
                    (fun k ->
                      let got = Explore.Classify.kset_knowledge ~k run in
                      let want = checker_knowledge ~k run in
                      if got <> want then
                        Alcotest.failf
                          "%s x %s seed %Ld late %s k=%d: closed form \
                           (%b,%b), checker (%b,%b)"
                          backend
                          (Explore.Classify.regime_label regime)
                          seed
                          (Option.fold ~none:"-" ~some:string_of_int late)
                          k (fst got) (snd got) (fst want) (snd want);
                      if k = 3 then ks2_seen := snd got :: !ks2_seen)
                    [ 1; 2; 3 ])
                (Helpers.seeds 4))
            Explore.Classify.regimes)
        Detector.Backends.labels)
    [ None; Some 40; Some 120 ];
  (* the late inits make KS2 fail at k = 3, so both verdicts are compared *)
  Alcotest.(check (list bool))
    "KS2 verdicts seen" [ false; true ]
    (List.sort_uniq compare !ks2_seen)

(* Pairs (p, q): decider p decided before any estimate from q reached it. *)
let skipped run =
  List.concat_map
    (fun (p, decided) ->
      let heard q =
        List.exists
          (function
            | Event.Recv { src; msg = Message.Cons_estimate _ }, tick ->
                Pid.equal src q && tick <= decided
            | _ -> false)
          (History.timed_events (Run.history run p))
      in
      List.filter_map
        (fun q -> if q <> p && not (heard q) then Some (p, q) else None)
        (Pid.all (Run.n run)))
    (decide_ticks run)

(* KS1/KS2 say which proposals were initiated when each decider decided,
   not which it heard: on this phi x reliable grid run, false suspicions
   let p2 and p3 decide without the estimate of p0 (correct, proposing the
   minimum 0), and both conditions still hold. *)
let kset_knowledge_ignores_skips () =
  let run = kset_run ~backend:"phi" ~regime:Explore.Classify.Reliable 15851L in
  Alcotest.(check (list (pair int int)))
    "skips" [ (2, 0); (3, 0) ]
    (skipped run);
  Alcotest.(check bool) "p0 correct" true (Pid.Set.mem 0 (Run.correct run));
  Alcotest.(check (list (pair int (option int))))
    "decisions"
    [ (0, Some 0); (1, Some 0); (2, Some 1); (3, Some 1) ]
    (List.map (fun p -> (p, Consensus.Spec.decision run p)) (Pid.all 4));
  Alcotest.(check (pair bool bool))
    "KS1/KS2 hold" (true, true)
    (Explore.Classify.kset_knowledge ~k:2 run)

let kset_certify () =
  match Explore.Classify.certify_kset ~k:1 ~n:3 with
  | Error e -> Alcotest.fail e
  | Ok cert ->
      Alcotest.(check bool) "explored some runs" true
        (cert.Explore.Classify.explored > 0);
      let repro = cert.Explore.Classify.repro in
      (match Explore.Repro.replay repro with
      | Ok (_, desc) ->
          Alcotest.(check bool) "violation names 1-set" true
            (String.length desc >= 5 && String.sub desc 0 5 = "1-set")
      | Error e -> Alcotest.failf "repro failed to replay: %s" e);
      (* the repro file round-trips through text, adversarial oracle,
         init plan and all *)
      let text = Explore.Repro.to_string repro in
      (match Explore.Repro.of_string text with
      | Error e -> Alcotest.failf "repro parse failed: %s" e
      | Ok reloaded -> (
          Alcotest.(check string) "repro text round-trips" text
            (Explore.Repro.to_string reloaded);
          match Explore.Repro.replay reloaded with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "reloaded replay failed: %s" e))

(* The witness of `udc explore --protocol kset --property kset:2
   --adversarial-oracle --crash-budget 0 -n 5 --depth 4 --max-ticks 60`
   (test_cli pins its repro): the min rule decides three values with no
   crash, under a suspicion timeline that S and (S,2) accept. So an
   unconstrained certificate shows that the min rule needs more than
   (S,k); it shows no class boundary. *)
let kset_witness_inside_sk () =
  let n = 5 in
  let config =
    {
      (Sim.config ~n ~seed:42L) with
      Sim.init_plan = Explore.Classify.proposal_plan n;
      max_ticks = 60;
    }
  in
  let problem =
    Explore.Problem.make ~name:"kset" ~adversarial_oracle:true ~config
      ~protocol:(Result.get_ok (Explore.Protocols.instantiate "kset" ~n))
      ~protocol_label:"kset" (Explore.Property.Kset 2)
  in
  let options =
    { Explore.Engine.default_options with mode = Explore.Engine.Dpor }
  in
  match Explore.Engine.search ~options problem with
  | Explore.Engine.Violation (w, _), _ -> (
      let repro =
        Explore.Repro.of_shrunk problem (Explore.Shrink.minimize problem w)
      in
      Alcotest.(check string) "digest" "9031758c8c8feaac336eb5d04ee9985d"
        repro.Explore.Repro.digest;
      match Explore.Repro.replay repro with
      | Error e -> Alcotest.failf "repro failed to replay: %s" e
      | Ok (result, _) ->
          let run = result.Sim.run in
          Alcotest.(check (list int)) "no crash" []
            (Pid.Set.elements (Run.faulty run));
          List.iter
            (fun (cls, holds) ->
              Alcotest.(check bool)
                (Detector.Spec.cls_name cls)
                holds
                (Result.is_ok (Detector.Spec.satisfies cls run)))
            Detector.Spec.
              [
                (Strong_k 2, true);
                (Strong, true);
                (Strong_k 3, true);
                (Weak, true);
                (Eventually_strong, true);
                (Perfect, false);
                (Eventually_perfect, false);
              ])
  | _ -> Alcotest.fail "expected a k-set violation"

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ trace_roundtrip; record_replay_digest; unrecorded_run_matches ]
  @ [
      Alcotest.test_case "scripted source defaults" `Quick scripted_defaults;
      Alcotest.test_case "scripted plan and silence" `Quick
        scripted_plan_and_silence;
      Alcotest.test_case "sticky drops silence the link" `Quick sticky_drops;
      Alcotest.test_case "scripted plan order, repeats, negatives" `Quick
        scripted_plan_semantics;
      Alcotest.test_case "replay divergence raises" `Quick replay_divergence;
      Alcotest.test_case "guided source falls back" `Quick guided_fallback;
      Alcotest.test_case "recording does not perturb the run" `Quick
        record_matches_plain_execute;
      Alcotest.test_case "split_at survives a 200k frontier" `Quick
        split_large_frontier;
      Alcotest.test_case "repro file round-trips" `Quick repro_roundtrip;
      Alcotest.test_case "reliable protocol: space certified clean" `Quick
        reliable_clean;
      Alcotest.test_case "ack + perfect detector: space certified clean"
        `Quick ack_with_perfect_detector_clean;
      Alcotest.test_case "property strings round-trip" `Quick
        property_roundtrip;
      Alcotest.test_case "kset grid: easy cell, domain-invariant" `Slow
        kset_grid;
      Alcotest.test_case "kset knowledge: closed form = checker" `Quick
        kset_knowledge_matches_checker;
      Alcotest.test_case "kset knowledge: a skipped proposer still counts"
        `Quick kset_knowledge_ignores_skips;
      Alcotest.test_case "kset negative cell certified by adversary" `Slow
        kset_certify;
      Alcotest.test_case "kset witness: timeline inside (S,2)" `Slow
        kset_witness_inside_sk;
    ]
  @ List.map
      (fun ((name, _, _) as sc) ->
        Alcotest.test_case
          (Printf.sprintf "explorer rediscovers %s" name)
          `Quick (rediscover sc))
      scenarios
