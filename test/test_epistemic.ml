(* The knowledge machinery: indistinguishability, S5 validities, and the
   interaction between message receipt and knowledge — the paper's core
   analytical toolkit (Section 2.3). *)

open Epistemic

let alpha0 = Action_id.make ~owner:0 ~tag:0

(* A small exhaustively-enumerated system: nUDC flood on 3 processes, one
   possible crash, perfect report points. *)
let enumerated =
  lazy
    (let cfg = Enumerate.config ~n:3 ~depth:7 in
     let cfg =
       {
         cfg with
         Enumerate.max_crashes = 1;
         init_plan = Init_plan.one ~owner:0 ~at:1;
         oracle_mode = Enumerate.Perfect_reports;
       }
     in
     let out = Enumerate.runs cfg (module Core.Nudc.P) in
     Alcotest.(check bool) "exhaustive" true out.Enumerate.exhaustive;
     let sys = System.of_runs out.Enumerate.runs in
     Checker.make sys)

let check_valid env what f =
  match Checker.counterexample env f with
  | None -> ()
  | Some (r, m) ->
      Alcotest.failf "%s: fails at (run %d, tick %d): %s" what r m
        (Formula.to_string f)

let pids = [ 0; 1; 2 ]

(* Knowledge is truthful: K_p phi => phi (axiom T). *)
let axiom_truth () =
  let env = Lazy.force enumerated in
  List.iter
    (fun p ->
      List.iter
        (fun f ->
          check_valid env "T" Formula.(knows p f ==> f))
        [
          Formula.inited alpha0;
          Formula.crashed 1;
          Formula.did 2 alpha0;
          Formula.(inited alpha0 &&& neg (crashed 1));
        ])
    pids

(* Positive introspection: K_p phi => K_p K_p phi (axiom 4). *)
let axiom_positive_introspection () =
  let env = Lazy.force enumerated in
  List.iter
    (fun p ->
      let f = Formula.inited alpha0 in
      check_valid env "4" Formula.(knows p f ==> knows p (knows p f)))
    pids

(* Negative introspection: ~K_p phi => K_p ~K_p phi (axiom 5). *)
let axiom_negative_introspection () =
  let env = Lazy.force enumerated in
  List.iter
    (fun p ->
      let f = Formula.crashed 1 in
      check_valid env "5"
        Formula.(neg (knows p f) ==> knows p (neg (knows p f))))
    pids

(* Distribution: K_p (phi => psi) => (K_p phi => K_p psi) (axiom K). *)
let axiom_distribution () =
  let env = Lazy.force enumerated in
  let phi = Formula.inited alpha0 and psi = Formula.did 0 alpha0 in
  List.iter
    (fun p ->
      check_valid env "K"
        Formula.(
          knows p (phi ==> psi) ==> (knows p phi ==> knows p psi)))
    pids

(* Distributed knowledge refines individual knowledge: K_p phi => D_S phi
   for p in S. *)
let distributed_knowledge () =
  let env = Lazy.force enumerated in
  let phi = Formula.inited alpha0 in
  let s = Pid.Set.of_list [ 0; 1 ] in
  List.iter
    (fun p ->
      check_valid env "K=>D" Formula.(knows p phi ==> Dk (s, phi)))
    [ 0; 1 ];
  (* and D is still truthful *)
  check_valid env "D=>truth" Formula.(Dk (s, phi) ==> phi)

(* Locality (Section 2.3): K_p phi is local to p; formulas about p's own
   events are local to p. *)
let locality () =
  let env = Lazy.force enumerated in
  let phi = Formula.inited alpha0 in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "K_p%d local" p)
        true
        (Checker.local_to env (Formula.knows p phi) p))
    pids;
  Alcotest.(check bool)
    "init local to owner" true
    (Checker.local_to env phi 0);
  (* crash(1) is generally NOT local to p0 *)
  Alcotest.(check bool)
    "crash not local to bystander" false
    (Checker.local_to env (Formula.crashed 1) 0)

(* Stability (Section 2.3): init, crash, do are stable; "current suspicion"
   is not local-stable in general but our perfect reports only grow. *)
let stability () =
  let env = Lazy.force enumerated in
  List.iter
    (fun f ->
      Alcotest.(check bool) ("stable " ^ Formula.to_string f) true
        (Checker.stable env f))
    [
      Formula.inited alpha0;
      Formula.crashed 2;
      Formula.did 1 alpha0;
      Formula.(always (neg (crashed 0)));
      Formula.knows 1 (Formula.inited alpha0);
    ]

(* Receiving an alpha-message teaches the receiver the initiation: the
   channel never corrupts, so the message witnesses init (DC3). *)
let knowledge_from_receipt () =
  let env = Lazy.force enumerated in
  let msg = Message.Coord_request (alpha0, Fact.Set.empty) in
  List.iter
    (fun p ->
      if p <> 0 then
        check_valid env "recv => K init"
          Formula.(
            Prim (Received (p, 0, msg)) ==> knows p (inited alpha0)))
    pids

(* Nobody knows the initiation before it happens; the owner knows it the
   moment it happens. *)
let knowledge_timing () =
  let env = Lazy.force enumerated in
  check_valid env "owner knows own init"
    Formula.(inited alpha0 ==> knows 0 (inited alpha0));
  (* bystanders cannot know at time 0 *)
  let sys = Checker.system env in
  for ri = 0 to System.run_count sys - 1 do
    List.iter
      (fun p ->
        if p <> 0 then
          Alcotest.(check bool) "no initial knowledge" false
            (Checker.holds env (Formula.knows p (Formula.inited alpha0))
               ~run:ri ~tick:0))
      pids
  done

(* With system-wide accurate reports, a suspicion IS knowledge of the
   crash: every indistinguishable point also carries the report. *)
let suspicion_is_knowledge_under_perfect_reports () =
  let env = Lazy.force enumerated in
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          if p <> q then
            check_valid env "suspect => K crash"
              Formula.(
                Prim (Suspects (p, q)) ==> knows p (crashed q)))
        pids)
    pids

(* knows_crashed agrees with the formula-level definition at every
   tick, under the kernel and under the reference evaluator. *)
let knows_crashed_consistent () =
  let env = Lazy.force enumerated in
  let sys = Checker.system env in
  let reference = Checker.Reference.make sys in
  for ri = 0 to min 40 (System.run_count sys - 1) do
    for tick = 0 to System.horizon sys ri do
      List.iter
        (fun p ->
          let s = Checker.knows_crashed env p ~run:ri ~tick in
          List.iter
            (fun q ->
              let f = Formula.knows p (Formula.crashed q) in
              let what =
                Printf.sprintf "knows_crashed p%d q%d run%d tick%d" p q ri tick
              in
              Alcotest.(check bool) what (Pid.Set.mem q s)
                (Checker.holds env f ~run:ri ~tick);
              Alcotest.(check bool) (what ^ " (reference)") (Pid.Set.mem q s)
                (Checker.Reference.holds reference f ~run:ri ~tick))
            pids)
        pids
    done
  done

(* max_known_crashed is monotone in the subset and bounded by the truth. *)
let max_known_crashed_sane () =
  let env = Lazy.force enumerated in
  let sys = Checker.system env in
  let full = Pid.Set.of_list pids in
  for ri = 0 to min 40 (System.run_count sys - 1) do
    let h = System.horizon sys ri in
    let run = System.run sys ri in
    List.iter
      (fun p ->
        let k = Checker.max_known_crashed env p full ~run:ri ~tick:h in
        let truth = Pid.Set.cardinal (Run.faulty run) in
        Alcotest.(check bool) "k <= |F|" true (k <= truth);
        let sub = Pid.Set.of_list [ 1 ] in
        let ks = Checker.max_known_crashed env p sub ~run:ri ~tick:h in
        Alcotest.(check bool) "monotone" true (ks <= k))
      pids
  done

(* [(r,m) ~p (r',m')] compares p's event sequences and ignores the
   ticks they landed at (DESIGN, modelling decision 1); [System]
   implements it as a per-process trie over event sequences. Runs [a]
   and [b] hold the same events at different ticks; run [c] differs from
   [a] in p0's second event only. *)
let indistinguishability_ignores_ticks () =
  let alpha1 = Action_id.make ~owner:0 ~tag:1 in
  let beta = Action_id.make ~owner:1 ~tag:0 in
  let hist events =
    List.fold_left
      (fun h (e, tick) -> History.append h e ~tick)
      History.empty events
  in
  let run p0 p1 = Run.make ~n:2 ~horizon:6 [| hist p0; hist p1 |] in
  let a =
    run
      [ (Event.Init alpha0, 1); (Event.Do alpha0, 3) ]
      [ (Event.Init beta, 1) ]
  in
  let b =
    run
      [ (Event.Init alpha0, 2); (Event.Do alpha0, 5) ]
      [ (Event.Init beta, 4) ]
  in
  let c =
    run
      [ (Event.Init alpha0, 1); (Event.Do alpha1, 3) ]
      [ (Event.Init beta, 2) ]
  in
  let sys = System.of_runs [ a; b; c ] in
  let cls p (run, tick) = System.class_id sys p ~run ~tick in
  let same p what points =
    let first = cls p (List.hd points) in
    List.iter (fun pt -> Alcotest.(check int) what first (cls p pt)) points
  in
  same 0 "p0: empty history" [ (0, 0); (1, 0); (1, 1); (2, 0) ];
  same 0 "p0: init" [ (0, 1); (0, 2); (1, 2); (1, 4); (2, 1); (2, 2) ];
  same 0 "p0: init, do" [ (0, 3); (0, 6); (1, 5); (1, 6) ];
  same 1 "p1: init" [ (0, 1); (1, 4); (1, 6); (2, 2) ];
  Alcotest.(check bool)
    "p0: one different event, a different class" true
    (cls 0 (0, 3) <> cls 0 (2, 3));
  Alcotest.(check bool)
    "p0: a longer history, a different class" true
    (cls 0 (0, 1) <> cls 0 (0, 3));
  Alcotest.(check int) "p0: four classes" 4 (System.class_count sys 0);
  Alcotest.(check int) "p1: two classes" 2 (System.class_count sys 1)

let suite =
  [
    Alcotest.test_case "axiom T (knowledge is truthful)" `Quick axiom_truth;
    Alcotest.test_case "axiom 4 (positive introspection)" `Quick
      axiom_positive_introspection;
    Alcotest.test_case "axiom 5 (negative introspection)" `Quick
      axiom_negative_introspection;
    Alcotest.test_case "axiom K (distribution)" `Quick axiom_distribution;
    Alcotest.test_case "distributed knowledge" `Quick distributed_knowledge;
    Alcotest.test_case "locality of formulas" `Quick locality;
    Alcotest.test_case "stability of formulas" `Quick stability;
    Alcotest.test_case "receipt teaches initiation" `Quick
      knowledge_from_receipt;
    Alcotest.test_case "knowledge timing" `Quick knowledge_timing;
    Alcotest.test_case "suspicion = knowledge under perfect reports" `Quick
      suspicion_is_knowledge_under_perfect_reports;
    Alcotest.test_case "knows_crashed consistency" `Quick
      knows_crashed_consistent;
    Alcotest.test_case "max_known_crashed sanity" `Quick
      max_known_crashed_sane;
    Alcotest.test_case "indistinguishability ignores ticks" `Quick
      indistinguishability_ignores_ticks;
  ]
