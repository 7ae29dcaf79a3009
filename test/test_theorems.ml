(* The knowledge-theoretic results: Propositions 3.4/3.5 and Theorems
   3.6/4.3, checked exactly on exhaustively enumerated (timed) systems. *)

open Helpers

let alpha0 = Action_id.make ~owner:0 ~tag:0

let enumerate ?(n = 3) ?(depth = 7) ?(crashes = 2) ?(mode = Enumerate.Perfect_reports)
    proto =
  let cfg = Enumerate.config ~n ~depth in
  let cfg =
    {
      cfg with
      Enumerate.max_crashes = crashes;
      init_plan = Init_plan.one ~owner:0 ~at:1;
      oracle_mode = mode;
      max_nodes = 20_000_000;
    }
  in
  let out = Enumerate.runs cfg proto in
  Alcotest.(check bool) "exhaustive" true out.Enumerate.exhaustive;
  out.Enumerate.runs

(* The canonical Theorem 3.6 setting: the Prop 3.1 protocol under a
   full-information wrapper, perfect report points, up to 2 crashes. *)
let udc_env =
  lazy
    (let runs =
       enumerate (Core.Fip.make ~trust_reports:true (module Core.Ack_udc.P))
     in
     Epistemic.Checker.make (Epistemic.System.of_runs runs))

(* Proposition 3.4: under A1 + A5_{n-1}, weak accuracy iff strong accuracy.
   Two data points: the perfect-report system satisfies both; a system
   whose detector may falsely suspect p1 (weakly-but-not-strongly accurate
   per-run) violates both — because the full failure freedom contains the
   run in which everyone but p1 crashes and p1 was suspected anyway. *)
let prop_3_4 () =
  let every_run f runs = List.for_all (fun r -> Result.is_ok (f r)) runs in
  let perfect_runs =
    enumerate ~depth:6 (Core.Fip.make ~trust_reports:true (module Core.Ack_udc.P))
  in
  Alcotest.(check bool) "perfect: strong accuracy" true
    (every_run Detector.Spec.strong_accuracy perfect_runs);
  Alcotest.(check bool) "perfect: weak accuracy" true
    (every_run Detector.Spec.weak_accuracy perfect_runs);
  let lying_runs =
    enumerate ~depth:6 ~mode:(Enumerate.Lying_reports 1)
      (Core.Fip.make ~trust_reports:false (module Core.Ack_udc.P))
  in
  Alcotest.(check bool) "lying: strong accuracy fails" false
    (every_run Detector.Spec.strong_accuracy lying_runs);
  Alcotest.(check bool) "lying: weak accuracy fails too" false
    (every_run Detector.Spec.weak_accuracy lying_runs);
  (* the witness the proof constructs: a run where p1 is the only correct
     process yet was suspected *)
  let witness =
    List.exists
      (fun r ->
        Pid.Set.equal (Run.faulty r) (Pid.Set.of_list [ 0; 2 ])
        && Result.is_error (Detector.Spec.weak_accuracy r))
      lying_runs
  in
  Alcotest.(check bool) "proof witness exists" true witness

(* Proposition 3.5's antecedent and consequent for process [p] of the
   3-process system, built afresh on every call. *)
let antecedent p =
  let open Epistemic.Formula in
  let inits = inited alpha0 in
  knows p
    (inits
    &&& conj
          (List.map
             (fun q -> eventually (knows q inits ||| crashed q))
             (Pid.all 3)))

let consequent p =
  let open Epistemic.Formula in
  let inits = inited alpha0 in
  knows p
    (disj (List.map (fun q -> always (neg (crashed q))) (Pid.all 3))
    ==> disj
          (List.map
             (fun q -> knows q inits &&& always (neg (crashed q)))
             (Pid.all 3)))

(* Proposition 3.5: the epistemic precondition for performing an action,
   valid at every point of the generated system. *)
let prop_3_5 () =
  let env = Lazy.force udc_env in
  let n = 3 in
  let open Epistemic.Formula in
  let formula =
    conj (List.map (fun p -> antecedent p ==> consequent p) (Pid.all n))
  in
  (match Epistemic.Checker.counterexample env formula with
  | None -> ()
  | Some (r, m) -> Alcotest.failf "Prop 3.5 fails at (run %d, tick %d)" r m);
  (* and the check is not vacuous: the antecedent does hold somewhere *)
  let nonvacuous =
    List.exists
      (fun p ->
        Epistemic.Checker.counterexample env
          (Epistemic.Formula.neg (antecedent p))
        <> None)
      (Pid.all n)
  in
  Alcotest.(check bool) "antecedent realized" true nonvacuous

(* Proposition 3.5 pointwise, as E7 and the knowledge-exact benchmark
   check it: both sides built afresh and queried at every (point, p), so
   every query interns a formula the checker has not seen physically.
   The counts are E7's; a second identical pass adds no memo entry. *)
let prop_3_5_per_point () =
  let env = Lazy.force udc_env in
  let sys = Epistemic.Checker.system env in
  let pass () =
    let ante = ref 0 and bad = ref 0 in
    Epistemic.System.iter_points sys (fun ~run ~tick ->
        List.iter
          (fun p ->
            if Epistemic.Checker.holds env (antecedent p) ~run ~tick then begin
              incr ante;
              if not (Epistemic.Checker.holds env (consequent p) ~run ~tick)
              then incr bad
            end)
          (Pid.all 3));
    (!ante, !bad)
  in
  let ante, bad = pass () in
  Alcotest.(check int) "antecedent points" 2205 ante;
  Alcotest.(check int) "violations" 0 bad;
  let entries = Epistemic.Checker.memo_entries env in
  Alcotest.(check (pair int int)) "second pass" (ante, bad) (pass ());
  Alcotest.(check int) "memo entries after a second pass" entries
    (Epistemic.Checker.memo_entries env)

(* Theorem 3.6, accuracy half: the f-construction's reports are knowledge,
   so they can never be wrong — strong accuracy holds in every f-run,
   unconditionally. Also the f-runs are well-formed. *)
let thm_3_6_accuracy () =
  let env = Lazy.force udc_env in
  let fruns = Core.Simulate_fd.f_system env in
  List.iter
    (fun fr ->
      check_ok "f-run R2" (Run.check_r2 fr);
      check_ok "f-run R3" (Run.check_r3 fr);
      check_ok "f-run R4" (Run.check_r4 fr);
      check_ok "f-run init-once" (Run.check_init_once fr);
      check_ok "strong accuracy" (Detector.Spec.strong_accuracy fr))
    fruns

(* Theorem 3.6, completeness half, finite instance: in every run where the
   coordination obligations were discharged for an action initiated after
   q's crash, every correct process finally suspects q in f(r). *)
let thm_3_6_completeness () =
  let env = Lazy.force udc_env in
  let sys = Epistemic.Checker.system env in
  let checked = ref 0 in
  for ri = 0 to Epistemic.System.run_count sys - 1 do
    let r = Epistemic.System.run sys ri in
    let init_tick =
      List.find_map
        (fun (a, tick) -> if Action_id.equal a alpha0 then Some tick else None)
        (Run.initiated r)
    in
    match init_tick with
    | None -> ()
    | Some it ->
        let correct = Run.correct r in
        let performed_by_all_correct =
          (not (Pid.Set.is_empty correct))
          && Pid.Set.for_all (fun p -> Run.did r p alpha0) correct
        in
        let early_crashed =
          Pid.Set.filter
            (fun q ->
              match Run.crash_tick r q with
              | Some tc -> tc < it
              | None -> false)
            (Run.faulty r)
        in
        if performed_by_all_correct && not (Pid.Set.is_empty early_crashed)
        then begin
          incr checked;
          let fr = Core.Simulate_fd.f_run env ~run:ri in
          Pid.Set.iter
            (fun q ->
              Pid.Set.iter
                (fun p ->
                  let final =
                    Detector.Spec.suspects_at Detector.Spec.event_timeline fr
                      p (Run.horizon fr)
                  in
                  if not (Pid.Set.mem q final) then
                    Alcotest.failf
                      "f(run %d): correct p%d does not finally suspect \
                       early-crashed p%d"
                      ri p q)
                correct)
            early_crashed
        end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "nonvacuous (%d runs checked)" !checked)
    true (!checked > 0)

(* Theorem 4.3: the f'-construction yields t-useful generalized failure
   detectors — generalized strong accuracy unconditionally; the t-useful
   event reaches every correct process in the coordination-complete runs. *)
let thm_4_3 () =
  let env = Lazy.force udc_env in
  let sys = Epistemic.Checker.system env in
  let t = 2 in
  let checked = ref 0 in
  for ri = 0 to Epistemic.System.run_count sys - 1 do
    let fr = Core.Simulate_fd.f'_run env ~run:ri in
    check_ok "f'-run gen strong accuracy"
      (Detector.Spec.generalized_strong_accuracy fr);
    let r = Epistemic.System.run sys ri in
    let correct = Run.correct r in
    let complete =
      (not (Pid.Set.is_empty correct))
      && (match Run.initiated r with
         | [] -> false
         | _ -> true)
      && Pid.Set.for_all (fun p -> Run.did r p alpha0) correct
      && Pid.Set.for_all
           (fun q ->
             match (Run.crash_tick r q, Run.initiated r) with
             | Some tc, (_, it) :: _ -> tc < it
             | _ -> true)
           (Run.faulty r)
    in
    if complete then begin
      incr checked;
      check_ok
        (Printf.sprintf "f'(run %d) %d-useful completeness" ri t)
        (Detector.Spec.generalized_impermanent_strong_completeness fr ~t)
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "nonvacuous (%d runs checked)" !checked)
    true (!checked > 0)

(* The paper's subset indexing for f'. *)
let subset_of_index () =
  Alcotest.(check bool)
    "S_0 empty" true
    (Pid.Set.is_empty (Core.Simulate_fd.subset_of_index ~n:3 0));
  Alcotest.(check bool)
    "S_5 = {0,2}" true
    (Pid.Set.equal
       (Core.Simulate_fd.subset_of_index ~n:3 5)
       (Pid.Set.of_list [ 0; 2 ]));
  Alcotest.(check bool)
    "S_7 full" true
    (Pid.Set.equal
       (Core.Simulate_fd.subset_of_index ~n:3 7)
       (Pid.Set.full 3))

let suite =
  [
    Alcotest.test_case "Prop 3.4: weak acc = strong acc under A1+A5" `Slow
      prop_3_4;
    Alcotest.test_case "Prop 3.5: epistemic precondition valid" `Slow prop_3_5;
    Alcotest.test_case "Prop 3.5: per-point queries on fresh formulas" `Slow
      prop_3_5_per_point;
    Alcotest.test_case "Thm 3.6: f-runs perfectly accurate" `Slow
      thm_3_6_accuracy;
    Alcotest.test_case "Thm 3.6: f-runs complete on discharged runs" `Slow
      thm_3_6_completeness;
    Alcotest.test_case "Thm 4.3: f'-runs t-useful" `Slow thm_4_3;
    Alcotest.test_case "subset indexing" `Quick subset_of_index;
  ]
