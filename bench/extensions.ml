(* E12-E14: the Section 5 / footnote 10 material and the exact-vs-sampled
   knowledge ablation. *)

let theta () =
  Util.header "E12 (Section 5, ATD99): the weakest-detector class for UDC";
  let n = 5 in
  let v =
    Util.ensemble ~runs:15
      ~mk_config:(fun seed ->
        Util.udc_config ~n ~t:2 ~loss:0.3
          ~oracle:(Detector.Theta.rotating ())
          seed)
      ~protocol:(Util.uniform (module Core.Theta_udc.P))
      ~property:Core.Spec.udc
  in
  Format.printf "    quorum protocol + rotating detector:  %a@."
    Util.pp_verdict v;
  let weak_fails =
    Util.ensemble ~runs:15
      ~mk_config:(fun seed ->
        Util.udc_config ~n ~t:2 ~loss:0.3
          ~oracle:(Detector.Theta.rotating ())
          seed)
      ~protocol:(Util.uniform (module Core.Theta_udc.P))
      ~property:Detector.Spec.weak_accuracy
  in
  Format.printf
    "    weak accuracy of that detector:       %d/%d runs (it is genuinely \
     weaker)@."
    weak_fails.Util.ok
    (weak_fails.Util.ok + weak_fails.Util.violated);
  Util.paper_vs_measured
    ~claim:
      "ATD99 (discussed in the paper's Section 5): strong completeness + \
       'at all times some correct process is unsuspected' is the weakest \
       detector for uniform coordination - weaker than weak accuracy"
    ~measured:
      "the quorum protocol attains UDC under the rotating detector on \
       every run, while the same detector violates weak accuracy on every \
       run (and the test suite shows the Prop 3.1 protocol breaks under it)"

let heartbeat () =
  Util.header "E13 (footnote 10, ACT97): quiescent coordination";
  let mk proto seed =
    let cfg = Sim.config ~n:4 ~seed in
    let cfg =
      {
        cfg with
        Sim.loss_rate = 0.3;
        fault_plan = Fault_plan.crash_at [ (3, 6) ];
        init_plan = Init_plan.one ~owner:0 ~at:1;
        goal = Sim.Run_to_max;
        max_ticks = 600;
      }
    in
    (Sim.execute_uniform cfg proto).Sim.run
  in
  let quiesced = ref 0 and flood_quiesced = ref 0 and total = ref 0 in
  let quiesce_ticks = ref [] in
  List.iter
    (fun seed ->
      incr total;
      (match
         Core.Heartbeat_nudc.app_quiescent_after
           (mk (module Core.Heartbeat_nudc.P) seed)
       with
      | Some t ->
          incr quiesced;
          quiesce_ticks := float_of_int t :: !quiesce_ticks
      | None -> ());
      if Core.Heartbeat_nudc.app_quiescent_after (mk (module Core.Nudc.P) seed)
         <> None
      then incr flood_quiesced)
    (Util.seeds 10);
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  Format.printf
    "    heartbeat protocol: app traffic quiescent in %d/%d runs (mean \
     last app send: tick %.0f of 600)@."
    !quiesced !total (mean !quiesce_ticks);
  Format.printf
    "    flooding protocol:  app traffic quiescent in %d/%d runs@."
    !flood_quiesced !total;
  Util.paper_vs_measured
    ~claim:
      "no nUDC protocol terminates under lossy channels (footnote 10); \
       the heartbeat mechanism of ACT97 recovers quiescence of \
       application traffic"
    ~measured:
      "heartbeat-driven retransmission stops shortly after coordination \
       completes; the paper's flooding protocol retransmits to the \
       crashed peer through the entire horizon"

(* Compare knowledge computed over a subsample of a system against the
   same knowledge computed over the full (exhaustive) system: the points
   of the subsample are points of the full system, so any K_p crash(q)
   that the subsample grants and the full system refutes is pure sampling
   overclaim. *)
let subsample_overclaim full_runs sizes =
  let full = Array.of_list full_runs in
  let env_full =
    Epistemic.Checker.make (Epistemic.System.of_runs full_runs)
  in
  let n = Run.n full.(0) in
  List.map
    (fun size ->
      let size = min size (Array.length full) in
      let stride = Array.length full / size in
      let indices = List.init size (fun i -> i * stride) in
      let sub_runs = List.map (fun i -> full.(i)) indices in
      let env_sub =
        Epistemic.Checker.make (Epistemic.System.of_runs sub_runs)
      in
      let claims = ref 0 and overclaims = ref 0 in
      List.iteri
        (fun sub_ri full_ri ->
          for m = 0 to Run.horizon full.(full_ri) do
            List.iter
              (fun pr ->
                List.iter
                  (fun q ->
                    if pr <> q then
                      let f =
                        Epistemic.Formula.knows pr (Epistemic.Formula.crashed q)
                      in
                      if Epistemic.Checker.holds env_sub f ~run:sub_ri ~tick:m
                      then begin
                        incr claims;
                        if
                          not
                            (Epistemic.Checker.holds env_full f ~run:full_ri
                               ~tick:m)
                        then incr overclaims
                      end)
                  (Pid.all n))
              (Pid.all n)
          done)
        indices;
      (size, !claims, !overclaims))
    sizes

let sampled () =
  Util.header
    "E14 (ablation): knowledge from exhaustive vs sampled systems";
  (* the no-detector context: exhaustively, nobody ever knows a crash
     (asynchrony: silence and slowness are indistinguishable), so every
     crash-knowledge claim a subsample grants is overclaim *)
  let cfg = Enumerate.config ~n:3 ~depth:8 in
  let cfg =
    {
      cfg with
      Enumerate.max_crashes = 2;
      init_plan = Init_plan.one ~owner:0 ~at:1;
      oracle_mode = Enumerate.No_oracle;
      max_nodes = 20_000_000;
    }
  in
  let out = Enumerate.runs_exn cfg (module Core.Nudc.P) in
  let full = out.Enumerate.runs in
  Format.printf
    "    full system: %d runs (exhaustive: %b), protocol nUDC, no detector@."
    (List.length full) out.Enumerate.exhaustive;
  Format.printf "    %-10s %-18s %-18s@." "subsample" "K_p crash claims"
    "refuted by full";
  List.iter
    (fun (size, claims, over) ->
      Format.printf "    %-10d %-18d %-18d@." size claims over)
    (subsample_overclaim full [ 10; 40; 160; 640; 1_000_000 ]);
  Util.paper_vs_measured
    ~claim:
      "(not in the paper - methodology) knowledge quantifies over all runs \
       of the system; computing it over a sample over-approximates it"
    ~measured:
      "small subsamples grant crash-knowledge that the full system \
       refutes; the overclaim shrinks as the subsample grows and is zero \
       on the full system - which is why the theorem-level experiments \
       (E7/E8/E10) insist on exhaustive enumeration"

(* E15: the knowledge-based program interpreter. *)
let kb_programs () =
  Util.header
    "E15 (FHMV97): knowledge-based UDC programs, interpreted by fixpoint";
  let alpha = Action_id.make ~owner:0 ~tag:0 in
  let n = 3 in
  let safety =
    let open Epistemic.Formula in
    disj
      (List.map
         (fun q -> knows q (inited alpha) &&& always (neg (crashed q)))
         (Pid.all n))
    ||| conj (List.map (fun q -> eventually (crashed q)) (Pid.all n))
  in
  let audit (outcome : Core.Kb_program.outcome) =
    let env = outcome.Core.Kb_program.env in
    let sys = Epistemic.Checker.system env in
    let performs = ref 0 and unsafe = ref 0 and unrecoverable = ref 0 in
    for ri = 0 to Epistemic.System.run_count sys - 1 do
      let r = Epistemic.System.run sys ri in
      List.iter
        (fun p ->
          match Run.do_tick r p alpha with
          | Some m ->
              incr performs;
              if not (Epistemic.Checker.holds env safety ~run:ri ~tick:m) then
                incr unsafe
          | None -> ())
        (Pid.all n);
      if Result.is_error (Core.Spec.dc2 r) then
        let h = Run.horizon r in
        let recoverable =
          List.exists
            (fun q ->
              (not (Run.crashed_by r q h))
              && Epistemic.Checker.holds env
                   (Epistemic.Formula.knows q
                      (Epistemic.Formula.inited alpha))
                   ~run:ri ~tick:h)
            (Pid.all n)
        in
        if not recoverable then incr unrecoverable
    done;
    (!performs, !unsafe, !unrecoverable)
  in
  let show name guard =
    let outcome =
      Core.Kb_program.interpret ~n ~depth:8 ~max_crashes:2 ~alpha ~guard
        ~max_iters:8
    in
    let performs, unsafe, unrecoverable = audit outcome in
    Format.printf
      "    %-22s fixpoint in %d iterations, %3d acting states; %4d \
       performs, %4d unsafe, %3d unrecoverable violations@."
      name outcome.Core.Kb_program.iterations
      (Core.Kb_program.table_size outcome.Core.Kb_program.table)
      performs unsafe unrecoverable
  in
  show "Prop 3.5 guard:" (Core.Kb_program.prop35_guard ~n ~alpha);
  show "naive K_p(init) guard:" (fun env p ~run ~tick ->
      Epistemic.Checker.holds env
        (Epistemic.Formula.knows p (Epistemic.Formula.inited alpha))
        ~run ~tick);
  Util.paper_vs_measured
    ~claim:
      "the paper's analysis is a knowledge-based program in the FHMV97 \
       sense: 'perform when you know some surviving process knows the \
       initiation' - Prop 3.5 is its correctness condition"
    ~measured:
      "interpreting that guard by fixpoint yields a program whose every \
       perform point is safe (0 unsafe, 0 unrecoverable); the naive \
       'perform when you know init' guard yields hundreds of \
       unrecoverable uniformity violations"

(* E16: the knowledge hierarchy and the common-knowledge impossibility. *)
let common_knowledge () =
  Util.header
    "E16 (Halpern-Moses): the knowledge hierarchy under unreliable channels";
  let alpha = Action_id.make ~owner:0 ~tag:0 in
  (* two processes: each level of the hierarchy costs one more delivered
     message, so the ladder fits in an enumerable horizon *)
  let n = 2 in
  (* depth 11: one tick deeper than the seed could reach — the frontier
     enumerator's FNV keys made the extra level affordable (see
     EXPERIMENTS.md E16 for the measured numbers) *)
  let cfg = Enumerate.config ~n ~depth:11 in
  let cfg =
    {
      cfg with
      Enumerate.max_crashes = 1;
      init_plan = Init_plan.one ~owner:0 ~at:1;
      oracle_mode = Enumerate.Perfect_reports;
      max_nodes = 20_000_000;
    }
  in
  (* the ack protocol: acknowledgments are what buy higher knowledge
     levels (receiving ack(alpha) teaches "q knows init") *)
  let out = Enumerate.runs_exn cfg (module Core.Ack_udc.P) in
  let sys = Epistemic.System.of_runs out.Enumerate.runs in
  let env = Epistemic.Checker.make sys in
  let g = Pid.Set.full n in
  let open Epistemic.Formula in
  let phi = inited alpha in
  let levels =
    [
      ("init", phi);
      ("E (everyone knows)", everyone g phi);
      ("E^2", everyone g (everyone g phi));
      ("E^3", everyone g (everyone g (everyone g phi)));
      ("C (common knowledge)", Ck (g, phi));
    ]
  in
  Format.printf "    level                  points where it holds@.";
  List.iter
    (fun (name, f) ->
      let count = ref 0 in
      Epistemic.System.iter_points sys (fun ~run ~tick ->
          if Epistemic.Checker.holds env f ~run ~tick then incr count);
      Format.printf "    %-22s %d@." name !count)
    levels;
  Util.paper_vs_measured
    ~claim:
      "(the knowledge-theoretic canon the paper builds on) each level of \
       'everyone knows that everyone knows...' requires another round of \
       acknowledged communication, and common knowledge of a new fact is \
       unattainable without simultaneity"
    ~measured:
      "each E^k level holds at strictly fewer points (every level costs \
       one more delivered message of the req/ack exchange), and C(init) \
       holds at exactly zero points of the exhaustive system - while UDC \
       itself is attained: uniformity does not need common knowledge"

(* E17: the implemented detector backends (φ-accrual, SWIM, gossip)
   classified empirically against the paper's taxonomy — the full
   backend × channel-regime grid, each cell a seed ensemble scored
   against every class's axioms, plus one assignment certified by an
   explorer-found replayable counterexample (EXPERIMENTS.md has the
   full-size grid; this registry entry runs a smaller ensemble). *)
let classify () =
  Util.header
    "E17: implemented detectors (phi, swim, gossip) vs the paper's taxonomy";
  let params = { Explore.Classify.default_params with runs = 12 } in
  Format.printf "    %-8s %-18s %-28s %s@." "backend" "regime" "assignment"
    "false/reports";
  List.iter
    (fun backend ->
      List.iter
        (fun regime ->
          match Explore.Classify.classify ~backend ~regime params with
          | Error e -> failwith e
          | Ok o ->
              Format.printf "    %-8s %-18s %-28s %d/%d@." backend
                (Explore.Classify.regime_label regime)
                (Explore.Classify.assignment_string
                   o.Explore.Classify.assignment)
                o.Explore.Classify.false_suspicions o.Explore.Classify.reports)
        Explore.Classify.regimes)
    Detector.Backends.labels;
  (* one separation certified, not just sampled: the explorer finds a
     legal crash-free schedule on which phi false-suspects, i.e. a
     replayable witness that phi does not realise the class P *)
  (match
     Explore.Classify.certify ~backend:"phi" ~against:Detector.Spec.Perfect
       ~n:5
   with
  | Error e -> failwith e
  | Ok cert ->
      Format.printf
        "    certificate: phi is not %s — %s (explored %d schedules)@."
        (Detector.Spec.cls_name cert.Explore.Classify.against)
        cert.Explore.Classify.repro.Explore.Repro.violation
        cert.Explore.Classify.explored);
  Util.paper_vs_measured
    ~claim:
      "the paper's taxonomy (Table 1) is axiomatic: classes P, S and \
       their eventual/impermanent weakenings are defined by completeness \
       and accuracy axioms, independent of any implementation"
    ~measured:
      "timeout-based implementations land in the taxonomy as a function \
       of the channel regime: gossip realises P at these timeouts in \
       every regime, swim realises P on reliable channels but falls out \
       of every class under fair loss, phi degrades from \
       eventually-perfect to eventually-strong - and the explorer \
       certifies phi is not P with a shrunk replayable schedule"

(* E19: k-set agreement as a decision protocol riding on each
   implemented backend under each channel regime (including the ADD
   average-delay model), with an epistemic reading alongside: on runs
   that attain k-set safety, KS1 asks whether each decider knows its own
   proposal was initiated, and KS2 whether a common core of
   min(k,#correct) correct proposers is known-initiated by every
   decider. Knowledge is read on the system of the one run, where it
   only says a proposal was initiated by the decide tick, not that the
   decider heard it. Negative cells are certified by an explorer-found
   shrunk repro in which adversarial suspicions defeat the bound. *)
let kset () =
  Util.header
    "E19: k-set agreement on implemented detectors and ADD channels";
  let k = 2 in
  let params =
    {
      Explore.Classify.default_params with
      Explore.Classify.runs = 8;
      max_ticks = 240;
      gst = 120;
    }
  in
  Format.printf "    %-8s %-18s %-9s %-11s %-10s %-5s %s@." "backend"
    "regime" "attained" "terminated" "(S,k)-sim" "KS1" "KS2";
  List.iter
    (fun backend ->
      List.iter
        (fun regime ->
          match Explore.Classify.kset ~backend ~regime ~k params with
          | Error e -> failwith e
          | Ok o ->
              Format.printf "    %-8s %-18s %-9s %-11s %-10s %-5s %s@."
                backend
                (Explore.Classify.regime_label regime)
                (Printf.sprintf "%d/%d" o.Explore.Classify.attained
                   params.Explore.Classify.runs)
                (Printf.sprintf "%d/%d" o.Explore.Classify.terminated
                   params.Explore.Classify.runs)
                (Printf.sprintf "%d/%d" o.Explore.Classify.sk_simulated
                   params.Explore.Classify.runs)
                (Printf.sprintf "%d/%d" o.Explore.Classify.ks1
                   params.Explore.Classify.runs)
                (Printf.sprintf "%d/%d" o.Explore.Classify.ks2
                   params.Explore.Classify.runs))
        Explore.Classify.regimes)
    Detector.Backends.labels;
  (* the negative cell, certified: with the adversary playing the
     detector, a legal schedule splits the min rule past k values *)
  (match Explore.Classify.certify_kset ~k:1 ~n:3 with
  | Error e -> failwith e
  | Ok cert ->
      Format.printf
        "    certificate: adversarial suspicions defeat kset:1 — %s \
         (explored %d schedules)@."
        cert.Explore.Classify.repro.Explore.Repro.violation
        cert.Explore.Classify.explored);
  Util.paper_vs_measured
    ~claim:
      "coordination is knowledge acquisition: the paper derives what \
       processes must know to act, and weaker detectors buy weaker \
       agreement — for k-set agreement the operative oracle strength is \
       k-weak accuracy ((S,k)): some min(k, #correct) correct processes \
       are never suspected"
    ~measured:
      "the grid separates the backends: gossip's conservative timeouts \
       simulate an (S,2) oracle in every regime (incl. ADD) and attain \
       2-set safety throughout; phi's bootstrap false-suspicions split \
       the min rule past 2 values on reliable runs — the one cell that \
       loses safety; KS1/KS2 hold on every attaining run, but read on \
       one run they only say each proposal was initiated by the decide \
       tick (all propose at tick 1), not that the decider heard it; and \
       the explorer certifies that unconstrained suspicions (below \
       (S,k)) admit a replayable schedule deciding k+1 values"
