(* Experiment E1: regenerate Table 1 of the paper.

   For every cell we (i) run an ensemble demonstrating that the stated
   failure-detector class suffices, and (ii) for the cells the paper marks
   optimal (†), exhibit a violating execution under the next-weaker
   class. *)

let n = 6
let runs = 20

(* Oracles are allocated per seed ([oracle_of]): most oracle
   implementations carry mutable state (sticky suspicion sets, lag
   bookkeeping), so one oracle value must never be shared across the
   ensemble — runs would stop being functions of their seed, and the
   parallel engine would race on the shared state. *)
let udc_suffices ~t ~loss ~oracle_of ~proto =
  Util.ensemble ~runs
    ~mk_config:(fun seed ->
      Util.udc_config ~n ~t ~loss ~oracle:(oracle_of seed) seed)
    ~protocol:(Util.uniform proto) ~property:Core.Spec.udc

let consensus_suffices ~t ~loss ~oracle_of ~proposals =
  Util.ensemble ~runs
    ~mk_config:(fun seed ->
      Util.consensus_config ~n ~t ~loss ~oracle:(oracle_of seed) seed)
    ~protocol:(Util.uniform (Consensus.Chandra_toueg.make_s ~proposals))
    ~property:(Consensus.Spec.consensus ~proposals)

let consensus_ds_suffices ~t ~loss ~proposals =
  Util.ensemble ~runs
    ~mk_config:(fun seed ->
      Util.consensus_config ~n ~t ~loss
        ~oracle:(Detector.Oracles.eventually_perfect ~stabilize_at:80 ~seed ())
        seed)
    ~protocol:(Util.uniform (Consensus.Chandra_toueg.make_ds ~proposals))
    ~property:(Consensus.Spec.consensus ~proposals)

(* the honest ◇W cell: an eventually-weak detector strengthened to ◇S by
   the current-semantics gossip conversion (Prop 2.1) *)
let consensus_dw_suffices ~t ~loss ~proposals =
  Util.ensemble ~runs
    ~mk_config:(fun seed ->
      Util.consensus_config ~n ~t ~loss
        ~oracle:(Detector.Oracles.eventually_weak ~stabilize_at:80 ~seed ())
        seed)
    ~protocol:(fun cfg ->
      let module DS = struct
        include (val Consensus.Chandra_toueg.make_ds ~proposals)
      end in
      let module G = Detector.Convert.With_gossip_current (DS) in
      Util.uniform (module G) cfg)
    ~property:(Consensus.Spec.consensus ~proposals)

(* Each cell prints its line and says whether it read as Table 1 does: a
   sufficiency cell clean on every seed, a dagger cell with its
   violation. *)
let show_cell label verdict =
  Format.printf "    %-34s %a@." label Util.pp_verdict verdict;
  verdict.Util.ok = runs

let adversary_cell label scenario =
  match Core.Adversary.verify scenario with
  | Ok () ->
      Format.printf "    %-34s violation exhibited as expected@."
        (label ^ " (†)");
      true
  | Error e ->
      Format.printf "    %-34s UNEXPECTED: %s@." (label ^ " (†)") e;
      false

(* Consensus optimality demos for the dagger cells. *)
let flp_cell () =
  (* no failure detector: a crashed coordinator blocks the S algorithm *)
  let proposals = Array.init n (fun i -> i mod 2) in
  let stuck =
    Ensemble.exists
      (fun seed ->
        let cfg =
          Util.consensus_config ~n ~t:1 ~loss:0.0 ~oracle:Oracle.none seed
        in
        let cfg =
          { cfg with Sim.fault_plan = Fault_plan.crash_at [ (0, 2) ]; max_ticks = 800 }
        in
        let r =
          Sim.execute cfg
            (Util.uniform (Consensus.Chandra_toueg.make_s ~proposals) cfg)
        in
        Result.is_error (Consensus.Spec.termination r.Sim.run))
      (Util.seeds 5)
  in
  Format.printf "    %-34s %s@." "consensus, no FD (FLP) (†)"
    (if stuck then "termination failure exhibited" else "UNEXPECTED: terminated");
  stuck

let eventual_accuracy_insufficient () =
  (* S algorithm with only eventual accuracy: chaos-phase suspicions of a
     correct coordinator split the estimates -> disagreement somewhere *)
  let proposals = Array.init n (fun i -> i mod 2) in
  let disagreement =
    Ensemble.exists
      (fun seed ->
        let cfg =
          Util.consensus_config ~n ~t:0 ~loss:0.2
            ~oracle:
              (Detector.Oracles.eventually_perfect ~stabilize_at:200
                 ~chaos_rate:0.5 ~seed ())
            seed
        in
        let cfg = { cfg with Sim.fault_plan = Fault_plan.empty } in
        let r =
          Sim.execute cfg
            (Util.uniform (Consensus.Chandra_toueg.make_s ~proposals) cfg)
        in
        Result.is_error (Consensus.Spec.agreement r.Sim.run))
      (Util.seeds 40)
  in
  Format.printf "    %-34s %s@."
    "consensus, S-alg + eventual acc (†)"
    (if disagreement then "agreement violation exhibited"
     else "UNEXPECTED: no violation found");
  disagreement

let ds_needs_majority () =
  (* the majority algorithm loses liveness when t >= n/2 *)
  let proposals = Array.init n (fun i -> i mod 2) in
  let stuck =
    Ensemble.exists
      (fun seed ->
        let cfg =
          Util.consensus_config ~n ~t:(n - 1) ~loss:0.2
            ~oracle:
              (Detector.Oracles.eventually_perfect ~stabilize_at:40 ~seed ())
            seed
        in
        let cfg =
          {
            cfg with
            Sim.fault_plan =
              Fault_plan.crash_at (List.init (n - 1) (fun i -> (i, 4 + i)));
            max_ticks = 1200;
          }
        in
        let r =
          Sim.execute cfg
            (Util.uniform (Consensus.Chandra_toueg.make_ds ~proposals) cfg)
        in
        Result.is_error (Consensus.Spec.termination r.Sim.run))
      (Util.seeds 5)
  in
  Format.printf "    %-34s %s@." "consensus, DS-alg + t>=n/2 (†)"
    (if stuck then "termination failure exhibited" else "UNEXPECTED: terminated");
  stuck

(* The closing line reports what the cells read, and a cell that reads
   otherwise than Table 1 makes the experiment exit 1. *)
let run () =
  let sufficiency = ref [] and daggers = ref [] in
  let cell label verdict =
    sufficiency := show_cell label verdict :: !sufficiency
  in
  let dagger exhibited = daggers := exhibited :: !daggers in
  Util.header "E1: Table 1 (n=6; 20 seeded runs per sufficiency cell)";
  let proposals = Array.init n (fun i -> (i * 3) mod 5) in
  Format.printf "@.  [reliable channels]@.";
  Format.printf "   UDC:@.";
  cell "t<n/2: no FD"
    (udc_suffices ~t:2 ~loss:0.0 ~oracle_of:(fun _ -> Oracle.none)
       ~proto:(module Core.Reliable_udc.P));
  cell "n/2<=t<n-1: no FD"
    (udc_suffices ~t:4 ~loss:0.0 ~oracle_of:(fun _ -> Oracle.none)
       ~proto:(module Core.Reliable_udc.P));
  cell "t=n-1: no FD"
    (udc_suffices ~t:(n - 1) ~loss:0.0 ~oracle_of:(fun _ -> Oracle.none)
       ~proto:(module Core.Reliable_udc.P));
  Format.printf "   consensus:@.";
  cell "t<n/2: eventually-strong FD"
    (consensus_ds_suffices ~t:2 ~loss:0.0 ~proposals);
  cell "n/2<=t<n-1: strong FD"
    (consensus_suffices ~t:4 ~loss:0.0
       ~oracle_of:(fun seed -> Detector.Oracles.strong ~seed ())
       ~proposals);
  cell "t=n-1: perfect FD"
    (consensus_suffices ~t:(n - 1) ~loss:0.0
       ~oracle_of:(fun _ -> Detector.Oracles.perfect ~lag:1 ())
       ~proposals);
  Format.printf "@.  [unreliable (fair-lossy) channels]@.";
  Format.printf "   UDC:@.";
  cell "t<n/2: no FD (Gopal-Toueg)"
    (udc_suffices ~t:2 ~loss:0.3 ~oracle_of:(fun _ -> Oracle.none)
       ~proto:(Core.Majority_udc.make ~t:2));
  cell "n/2<=t<n-1: t-useful gen. FD"
    (udc_suffices ~t:4 ~loss:0.3
       ~oracle_of:(fun _ -> Detector.Oracles.gen_exact ())
       ~proto:(Core.Generalized_udc.make ~t:4));
  dagger
    (adversary_cell "n/2<=t<n-1: no FD fails"
       (Core.Adversary.confined_clique ~n ~t:4 ~seed:11L));
  cell "t=n-1: perfect FD"
    (udc_suffices ~t:(n - 1) ~loss:0.3
       ~oracle_of:(fun _ -> Detector.Oracles.perfect ~lag:1 ())
       ~proto:(module Core.Ack_udc.P));
  dagger
    (adversary_cell "t=n-1: inaccurate FD fails"
       (Core.Adversary.lying_detector ~n ~seed:42L));
  dagger
    (adversary_cell "t=n-1: no FD fails (solo)"
       (Core.Adversary.solo_performer ~n ~seed:42L));
  Format.printf "   consensus:@.";
  cell "t<n/2: eventually-strong FD"
    (consensus_ds_suffices ~t:2 ~loss:0.3 ~proposals);
  cell "t<n/2: eventually-weak FD + gossip"
    (consensus_dw_suffices ~t:2 ~loss:0.3 ~proposals);
  dagger (flp_cell ());
  cell "n/2<=t<n-1: strong FD"
    (consensus_suffices ~t:4 ~loss:0.3
       ~oracle_of:(fun seed -> Detector.Oracles.strong ~seed ())
       ~proposals);
  cell "t=n-1: perfect FD"
    (consensus_suffices ~t:(n - 1) ~loss:0.3
       ~oracle_of:(fun _ -> Detector.Oracles.perfect ~lag:1 ())
       ~proposals);
  dagger (eventual_accuracy_insufficient ());
  dagger (ds_needs_majority ());
  let holds = List.for_all Fun.id (!sufficiency @ !daggers) in
  let count l = List.length (List.filter Fun.id l) in
  let measured =
    if holds then
      "every sufficiency cell coordination-clean over the ensemble; every \
       dagger cell produced the expected violation (see lines above)"
    else
      Printf.sprintf
        "%d of %d sufficiency cells coordination-clean over the ensemble; %d \
         of %d dagger cells produced the expected violation (see lines above)"
        (count !sufficiency) (List.length !sufficiency) (count !daggers)
        (List.length !daggers)
  in
  Util.paper_vs_measured
    ~claim:
      "Table 1: UDC needs {none, t-useful, perfect} as t crosses {n/2, n-1} \
       under unreliable channels; nothing under reliable channels; \
       consensus needs {eventually-weak, strong, perfect} regardless"
    ~measured;
  if not holds then exit 1
