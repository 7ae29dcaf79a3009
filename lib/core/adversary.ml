type expectation = Udc_violated | Dc1_violated

type scenario = {
  name : string;
  description : string;
  config : Sim.config;
  protocol : Pid.t -> Protocol.t;
  protocol_label : string;
  expectation : expectation;
}

let uniform proto n = fun p -> Protocol.make proto ~n ~me:p

let base_config ~n ~seed =
  let cfg = Sim.config ~n ~seed in
  {
    cfg with
    Sim.init_plan = Init_plan.one ~owner:0 ~at:1;
    max_ticks = 400;
    (* keep fairness forcing out of the adversary's way: cliques die long
       before this many resends *)
    max_consecutive_drops = 200;
  }

let alpha0 = Action_id.make ~owner:0 ~tag:0

let solo_performer ~n ~seed =
  let cfg = base_config ~n ~seed in
  let cfg =
    {
      cfg with
      Sim.fault_plan =
        Fault_plan.of_entries
          [ { victim = 0; trigger = Fault_plan.After_did (0, alpha0) } ];
      blackout_after_do = true;
    }
  in
  {
    name = "solo-performer";
    description =
      Printf.sprintf
        "majority protocol instantiated with t=%d (threshold 1): p0 \
         performs alone, crashes, nobody else ever hears of the action"
        (n - 1);
    config = cfg;
    protocol = uniform (Majority_udc.make ~t:(n - 1)) n;
    protocol_label = Printf.sprintf "majority:%d" (n - 1);
    expectation = Udc_violated;
  }

(* Every link from inside the clique to outside it is fully lossy. *)
let confinement_links ~n clique =
  List.concat_map
    (fun src ->
      List.filter_map
        (fun dst ->
          if Pid.Set.mem src clique && not (Pid.Set.mem dst clique) then
            Some ((src, dst), 1.0)
          else None)
        (Pid.all n))
    (Pid.all n)

let kill_clique_after_do clique =
  Fault_plan.of_entries
    (List.map
       (fun victim -> { Fault_plan.victim; trigger = Fault_plan.After_did (0, alpha0) })
       (Pid.Set.elements clique))

let confined_clique ~n ~t ~seed =
  if not (2 * t >= n && t < n - 1) then
    invalid_arg "Adversary.confined_clique: requires n/2 <= t < n-1";
  let clique = Pid.Set.of_list (List.init (n - t) (fun i -> i)) in
  let cfg = base_config ~n ~seed in
  let cfg =
    {
      cfg with
      Sim.link_loss = confinement_links ~n clique;
      fault_plan = kill_clique_after_do clique;
      blackout_after_do = true;
    }
  in
  {
    name = Printf.sprintf "confined-clique(t=%d)" t;
    description =
      Printf.sprintf
        "majority protocol with t=%d: the %d-process clique %s coordinates \
         over clean links, every link out of it is lossy; the clique \
         performs and dies"
        t (n - t)
        (Pid.Set.to_string clique);
    config = cfg;
    protocol = uniform (Majority_udc.make ~t) n;
    protocol_label = Printf.sprintf "majority:%d" t;
    expectation = Udc_violated;
  }

let lying_detector ~n ~seed =
  let clique = Pid.Set.of_list [ 0; 1 ] in
  let outsiders = Pid.Set.complement n clique in
  let cfg = base_config ~n ~seed in
  let cfg =
    {
      cfg with
      Sim.link_loss = confinement_links ~n clique;
      fault_plan = kill_clique_after_do clique;
      oracle = Detector.Oracles.lying ~victims:outsiders ~from:1;
      blackout_after_do = true;
    }
  in
  {
    name = "lying-detector";
    description =
      "ack protocol (Prop 3.1) with a detector that falsely suspects every \
       process outside the clique {p0,p1}: weak accuracy fails, the clique \
       performs and dies";
    config = cfg;
    protocol = uniform (module Ack_udc.P) n;
    protocol_label = "ack";
    expectation = Udc_violated;
  }

let blind_detector ~n ~seed =
  let cfg = base_config ~n ~seed in
  let cfg =
    {
      cfg with
      Sim.loss_rate = 0.2;
      max_consecutive_drops = 8;
      fault_plan = Fault_plan.crash_at [ (n - 1, 1) ];
      init_plan = Init_plan.one ~owner:0 ~at:3;
      oracle = Dist.Oracle.none;
    }
  in
  {
    name = "blind-detector";
    description =
      "ack protocol (Prop 3.1) with no failure detector: the last process \
       crashes before the action is initiated, so its acknowledgment never \
       comes and the initiator blocks forever";
    config = cfg;
    protocol = uniform (module Ack_udc.P) n;
    protocol_label = "ack";
    expectation = Dc1_violated;
  }

let all ~n ~seed =
  [
    solo_performer ~n ~seed;
    confined_clique ~n ~t:(n / 2) ~seed;
    lying_detector ~n ~seed;
    blind_detector ~n ~seed;
  ]

let errorf fmt = Format.kasprintf (fun s -> Error s) fmt

let check_expectation expectation run =
  match expectation with
  | Udc_violated -> (
      match (Spec.dc2 run, Spec.dc1 run, Spec.dc3 run) with
      | Ok (), _, _ -> Error "expected a DC2 violation, run is uniform"
      | Error _, Error e, _ ->
          errorf "DC1 also failed (%s); expected a pure uniformity violation" e
      | Error _, Ok (), Error e -> errorf "DC3 failed unexpectedly (%s)" e
      | Error d, Ok (), Ok () -> Ok ("DC2 violated: " ^ d))
  | Dc1_violated -> (
      match Spec.dc1 run with
      | Ok () -> Error "expected a DC1 violation, initiator finished"
      | Error d -> (
          match Spec.dc3 run with
          | Error e -> errorf "DC3 failed unexpectedly (%s)" e
          | Ok () -> Ok ("DC1 violated: " ^ d)))

let verify scenario =
  let result = Sim.execute scenario.config scenario.protocol in
  match check_expectation scenario.expectation result.Sim.run with
  | Ok _ -> Ok ()
  | Error e -> errorf "%s: %s" scenario.name e

let verify_all scenarios =
  Ensemble.map (fun s -> (s, verify s)) scenarios
