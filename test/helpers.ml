(* Shared test utilities. *)

let check_ok what = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" what e

let check_err what = function
  | Ok () -> Alcotest.failf "%s: expected a violation, got none" what
  | Error _ -> ()

(* A standard UDC workload: every process initiates one action, staggered. *)
let workload n = Init_plan.staggered ~n ~actions_per_process:1 ~spacing:3

(* The one place test files assemble a [Sim.config]; the ad-hoc
   [{ cfg with ... }] blocks route through here. *)
let config ?(loss = 0.0) ?(oracle = Oracle.none) ?(faults = Fault_plan.empty)
    ?(max_ticks = 3000) ?init_plan ~n ~seed () =
  {
    (Sim.config ~n ~seed) with
    Sim.loss_rate = loss;
    oracle;
    fault_plan = faults;
    init_plan = Option.value ~default:(workload n) init_plan;
    max_ticks;
  }

let run_udc ?loss ?oracle ?faults ?max_ticks ?init_plan ~n ~seed proto =
  Sim.execute_uniform
    (config ?loss ?oracle ?faults ?max_ticks ?init_plan ~n ~seed ())
    proto

(* ---------- shared random generators ---------- *)
(* Random protocols, oracles and configurations, all drawn
   deterministically from a seed so a QCheck failure prints a replayable
   counterexample. *)

let random_protocol prng ~n =
  match Prng.int prng 5 with
  | 0 -> ("nudc", (module Core.Nudc.P : Protocol.S))
  | 1 -> ("reliable", (module Core.Reliable_udc.P : Protocol.S))
  | 2 -> ("ack", (module Core.Ack_udc.P : Protocol.S))
  | 3 ->
      let t = 1 + Prng.int prng (max 1 (n - 1)) in
      (Printf.sprintf "majority:%d" t, Core.Majority_udc.make ~t)
  | _ ->
      let t = 1 + Prng.int prng (max 1 (n - 1)) in
      (Printf.sprintf "gen:%d" t, Core.Generalized_udc.make ~t)

let random_oracle prng ~seed =
  match Prng.int prng 4 with
  | 0 -> Oracle.none
  | 1 -> Detector.Oracles.perfect ~lag:(Prng.int prng 3) ()
  | 2 -> Detector.Oracles.strong ~seed ()
  | _ -> Detector.Oracles.gen_exact ()

let random_config ?(max_ticks = 1500) prng ~n ~seed =
  let t = Prng.int prng n in
  config
    ~loss:[| 0.0; 0.2; 0.5 |].(Prng.int prng 3)
    ~oracle:(random_oracle prng ~seed)
    ~faults:(Fault_plan.random prng ~n ~t ~max_tick:30)
    ~init_plan:(Init_plan.staggered ~n ~actions_per_process:1 ~spacing:2)
    ~max_ticks ~n ~seed ()

(* A full random workload — size, protocol and configuration — from one
   seed. *)
let random_setup ?max_ticks seed =
  let prng = Prng.create seed in
  let n = 3 + Prng.int prng 4 in
  let label, proto = random_protocol prng ~n in
  let cfg = random_config ?max_ticks prng ~n ~seed in
  (label, proto, cfg)

let random_result ?max_ticks seed =
  let _, proto, cfg = random_setup ?max_ticks seed in
  (cfg, Sim.execute_uniform cfg proto)

let random_run ?max_ticks seed = (snd (random_result ?max_ticks seed)).Sim.run

(* Check a run respects the model conditions, then a property. *)
let well_formed ?(k = 8) run =
  check_ok "well-formed" (Run.check_well_formed run ~max_consecutive_drops:k)

let seeds count = List.init count (fun i -> Int64.of_int ((i * 7919) + 13))

(* Random *enumeration* workloads for the frontier-enumerator QCheck
   tests: a small bounded context — protocol, oracle mode, crash budget
   and frontier width — drawn deterministically from a seed so a failure
   prints a replayable counterexample. *)
let random_enum_setup seed =
  let prng = Prng.create seed in
  let n = 2 + Prng.int prng 2 in
  let label, proto =
    match Prng.int prng 4 with
    | 0 -> ("nudc", (module Core.Nudc.P : Protocol.S))
    | 1 -> ("reliable", (module Core.Reliable_udc.P : Protocol.S))
    | 2 -> ("ack", (module Core.Ack_udc.P : Protocol.S))
    | _ ->
        ("fip-ack", Core.Fip.make ~trust_reports:true (module Core.Ack_udc.P))
  in
  let oracle_mode =
    match Prng.int prng 3 with
    | 0 -> Enumerate.No_oracle
    | 1 -> Enumerate.Perfect_reports
    | _ -> Enumerate.Lying_reports (Prng.int prng n)
  in
  let cfg = Enumerate.config ~n ~depth:(4 + Prng.int prng 2) in
  let cfg =
    {
      cfg with
      Enumerate.max_crashes = Prng.int prng 3;
      init_plan = Init_plan.one ~owner:0 ~at:1;
      oracle_mode;
      (* frontier 1 makes the root itself the frontier — one subtree, no
         shared prefix — exercising the degenerate decomposition *)
      frontier = [| 1; 8; 64 |].(Prng.int prng 3);
      max_nodes = 20_000_000;
    }
  in
  (label, proto, cfg)

(* ---------- explorer problems ---------- *)

(* A clean problem on four processes with decision-driven crashes (one
   by default): coordinator 0 initiates at tick 1, the CLI's plan for UDC
   protocols. *)
let clean_problem ?(seed = 42L) ?(crash_budget = 1) ~protocol_label ~max_ticks
    property =
  let config =
    {
      (Sim.config ~n:4 ~seed) with
      Sim.init_plan = Init_plan.one ~owner:0 ~at:1;
      max_ticks;
      crash_budget;
    }
  in
  let protocol =
    match Explore.Protocols.instantiate protocol_label ~n:4 with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  Explore.Problem.make ~name:protocol_label ~config ~protocol ~protocol_label
    property
