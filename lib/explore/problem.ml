type t = {
  name : string;
  config : Sim.config;
  protocol : Pid.t -> Protocol.t;
  protocol_label : string;
  adversarial_oracle : bool;
  property : Property.t;
}

let make ?(name = "explore") ?(adversarial_oracle = false) ~config ~protocol
    ~protocol_label property =
  { name; config; protocol; protocol_label; adversarial_oracle; property }

let of_scenario ?(max_ticks = 120) (s : Core.Adversary.scenario) =
  let cfg = s.Core.Adversary.config in
  let adversarial = cfg.Sim.oracle.Oracle.name <> "none" in
  let budget =
    max 1 (Pid.Set.cardinal (Fault_plan.planned_faulty cfg.Sim.fault_plan))
  in
  let config =
    {
      cfg with
      Sim.loss_rate = 0.0;
      link_loss = [];
      fault_plan = Fault_plan.empty;
      blackout_after_do = false;
      oracle = Oracle.none;
      crash_budget = budget;
      max_ticks;
    }
  in
  {
    name = s.Core.Adversary.name;
    config;
    protocol = s.Core.Adversary.protocol;
    protocol_label = s.Core.Adversary.protocol_label;
    adversarial_oracle = adversarial;
    property = Property.Expect s.Core.Adversary.expectation;
  }

let wire ?max_ticks t source =
  let config =
    match max_ticks with
    | None -> t.config
    | Some m -> { t.config with Sim.max_ticks = m }
  in
  if t.adversarial_oracle then
    { config with Sim.oracle = Adversarial.oracle ~n:config.Sim.n source }
  else config

(* Implemented detector backends ship as oracle/protocol pairs sharing
   per-run cells, so each execution needs a fresh pair — the same
   per-run discipline {!wire} applies to the adversarial oracle. *)
let materialize ?max_ticks t source =
  let config = wire ?max_ticks t source in
  match Protocols.backend_pair t.protocol_label with
  | None -> (config, t.protocol)
  | Some mk ->
      let pair = mk ~n:config.Sim.n in
      ( { config with Sim.oracle = pair.Detector.Backends.oracle },
        pair.Detector.Backends.protocol )

let run ?max_ticks ?record t ~plan ~silence =
  let source = Decision.scripted ?record ~plan ~silence () in
  let config, protocol = materialize ?max_ticks t source in
  (Sim.execute ~decisions:source config protocol, source)

let run_guided ?max_ticks t ~trace =
  let source = Decision.guided trace in
  let config, protocol = materialize ?max_ticks t source in
  (Sim.execute ~decisions:source config protocol, source)

let replay ?max_ticks t ~trace =
  let source = Decision.replay trace in
  let config, protocol = materialize ?max_ticks t source in
  Sim.execute ~decisions:source config protocol

let violation t (result : Sim.result) =
  let run = result.Sim.run in
  match Property.violation t.property run with
  | None -> None
  | Some desc -> (
      match
        Run.check_well_formed run
          ~max_consecutive_drops:t.config.Sim.max_consecutive_drops
      with
      | Ok () -> Some desc
      | Error _ -> None)
