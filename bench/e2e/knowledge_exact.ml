(* knowledge-exact: the paper's own computation. The exhaustive system of
   FIP(Ack_udc) under perfect reports at E6-E8's depth, the epistemic
   checker over it, Prop 3.5 at every (point, process) and Thm 3.6's
   f-construction on every run. It never touches Sim, Shard or Channel.
   Enumeration is exhaustive, so [--seed] changes nothing here. *)

module Checker = Epistemic.Checker
module System = Epistemic.System

let name = "knowledge-exact"
let n = 3
let depth = 7
let alpha0 = Action_id.make ~owner:0 ~tag:0

type input = Enumerate.config

let input ~seed:_ =
  {
    (Enumerate.config ~n ~depth) with
    Enumerate.max_crashes = 2;
    init_plan = Init_plan.one ~owner:0 ~at:1;
    oracle_mode = Enumerate.Perfect_reports;
    max_nodes = 20_000_000;
  }

type outcome = {
  runs : Run.t list;
  stats : Enumerate.stats;
  points : int;
  memo_entries : int;
  antecedent_points : int;
  violations : int;
  accurate_runs : int;
}

(* E7's formulas, built per query as the experiment builds them, so the
   checker interns each one. *)
let antecedent p =
  let open Epistemic.Formula in
  let inits = inited alpha0 in
  knows p
    (inits
    &&& conj
          (List.map
             (fun q -> eventually (knows q inits ||| crashed q))
             (Pid.all n)))

let consequent p =
  let open Epistemic.Formula in
  let inits = inited alpha0 in
  knows p
    (disj (List.map (fun q -> always (neg (crashed q))) (Pid.all n))
    ==> disj
          (List.map
             (fun q -> knows q inits &&& always (neg (crashed q)))
             (Pid.all n)))

let prop35 sys env =
  let ante = ref 0 and bad = ref 0 in
  System.iter_points sys (fun ~run ~tick ->
      List.iter
        (fun p ->
          if Checker.holds env (antecedent p) ~run ~tick then begin
            incr ante;
            if not (Checker.holds env (consequent p) ~run ~tick) then incr bad
          end)
        (Pid.all n));
  (!ante, !bad)

let rep ~domains cfg =
  let out =
    Span.with_ "enumerate.runs" (fun () ->
        Enumerate.runs_exn ~domains cfg
          (Core.Fip.make ~trust_reports:true (module Core.Ack_udc.P)))
  in
  let sys =
    Span.with_ "system.of_runs" (fun () -> System.of_runs out.Enumerate.runs)
  in
  let env = Span.with_ "checker.make" (fun () -> Checker.make sys) in
  let antecedent_points, violations =
    Span.with_ "checker.holds" (fun () -> prop35 sys env)
  in
  let accurate_runs = ref 0 in
  for run = 0 to System.run_count sys - 1 do
    let fr =
      Span.with_ "simulate_fd.f_run" (fun () -> Core.Simulate_fd.f_run env ~run)
    in
    if
      Span.with_ "detector.spec" (fun () ->
          Result.is_ok (Detector.Spec.strong_accuracy fr))
    then incr accurate_runs
  done;
  {
    runs = out.Enumerate.runs;
    stats = out.Enumerate.stats;
    points = System.point_count sys;
    memo_entries = Checker.memo_entries env;
    antecedent_points;
    violations;
    accurate_runs = !accurate_runs;
  }

let check c ~seed ~reference o =
  let runs = List.length o.runs and digest = Enumerate.digest o.runs in
  Check.equal_string c "enumeration digest stable across reps"
    ~expected:(Enumerate.digest reference.runs)
    digest;
  Check.expect c "Prop 3.5 antecedent holds somewhere"
    (o.antecedent_points > 0);
  Check.equal_int c "Prop 3.5 violations" ~expected:0 o.violations;
  Check.equal_int c "Thm 3.6 strong accuracy on every run" ~expected:runs
    o.accurate_runs;
  if seed = 0 then begin
    Check.equal_string c "enumeration digest" ~expected:Pins.knowledge_digest
      digest;
    Check.equal_int c "runs" ~expected:Pins.knowledge_runs runs;
    Check.equal_int c "points" ~expected:Pins.knowledge_points o.points;
    Check.equal_int c "Prop 3.5 antecedent points"
      ~expected:Pins.knowledge_antecedent_points o.antecedent_points
  end

let partition =
  [
    "enumerate.runs.s";
    "system.of_runs.s";
    "checker.make.s";
    "checker.holds.s";
    "simulate_fd.f_run.s";
    "detector.spec.s";
  ]

let remainder = "knowledge.other.s"

let traced c ~seed cfg ~reference =
  let o, spans = Span.collect name (fun () -> rep ~domains:1 cfg) in
  check c ~seed ~reference o;
  let layer = Span.summarise spans in
  let s name = (layer name).self_s in
  let words name = Workload.mwords (layer name).minor in
  let count = float_of_int in
  ( [
      ("enumerate.runs.s", s "enumerate.runs");
      ("enumerate.nodes", count o.stats.Enumerate.nodes);
      ("enumerate.dedup_hits", count o.stats.Enumerate.dedup_hits);
      ("enumerate.runs.minor_mwords", words "enumerate.runs");
      ("system.of_runs.s", s "system.of_runs");
      ("system.points", count o.points);
      ("system.of_runs.minor_mwords", words "system.of_runs");
      ("checker.make.s", s "checker.make");
      ("checker.holds.s", s "checker.holds");
      ("checker.memo_entries", count o.memo_entries);
      ("checker.points_per_s", count (o.points * n) /. s "checker.holds");
      ("simulate_fd.f_run.s", s "simulate_fd.f_run");
      ("simulate_fd.f_run.minor_mwords", words "simulate_fd.f_run");
      ("detector.spec.s", s "detector.spec");
      ("detector.spec.calls", count (List.length o.runs));
    ],
    spans )

let probes _ ~layer:_ = []
