(* classify-grid: the `udc classify` / Table-1 path. Every implemented
   backend under every channel regime, classified at the library's
   default parameters, plus the k-set grid on the same cells. Many short
   full-mesh runs, so per-run fixed costs dominate. The seed list is
   fixed inside [Explore.Classify], so [--seed] changes nothing here. *)

module Classify = Explore.Classify

let name = "classify-grid"
let backends = [ "phi"; "swim"; "gossip" ]

let cells =
  List.concat_map
    (fun backend -> List.map (fun regime -> (backend, regime)) Classify.regimes)
    backends

let params = Classify.default_params

let kset_params =
  {
    Classify.default_params with
    n = 4;
    crashes = 1;
    runs = 30;
    max_ticks = 240;
  }

let label (backend, regime) =
  Printf.sprintf "%s x %s" backend (Classify.regime_label regime)

type input = unit

type outcome = {
  cls : Classify.outcome list;
  kset : Classify.kset_outcome list;
}

let input ~seed:_ = ()

let rep ~domains () =
  {
    cls =
      List.map
        (fun (backend, regime) ->
          Workload.ok_exn "classify"
            (Classify.classify ~domains ~backend ~regime params))
        cells;
    kset =
      List.map
        (fun (backend, regime) ->
          Workload.ok_exn "kset"
            (Classify.kset ~domains ~backend ~regime ~k:2 kset_params))
        cells;
  }

let kset_counts (o : Classify.kset_outcome) =
  [ o.attained; o.terminated; o.sk_simulated; o.ks1; o.ks2 ]

let check_cell c ~seed cell (assignment, rates, reports, false_suspicions)
    (o : Classify.outcome) (r : Classify.outcome) =
  let what = label cell in
  Check.equal_string c
    (what ^ " digest stable across reps")
    ~expected:r.digest o.digest;
  Check.expect c (what ^ " rates within runs")
    (List.for_all (fun (_, k) -> k >= 0 && k <= params.runs) o.rates);
  Check.expect c
    (what ^ " false suspicions within reports")
    (o.false_suspicions <= o.reports);
  if seed = 0 then begin
    Check.equal_string c (what ^ " assignment") ~expected:assignment
      (Classify.assignment_string o.assignment);
    Check.expect c (what ^ " rates") (List.map snd o.rates = rates);
    Check.equal_int c (what ^ " reports") ~expected:reports o.reports;
    Check.equal_int c
      (what ^ " false suspicions")
      ~expected:false_suspicions o.false_suspicions
  end

let check_kset c ~seed cell pin (o : Classify.kset_outcome)
    (r : Classify.kset_outcome) =
  let what = "kset " ^ label cell in
  let counts = kset_counts o in
  Check.equal_string c
    (what ^ " digest stable across reps")
    ~expected:r.digest o.digest;
  Check.expect c
    (what ^ " counts within runs")
    (List.for_all (fun k -> k >= 0 && k <= kset_params.runs) counts
    && o.ks1 <= o.attained && o.ks2 <= o.attained);
  if seed = 0 then Check.expect c (what ^ " counts") (counts = pin)

let check c ~seed ~reference o =
  List.iteri
    (fun i cell ->
      let nth l = List.nth l i in
      check_cell c ~seed cell (nth Pins.classify) (nth o.cls)
        (nth reference.cls);
      check_kset c ~seed cell (nth Pins.kset) (nth o.kset)
        (nth reference.kset))
    cells

(* [Classify]'s fixed seed list, rebuilt so the traced cells run the same
   ensembles; the outcome digest comparison proves it. *)
let seeds count = List.init count (fun i -> Int64.of_int ((i * 7919) + 13))

type tally = {
  mutable runs : int;
  mutable draws : int;
  mutable orders : int;
  mutable events : int;
  mutable sends : int;
  mutable recvs : int;
  mutable spec_calls : int;
}

(* One classification cell rebuilt from public calls at domains = 1;
   returns the ensemble's outcome digest. *)
let traced_cell t (backend, regime) =
  let mk = Option.get (Explore.Protocols.backend_pair backend) in
  let run_digest seed =
    let pair = mk ~n:params.n in
    let cfg =
      {
        (Classify.config ~regime ~params ~seed) with
        Sim.oracle = pair.Detector.Backends.oracle;
      }
    in
    let source = Decision.random ~seed:cfg.Sim.seed () in
    let result =
      Span.with_ "sim.execute" (fun () ->
          Sim.execute ~decisions:source cfg pair.Detector.Backends.protocol)
    in
    let run = result.Sim.run in
    let idx = Span.with_ "run_index.of_run" (fun () -> Run_index.of_run run) in
    Span.with_ "detector.spec" (fun () ->
        List.iter
          (fun cls -> ignore (Detector.Spec.satisfies cls run))
          Classify.classes;
        List.iter
          (fun p -> ignore (Detector.Spec.event_timeline run p))
          (Pid.all params.n));
    let counts = Run_index.counts idx in
    t.runs <- t.runs + 1;
    t.draws <- t.draws + Decision.count source;
    t.orders <- t.orders + Run.horizon run;
    t.events <- t.events + Workload.history_events run;
    t.sends <- t.sends + counts.Run_index.sends;
    t.recvs <- t.recvs + counts.Run_index.recvs;
    t.spec_calls <- t.spec_calls + List.length Classify.classes + params.n;
    Span.with_ "run.digest" (fun () -> Run.digest run)
  in
  let digests = List.map run_digest (seeds params.runs) in
  Digest.to_hex (Digest.string (String.concat "" digests))

let partition =
  [
    "sim.execute.s";
    "run_index.of_run.s";
    "detector.spec.s";
    "run.digest.s";
    "classify.kset.s";
  ]

let remainder = "classify.other.s"

let traced c ~seed:_ () ~reference =
  let t =
    {
      runs = 0;
      draws = 0;
      orders = 0;
      events = 0;
      sends = 0;
      recvs = 0;
      spec_calls = 0;
    }
  in
  let (), spans =
    Span.collect name (fun () ->
        List.iter2
          (fun cell (r : Classify.outcome) ->
            Check.equal_string c
              (label cell ^ " traced digest")
              ~expected:r.digest (traced_cell t cell))
          cells reference.cls;
        List.iter2
          (fun (backend, regime) (r : Classify.kset_outcome) ->
            let o =
              Span.with_ "classify.kset" (fun () ->
                  Classify.kset ~domains:1 ~backend ~regime ~k:2 kset_params)
            in
            Check.equal_string c
              ("kset " ^ label (backend, regime) ^ " traced digest")
              ~expected:r.digest (Workload.ok_exn "kset" o).digest)
          cells reference.kset)
  in
  let layer = Span.summarise spans in
  let sim = layer "sim.execute" and idx = layer "run_index.of_run" in
  let kset = layer "classify.kset" and root = layer name in
  let us q = Workload.percentile q sim.durations *. 1e6 in
  ( [
      ("sim.execute.s", sim.self_s);
      ("sim.execute.p50_us", us 0.5);
      ("sim.execute.p99_us", us 0.99);
      ("sim.execute.minor_mwords", Workload.mwords sim.minor);
      ("decision.draws", float_of_int t.draws);
      ("decision.orders", float_of_int t.orders);
      ("history.events", float_of_int t.events);
      ("channel.sends", float_of_int t.sends);
      ("channel.recvs", float_of_int t.recvs);
      ("run_index.of_run.s", idx.self_s);
      ("run_index.of_run.minor_mwords", Workload.mwords idx.minor);
      ("detector.spec.s", (layer "detector.spec").self_s);
      ("detector.spec.calls", float_of_int t.spec_calls);
      ("run.digest.s", (layer "run.digest").self_s);
      ("classify.kset.s", kset.self_s);
      ( "classify.runs_per_s",
        float_of_int t.runs /. (root.total_s -. kset.total_s) );
    ],
    spans )

let probes () ~layer =
  Workload.decision_metrics ~draws:(layer "decision.draws")
    ~orders:(layer "decision.orders") ~order_size:params.n
    ~engine_s:(layer "sim.execute.s")
