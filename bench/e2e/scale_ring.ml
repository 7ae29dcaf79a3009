(* scale-ring: the `udc scale` / E18 path. A gossip ring estimated on the
   sharded engine: few, large runs, so per-slot cost and per-process
   memory dominate. Same tick kernel, run index and run digest as
   classify-grid, in the opposite shape. *)

module Estimate = Scale.Estimate

let name = "scale-ring"
let n = 4_000
let shards = 4
let runs = 2
let ticks = 120

type input = Estimate.params
type outcome = Estimate.report

let input ~seed =
  Estimate.params ~n ~shards ~degree:2 ~regime:Explore.Classify.Fair_lossy
    ~runs ~ticks ~committee:4
    ~seed:(Int64.of_int (42 + seed))
    ~backend:"gossip" ()

let rep ~domains p =
  Estimate.estimate { p with Estimate.domains = Some domains }

let intervals (r : outcome) =
  [
    Some r.completeness;
    Some r.strong_accuracy;
    Some r.weak_accuracy;
    Some r.ev_strong_accuracy;
    Some r.ev_weak_accuracy;
    Some r.cls_p;
    Some r.cls_s;
    Some r.cls_ev_p;
    Some r.cls_ev_s;
    r.udc_uniformity;
    r.udc_termination;
  ]
  @ List.map (fun (_, ci) -> Some ci) r.cls_sk

let distributions (r : outcome) =
  List.map
    (function
      | None -> []
      | Some (d : Estimate.dist) ->
          [ float_of_int d.samples; d.mean; d.p50; d.p99; d.max ])
    [ r.detection_latency; r.false_per_run ]

let check c ~seed ~(reference : outcome) (r : outcome) =
  Check.equal_string c "estimate digest stable across reps"
    ~expected:reference.digest r.digest;
  Check.equal_int c "process ticks" ~expected:(runs * n * ticks)
    r.process_ticks;
  Check.expect c "every interval over every run"
    (List.for_all
       (function
         | Some (ci : Estimate.ci) ->
             ci.trials = runs && ci.successes >= 0 && ci.successes <= runs
         | None -> false)
       (intervals r));
  if seed = 0 then begin
    Check.expect c "interval successes"
      (List.map
         (Option.fold ~none:(-1) ~some:(fun (ci : Estimate.ci) -> ci.successes))
         (intervals r)
      = Pins.scale_successes);
    Check.expect c "latency and false-suspicion distributions"
      (distributions r = Pins.scale_dists)
  end

(* [Estimate]'s seed list, rebuilt so the traced runs are the estimator's
   own; the ensemble digest comparison proves it. *)
let seeds (p : input) =
  List.init p.runs (fun i ->
      Int64.add p.seed (Int64.of_int ((i * 7919) + 13)))

let config (p : input) seed =
  let mk = Option.get (Detector.Backends.of_ring_label p.backend) in
  let pair =
    mk ~degree:p.degree
      ~committee:(p.committee, (module Core.Ack_udc.P : Protocol.S))
      ~n:p.n ()
  in
  let cfg = Estimate.config p ~seed in
  ( { cfg with Sim.oracle = pair.Detector.Backends.oracle },
    pair.Detector.Backends.protocol )

let partition =
  [
    "shard.execute.s";
    "run_index.of_run.s";
    "detector.spec.s";
    "run.digest.s";
  ]

let remainder = "estimate.other.s"

let traced c ~seed:_ (p : input) ~(reference : outcome) =
  let draws = ref 0 and slots = ref 0 and orders = ref 0 in
  let events = ref 0 and sends = ref 0 and recvs = ref 0 in
  let run_digest seed =
    let cfg, protocol = config p seed in
    let sources =
      Array.init p.shards (fun k ->
          Decision.random ~seed:(Prng.shard_seed cfg.Sim.seed k) ())
    in
    let res =
      Span.with_ "shard.execute" (fun () ->
          Scale.Shard.execute ~shards:p.shards ~domains:1 ~decisions:sources
            cfg protocol)
    in
    let run = res.Sim.run in
    let idx = Span.with_ "run_index.of_run" (fun () -> Run_index.of_run run) in
    (* the estimator's audit reads every process's timeline *)
    Span.with_ "detector.spec" (fun () ->
        List.iter
          (fun q -> ignore (Detector.Spec.event_timeline run q))
          (Pid.all p.n));
    let counts = Run_index.counts idx in
    Array.iter (fun s -> draws := !draws + Decision.count s) sources;
    slots := !slots + (p.n * Run.horizon run);
    orders := !orders + (p.shards * Run.horizon run);
    events := !events + Workload.history_events run;
    sends := !sends + counts.Run_index.sends;
    recvs := !recvs + counts.Run_index.recvs;
    Span.with_ "run.digest" (fun () -> Run.digest run)
  in
  let digest, spans =
    Span.collect name (fun () ->
        let digests = List.map run_digest (seeds p) in
        Digest.to_hex (Digest.string (String.concat "" digests)))
  in
  Check.equal_string c "traced estimate digest" ~expected:reference.digest
    digest;
  let layer = Span.summarise spans in
  let shard = layer "shard.execute" and idx = layer "run_index.of_run" in
  let run_digest = layer "run.digest" and slots = float_of_int !slots in
  ( [
      ("shard.execute.s", shard.self_s);
      ("shard.execute.us_per_slot", shard.self_s /. slots *. 1e6);
      ("shard.execute.minor_mwords", Workload.mwords shard.minor);
      ("shard.process_ticks_per_s", slots /. shard.self_s);
      ("decision.draws", float_of_int !draws);
      ("decision.orders", float_of_int !orders);
      ("history.events", float_of_int !events);
      ("channel.sends", float_of_int !sends);
      ("channel.recvs", float_of_int !recvs);
      ("run_index.of_run.s", idx.self_s);
      ("run_index.of_run.minor_mwords", Workload.mwords idx.minor);
      ("detector.spec.s", (layer "detector.spec").self_s);
      ("detector.spec.calls", float_of_int (p.runs * p.n));
      ("run.digest.s", run_digest.self_s);
      ("run.digest.minor_mwords", Workload.mwords run_digest.minor);
    ],
    spans )

(* The same runs at domains = 2, and through the unsharded kernel. *)
let probes (p : input) ~layer =
  let engine exec =
    List.fold_left
      (fun acc seed ->
        let cfg, protocol = config p seed in
        acc +. snd (Workload.time (fun () -> exec cfg protocol)))
      0. (seeds p)
  in
  let d2 = engine (Scale.Shard.execute ~shards:p.shards ~domains:2) in
  let large_n = engine (fun cfg protocol -> Sim.execute cfg protocol) in
  [
    ("shard.execute.d2.s", d2);
    ("shard.speedup", layer "shard.execute.s" /. d2);
    ("sim.execute.large_n.s", large_n);
  ]
  @ Workload.decision_metrics ~draws:(layer "decision.draws")
      ~orders:(layer "decision.orders") ~order_size:(p.n / p.shards)
      ~engine_s:(layer "shard.execute.s")
