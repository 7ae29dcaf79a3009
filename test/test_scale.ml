(* The sharded large-n engine: shards=1 bit-identity with Sim.execute
   for every oracle, determinism across shard/domain counts,
   record/replay, the ring detector cores, and the statistical
   estimator. *)

let ring_pair backend ~n ~degree =
  match Detector.Backends.of_ring_label backend with
  | Some mk -> mk ~degree ~n ()
  | None -> Alcotest.failf "unknown ring backend %s" backend

(* A supported (Run_to_max, At-triggered) config exercising losses, a
   loss schedule, and mid-run crashes. *)
let scale_config ~n ~seed ~ticks =
  let cfg = Sim.config ~n ~seed in
  {
    cfg with
    Sim.goal = Sim.Run_to_max;
    max_ticks = ticks;
    loss_rate = 0.3;
    loss_schedule = [ (ticks / 2, 0.05) ];
    fault_plan =
      Fault_plan.crash_at [ (1, ticks / 3); (n - 1, ticks / 2) ];
  }

let exec_sharded ?domains backend ~shards ~n ~seed ~ticks =
  let pair = ring_pair backend ~n ~degree:2 in
  let cfg = scale_config ~n ~seed ~ticks in
  Scale.Shard.execute ~shards ?domains
    { cfg with Sim.oracle = pair.Detector.Backends.oracle }
    pair.Detector.Backends.protocol

(* ---------- Sim and Shard over random supported configurations ---------- *)

(* The oracle a case runs under: the detector pair's own, none, or a
   perfect oracle, which reports the view's crash set. *)
type oracle = Pair | No_oracle | Perfect

(* One configuration [Shard.validate] accepts, and how to rebuild its
   single-use detector pair for every execution. *)
type case = {
  backend : string;
  oracle : oracle;
  committee : int; (* pids [0..c-1] run [Ack_udc]; 0 = no committee *)
  cfg : Sim.config; (* [oracle] is filled in by [build] *)
}

let build c =
  let committee =
    if c.committee > 0 then
      Some (c.committee, (module Core.Ack_udc.P : Protocol.S))
    else None
  in
  let pair =
    match Detector.Backends.of_ring_label c.backend with
    | Some mk -> mk ~degree:2 ?committee ~n:c.cfg.Sim.n ()
    | None -> Alcotest.failf "unknown ring backend %s" c.backend
  in
  let oracle =
    match c.oracle with
    | Pair -> pair.Detector.Backends.oracle
    | No_oracle -> Oracle.none
    | Perfect ->
        (* one instance per process, so windows ticking on different
           domains share no table *)
        let per_pid =
          Array.init c.cfg.Sim.n (fun _ -> Detector.Oracles.perfect ())
        in
        { Oracle.name = "perfect"; poll = (fun p v -> per_pid.(p).poll p v) }
  in
  ({ c.cfg with Sim.oracle }, pair.Detector.Backends.protocol)

let show_case c =
  let cfg = c.cfg in
  let pairs f l = String.concat "; " (List.map f l) in
  Format.asprintf
    "%s oracle=%s committee=%d n=%d seed=%LdL ticks=%d loss=%g \
     link_loss=[%s] schedule=[%s] add=%s max_delay=%d max_drops=%d \
     faults=%a inits=%a"
    c.backend
    (match c.oracle with
    | Pair -> "pair"
    | No_oracle -> "none"
    | Perfect -> "perfect")
    c.committee cfg.Sim.n cfg.Sim.seed
    cfg.Sim.max_ticks cfg.Sim.loss_rate
    (pairs (fun ((s, d), r) -> Printf.sprintf "%d->%d:%g" s d r)
       cfg.Sim.link_loss)
    (pairs (fun (t, r) -> Printf.sprintf "%d:%g" t r) cfg.Sim.loss_schedule)
    (match cfg.Sim.add with
    | None -> "none"
    | Some { Channel.window; bound } -> Printf.sprintf "%d/%d" window bound)
    cfg.Sim.max_delay cfg.Sim.max_consecutive_drops Fault_plan.pp
    cfg.Sim.fault_plan Init_plan.pp cfg.Sim.init_plan

(* The hand-picked cases the shards=1 check started from: every ring
   backend with its oracle, seeds 1/7/42, n=7, 120 ticks; and one
   estimator workload (gossip under fair loss with an ack committee,
   n=48, 160 ticks, seed 7), configured as [udc scale] configures it. *)
let current_cases =
  let estimator =
    Scale.Estimate.params ~n:48 ~ticks:160 ~seed:7L ~backend:"gossip" ()
  in
  List.concat_map
    (fun backend ->
      List.map
        (fun seed ->
          {
            backend;
            oracle = Pair;
            committee = 0;
            cfg = scale_config ~n:7 ~seed ~ticks:120;
          })
        [ 1L; 7L; 42L ])
    Detector.Backends.labels
  @ [
      {
        backend = "gossip";
        oracle = Pair;
        committee = estimator.Scale.Estimate.committee;
        cfg = Scale.Estimate.config estimator ~seed:7L;
      };
    ]

(* Schedules may start at tick <= 0 (the pre-run cutover). *)
let case_gen =
  let open QCheck.Gen in
  let* n = int_range 2 12 in
  let* ticks = int_range 1 120 in
  let pid = int_range 0 (n - 1) in
  let tick = int_range 0 ticks in
  let* backend = oneofl Detector.Backends.labels
  and* oracle = oneofl [ Pair; No_oracle; Perfect ]
  and* committee = oneofl [ 0; 0; 2; 3 ]
  and* seed = ui64
  and* loss_rate = oneofl [ 0.0; 0.2; 0.45; 0.8 ]
  and* link_loss =
    list_size (int_range 0 3) (pair (pair pid pid) (oneofl [ 0.0; 0.5; 1.0 ]))
  and* first = oneof [ int_range (-3) 0; int_range 1 ticks ]
  and* steps =
    list_size (int_range 0 3) (pair (int_range 1 40) (oneofl [ 0.0; 0.1; 0.6 ]))
  and* add =
    opt
      (let+ window = int_range 1 4 and+ bound = int_range 1 10 in
       { Channel.window; bound })
  and* max_delay = int_range 1 8
  and* max_consecutive_drops = int_range 0 8
  and* faults = list_size (int_range 0 3) (pair pid tick)
  and* inits = list_size (int_range 0 3) (pair pid tick) in
  let loss_schedule =
    List.rev
      (snd
         (List.fold_left
            (fun (at, acc) (gap, rate) -> (at + gap, (at, rate) :: acc))
            (first, []) steps))
  in
  let init_plan =
    Init_plan.of_entries
      (List.mapi
         (fun tag (owner, at) ->
           { Init_plan.action = Action_id.make ~owner ~tag; at })
         inits)
  in
  return
    {
      backend;
      oracle;
      committee = min committee n;
      cfg =
        {
          (Sim.config ~n ~seed) with
          Sim.goal = Sim.Run_to_max;
          max_ticks = ticks;
          loss_rate;
          link_loss;
          loss_schedule;
          add;
          max_delay;
          max_consecutive_drops;
          fault_plan = Fault_plan.crash_at faults;
          init_plan;
        };
    }

(* [Sim.execute] and [Shard.execute ~shards:1] agree on the digest and
   the stop reason at domains 1/2/4; shards 2 and 3 give one digest at
   domains 1/2/4; and per-shard record/replay reproduces it strictly. *)
let engines_agree =
  QCheck.Test.make ~name:"shards=1 is bit-identical to Sim.execute" ~count:200
    (QCheck.make ~print:show_case
       (QCheck.Gen.graft_corners case_gen current_cases ()))
    (fun c ->
      let digest r = Run.digest r.Sim.run in
      let sharded ?domains shards =
        let cfg, proto = build c in
        Scale.Shard.execute ~shards ?domains cfg proto
      in
      let sim =
        let cfg, proto = build c in
        Sim.execute cfg proto
      in
      List.iter
        (fun domains ->
          let one = sharded ~domains 1 in
          if digest sim <> digest one then
            QCheck.Test.fail_reportf
              "shards=1 digest at domains %d differs from Sim.execute" domains;
          if sim.Sim.reason <> one.Sim.reason then
            QCheck.Test.fail_reportf
              "shards=1 stop reason at domains %d differs from Sim.execute"
              domains)
        [ 1; 2; 4 ];
      List.iter
        (fun shards ->
          let d = digest (sharded ~domains:1 shards) in
          List.iter
            (fun domains ->
              if digest (sharded ~domains shards) <> d then
                QCheck.Test.fail_reportf "shards=%d: domains %d differs from 1"
                  shards domains)
            [ 2; 4 ];
          let cfg, proto = build c in
          let recorded, traces = Scale.Shard.record ~shards cfg proto in
          let cfg, proto = build c in
          let replayed = Scale.Shard.replay ~traces ~shards cfg proto in
          if digest recorded <> d || digest replayed <> d then
            QCheck.Test.fail_reportf "shards=%d: record/replay digest differs"
              shards)
        [ 2; 3 ];
      true)

(* Sharded digests pinned while Sim and Shard still carried two copies of
   the scheduling slot, and kept when they became one tick loop: a
   refactor of the loop must not move them. n=13 splits unevenly at every
   shard count. The committee runs also pin how the pair builder wires an
   application protocol under each ring core. *)
let sharded_pinned_digests () =
  let digest ?(committee = 0) ?add backend ~shards =
    let cfg = scale_config ~n:13 ~seed:2026L ~ticks:100 in
    let cfg =
      match add with
      | None -> cfg
      | Some add -> { cfg with Sim.add = Some add; loss_rate = 0.45 }
    in
    let cfg =
      if committee > 0 then
        { cfg with Sim.init_plan = Init_plan.one ~owner:0 ~at:1 }
      else cfg
    in
    let cfg, proto = build { backend; oracle = Pair; committee; cfg } in
    Run.digest (Scale.Shard.execute ~shards cfg proto).Sim.run
  in
  let cells =
    List.concat_map
      (fun shards ->
        List.map
          (fun backend ->
            (Printf.sprintf "%s shards=%d" backend shards, digest backend ~shards))
          [ "gossip"; "swim"; "phi" ])
      [ 2; 3; 4 ]
    @ [
        ( "gossip ADD 3/7 shards=3",
          digest ~add:{ Channel.window = 3; bound = 7 } "gossip" ~shards:3 );
        ("swim committee 3 shards=3", digest ~committee:3 "swim" ~shards:3);
        ( "gossip committee 3 shards=3",
          digest ~committee:3 "gossip" ~shards:3 );
        ("phi committee 3 shards=3", digest ~committee:3 "phi" ~shards:3);
      ]
  in
  Alcotest.(check (list (pair string string)))
    "sharded digests"
    [
      ("gossip shards=2", "69ccc89063b8d00c8900020bb2f70c96");
      ("swim shards=2", "9476d8617f9c43bd5f03f23cdb0a2583");
      ("phi shards=2", "c13faaf1e12defae7c211e23f6c522f0");
      ("gossip shards=3", "6c2a00ff9f2e59650050cba1983284b8");
      ("swim shards=3", "16472af6dff1048da76bea2af6c58d50");
      ("phi shards=3", "c1fbcbfc87b00e482d8e722a2d176eb4");
      ("gossip shards=4", "33bfeafe3b497e292bb0c392b9fbcf4d");
      ("swim shards=4", "9de02c18fd261513e9d8da9b72e610dc");
      ("phi shards=4", "b56b52e137c5924a9b07628150ddc058");
      ("gossip ADD 3/7 shards=3", "d558b18f943ce4a980b2041c98f00728");
      ("swim committee 3 shards=3", "ac7a857d94624ae7fc47094dd9db1946");
      ("gossip committee 3 shards=3", "397a9e863cbcdef6ffd42e175318c01c");
      ("phi committee 3 shards=3", "7d3e26652c76edb10859ca041ea5a558");
    ]
    cells

let sharded_deterministic () =
  let digest shards domains =
    let r = exec_sharded ~domains "gossip" ~shards ~n:13 ~seed:5L ~ticks:100 in
    Run.digest r.Sim.run
  in
  (* same (seed, shards) at different domain counts: identical *)
  Alcotest.(check string) "domains 1 = 2" (digest 3 1) (digest 3 2);
  Alcotest.(check string) "domains 2 = 4" (digest 3 2) (digest 3 4);
  (* repeatable at the same settings *)
  Alcotest.(check string) "repeatable" (digest 4 2) (digest 4 2)

let shard_record_replay () =
  let pair () = ring_pair "swim" ~n:11 ~degree:2 in
  let cfg seed =
    let p = pair () in
    ( { (scale_config ~n:11 ~seed ~ticks:90) with
        Sim.oracle = p.Detector.Backends.oracle
      },
      p.Detector.Backends.protocol )
  in
  let c1, p1 = cfg 9L in
  let res, traces = Scale.Shard.record ~shards:3 c1 p1 in
  Alcotest.(check int) "one trace per shard" 3 (Array.length traces);
  let c2, p2 = cfg 9L in
  let res' = Scale.Shard.replay ~traces ~shards:3 c2 p2 in
  Alcotest.(check string) "replay digest" (Run.digest res.Sim.run)
    (Run.digest res'.Sim.run)

(* ADD channels through the sharded engine: shards=1 bit-identical to
   Sim.execute, domain-count independent, and record/replay digest-strict
   at domains 1/2/4 (the forced keeps/deliveries consume no decisions, so
   per-shard traces must round-trip unchanged). *)
let shard_add_channels () =
  let add = Some { Channel.window = 3; bound = 7 } in
  let cfg ~seed =
    let p = ring_pair "gossip" ~n:9 ~degree:2 in
    ( { (scale_config ~n:9 ~seed ~ticks:100) with
        Sim.add;
        loss_rate = 0.45;
        oracle = p.Detector.Backends.oracle
      },
      p.Detector.Backends.protocol )
  in
  let c, proto = cfg ~seed:21L in
  let unsharded = Sim.execute c proto in
  let c1, p1 = cfg ~seed:21L in
  let sharded = Scale.Shard.execute ~shards:1 c1 p1 in
  Alcotest.(check string) "shards=1 bit-identical under ADD"
    (Run.digest unsharded.Sim.run)
    (Run.digest sharded.Sim.run);
  List.iter
    (fun domains ->
      let c2, p2 = cfg ~seed:21L in
      let res, traces = Scale.Shard.record ~shards:3 ~domains c2 p2 in
      let c3, p3 = cfg ~seed:21L in
      let res' = Scale.Shard.replay ~traces ~shards:3 ~domains c3 p3 in
      Alcotest.(check string)
        (Printf.sprintf "ADD replay digest-strict at domains %d" domains)
        (Run.digest res.Sim.run)
        (Run.digest res'.Sim.run))
    [ 1; 2; 4 ];
  let digest_at domains =
    let c4, p4 = cfg ~seed:33L in
    Run.digest (Scale.Shard.execute ~shards:3 ~domains c4 p4).Sim.run
  in
  Alcotest.(check string) "ADD domains 1 = 2" (digest_at 1) (digest_at 2);
  Alcotest.(check string) "ADD domains 2 = 4" (digest_at 2) (digest_at 4)

let unsupported_rejected () =
  let p = ring_pair "gossip" ~n:4 ~degree:2 in
  let cfg = Sim.config ~n:4 ~seed:1L in
  Alcotest.check_raises "goal"
    (Invalid_argument "Shard: only the Run_to_max goal is supported")
    (fun () ->
      ignore (Scale.Shard.execute cfg p.Detector.Backends.protocol));
  let p = ring_pair "gossip" ~n:4 ~degree:2 in
  let cfg =
    {
      cfg with
      Sim.goal = Sim.Run_to_max;
      fault_plan =
        Fault_plan.of_entries
          [ { Fault_plan.victim = 1; trigger = Fault_plan.After_any_do } ];
    }
  in
  Alcotest.check_raises "trigger"
    (Invalid_argument "Shard: only At-triggered fault entries are supported")
    (fun () ->
      ignore (Scale.Shard.execute cfg p.Detector.Backends.protocol))

(* Ring cores: in a reliable run, a crashed process is eventually
   suspected by its ring monitors, and nobody suspects a live process. *)
let ring_detects backend () =
  let n = 8 and victim = 3 in
  let pair = ring_pair backend ~n ~degree:2 in
  let cfg = Sim.config ~n ~seed:11L in
  let cfg =
    {
      cfg with
      Sim.goal = Sim.Run_to_max;
      max_ticks = 260;
      fault_plan = Fault_plan.crash_at [ (victim, 40) ];
      oracle = pair.Detector.Backends.oracle;
    }
  in
  let res = Sim.execute cfg pair.Detector.Backends.protocol in
  let run = res.Sim.run in
  let monitors =
    Detector.Backends.ring_watchers ~n ~degree:2 victim
  in
  List.iter
    (fun p ->
      let timeline = Detector.Spec.event_timeline run p in
      let final =
        List.fold_left (fun _ (_, s) -> s) Pid.Set.empty timeline
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: monitor %d suspects %d" backend p victim)
        true
        (Pid.Set.mem victim final))
    monitors;
  (* Lossless channels still jitter deliveries by up to [max_delay], so
     accrual-style detectors may suspect transiently; the honest claim is
     eventual accuracy — final suspicion sets hold only crashed pids. *)
  let horizon = Run.horizon run in
  for p = 0 to n - 1 do
    let final =
      List.fold_left
        (fun _ (_, s) -> s)
        Pid.Set.empty
        (Detector.Spec.event_timeline run p)
    in
    Pid.Set.iter
      (fun q ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %d falsely suspects %d at horizon" backend p q)
          true
          (Run.crashed_by run q horizon))
      final
  done;
  (* Blackout, then recovery, with no crash: every message is lost until
     tick 150, so every monitor suspects both of its watched peers, and
     the lossless second half must retract every suspicion. The cores
     change [suspected] in place; only the adapter's publication carries
     a retraction into the history. Both engines. *)
  let engines =
    [
      ("sim", fun cfg proto -> Sim.execute cfg proto);
      ("shards=2", fun cfg proto -> Scale.Shard.execute ~shards:2 cfg proto);
    ]
  in
  let cfg = Sim.config ~n ~seed:11L in
  let cfg =
    {
      cfg with
      Sim.goal = Sim.Run_to_max;
      max_ticks = 300;
      loss_rate = 1.0;
      loss_schedule = [ (150, 0.0) ];
      max_consecutive_drops = 40;
    }
  in
  List.iter
    (fun (engine, execute) ->
      let pair = ring_pair backend ~n ~degree:2 in
      let run =
        (execute { cfg with Sim.oracle = pair.Detector.Backends.oracle }
           pair.Detector.Backends.protocol)
          .Sim.run
      in
      for p = 0 to n - 1 do
        let timeline = Detector.Spec.event_timeline run p in
        List.iter
          (fun q ->
            Alcotest.(check bool)
              (Printf.sprintf "%s %s blackout: %d suspects %d" backend engine p
                 q)
              true
              (List.exists (fun (_, s) -> Pid.Set.mem q s) timeline))
          (Detector.Backends.ring_watched ~n ~degree:2 p);
        Alcotest.(check bool)
          (Printf.sprintf "%s %s recovery: %d suspects nobody" backend engine p)
          true
          (Pid.Set.is_empty
             (List.fold_left (fun _ (_, s) -> s) Pid.Set.empty timeline))
      done)
    engines;
  (* The same blackout, then a crash after recovery: a monitor that
     suspected both its peers and retracted both must still arm its scan
     for the victim. *)
  let cfg =
    {
      cfg with
      Sim.max_ticks = 400;
      fault_plan = Fault_plan.crash_at [ (victim, 200) ];
    }
  in
  List.iter
    (fun (engine, execute) ->
      let pair = ring_pair backend ~n ~degree:2 in
      let run =
        (execute { cfg with Sim.oracle = pair.Detector.Backends.oracle }
           pair.Detector.Backends.protocol)
          .Sim.run
      in
      let final p =
        List.fold_left
          (fun _ (_, s) -> s)
          Pid.Set.empty
          (Detector.Spec.event_timeline run p)
      in
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s crash after recovery: %d suspects %d"
               backend engine p victim)
            true
            (Pid.Set.mem victim (final p)))
        monitors;
      for p = 0 to n - 1 do
        if p <> victim then
          Alcotest.(check (list int))
            (Printf.sprintf "%s %s crash after recovery: %d's final set" backend
               engine p)
            (if List.mem p monitors then [ victim ] else [])
            (Pid.Set.elements (final p))
      done)
    engines

let phi_deadline_monotone =
  QCheck.Test.make ~name:"phi_deadline inverts phi" ~count:200
    QCheck.(triple (float_range 1.0 60.0) (float_range 0.5 10.0) (float_range 0.5 8.0))
    (fun (mean, std, threshold) ->
      let d =
        Detector.Backends.phi_deadline ~mean ~std ~threshold
      in
      let phi_at e =
        Detector.Backends.phi ~elapsed:(float_of_int e) ~mean ~std
      in
      d >= 1
      && phi_at d > threshold
      && (d = 1 || phi_at (d - 1) <= threshold))

let wilson_interval () =
  let c = Scale.Estimate.wilson ~successes:9 ~trials:10 in
  Alcotest.(check (float 1e-9)) "rate" 0.9 c.Scale.Estimate.rate;
  Alcotest.(check bool) "lo < rate" true (c.Scale.Estimate.lo < 0.9);
  Alcotest.(check bool) "hi > rate" true (c.Scale.Estimate.hi > 0.9);
  (* known Wilson bounds for 9/10 at z = 1.96 *)
  Alcotest.(check bool) "lo ~ 0.596" true
    (Float.abs (c.Scale.Estimate.lo -. 0.59585) < 5e-3);
  Alcotest.(check bool) "hi ~ 0.982" true
    (Float.abs (c.Scale.Estimate.hi -. 0.98213) < 5e-3);
  let z = Scale.Estimate.wilson ~successes:0 ~trials:0 in
  Alcotest.(check bool) "empty trials -> nan" true
    (Float.is_nan z.Scale.Estimate.rate);
  (* no evidence constrains nothing: the vacuous interval, not NaN *)
  Alcotest.(check (float 0.)) "empty trials -> lo 0" 0. z.Scale.Estimate.lo;
  Alcotest.(check (float 0.)) "empty trials -> hi 1" 1. z.Scale.Estimate.hi;
  (* degenerate endpoints collapse to the closed forms: p=0 gives
     [0, z^2/(n+z^2)], p=1 gives [n/(n+z^2), 1] — nonzero width strictly
     inside [0,1] *)
  let zz = 1.96 *. 1.96 in
  let lo0 = Scale.Estimate.wilson ~successes:0 ~trials:10 in
  Alcotest.(check (float 1e-9)) "p=0 lo" 0. lo0.Scale.Estimate.lo;
  Alcotest.(check (float 1e-9)) "p=0 hi"
    (zz /. (10. +. zz))
    lo0.Scale.Estimate.hi;
  let hi1 = Scale.Estimate.wilson ~successes:10 ~trials:10 in
  Alcotest.(check (float 1e-9)) "p=1 lo"
    (10. /. (10. +. zz))
    hi1.Scale.Estimate.lo;
  Alcotest.(check (float 1e-9)) "p=1 hi" 1. hi1.Scale.Estimate.hi;
  Alcotest.(check bool) "p=0 width nonzero" true
    (lo0.Scale.Estimate.hi > lo0.Scale.Estimate.lo);
  Alcotest.(check bool) "p=1 width nonzero" true
    (hi1.Scale.Estimate.hi > hi1.Scale.Estimate.lo)

let estimate_smoke () =
  let p =
    Scale.Estimate.params ~shards:2 ~runs:4 ~ticks:160 ~faults:2
      ~committee:3 ~n:12 ~backend:"gossip" ()
  in
  let r = Scale.Estimate.estimate p in
  let in01 (c : Scale.Estimate.ci) =
    c.Scale.Estimate.trials = 4
    && c.Scale.Estimate.rate >= 0.
    && c.Scale.Estimate.rate <= 1.
    && c.Scale.Estimate.lo <= c.Scale.Estimate.rate
    && c.Scale.Estimate.rate <= c.Scale.Estimate.hi
  in
  List.iter
    (fun (label, c) ->
      Alcotest.(check bool) label true (in01 c))
    [
      ("completeness", r.Scale.Estimate.completeness);
      ("strong", r.Scale.Estimate.strong_accuracy);
      ("weak", r.Scale.Estimate.weak_accuracy);
      ("evP", r.Scale.Estimate.cls_ev_p);
      ("evS", r.Scale.Estimate.cls_ev_s);
    ];
  (* (S,k) scoring rides on the same audit; k-weak is monotone in k on
     every run, so the rate can only drop as k grows *)
  Alcotest.(check (list int)) "Sk levels" [ 2; 3 ]
    (List.map fst r.Scale.Estimate.cls_sk);
  List.iter
    (fun (k, c) ->
      Alcotest.(check bool) (Printf.sprintf "S%d in01" k) true (in01 c))
    r.Scale.Estimate.cls_sk;
  let sk k = List.assoc k r.Scale.Estimate.cls_sk in
  Alcotest.(check bool) "S3 <= S2" true
    ((sk 3).Scale.Estimate.successes <= (sk 2).Scale.Estimate.successes);
  Alcotest.(check bool) "S2 <= S" true
    ((sk 2).Scale.Estimate.successes
    <= r.Scale.Estimate.cls_s.Scale.Estimate.successes);
  Alcotest.(check bool) "committee scored" true
    (r.Scale.Estimate.udc_uniformity <> None);
  Alcotest.(check int) "digest is md5 hex" 32
    (String.length r.Scale.Estimate.digest);
  (* the estimator ensemble is deterministic *)
  let r' = Scale.Estimate.estimate p in
  Alcotest.(check string) "deterministic" r.Scale.Estimate.digest
    r'.Scale.Estimate.digest;
  (* JSON is well-formed enough to round-trip the digest *)
  let js = Scale.Estimate.to_json r in
  Alcotest.(check bool) "json mentions digest" true
    (let needle = r.Scale.Estimate.digest in
     let rec find i =
       i + String.length needle <= String.length js
       && (String.sub js i (String.length needle) = needle || find (i + 1))
     in
     find 0)

let suite =
  [
    QCheck_alcotest.to_alcotest engines_agree;
    Alcotest.test_case "sharded digests are pinned" `Quick
      sharded_pinned_digests;
    Alcotest.test_case "sharded runs are domain-count independent" `Quick
      sharded_deterministic;
    Alcotest.test_case "sharded record/replay round-trips" `Quick
      shard_record_replay;
    Alcotest.test_case "ADD channels shard digest-strict" `Quick
      shard_add_channels;
    Alcotest.test_case "unsupported configs are rejected" `Quick
      unsupported_rejected;
    Alcotest.test_case "gossip ring detects ring crashes" `Quick
      (ring_detects "gossip");
    Alcotest.test_case "phi ring detects ring crashes" `Quick
      (ring_detects "phi");
    Alcotest.test_case "swim ring detects ring crashes" `Quick
      (ring_detects "swim");
    QCheck_alcotest.to_alcotest phi_deadline_monotone;
    Alcotest.test_case "wilson interval" `Quick wilson_interval;
    Alcotest.test_case "estimator smoke" `Slow estimate_smoke;
  ]
