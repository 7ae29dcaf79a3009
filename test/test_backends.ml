(* Implemented detector backends (phi-accrual, SWIM, gossip) and their
   empirical classification.

   The load-bearing claims: a backend run is a pure function of its seed
   (record -> replay digest determinism, fresh pair per execution); on
   reliable channels with no crashes a backend never holds a suspicion at
   the horizon; the phi window statistics are exact at their boundary
   cases; and classification outcomes — the empirical Table 1 rows — are
   bit-identical at every domain count, as is the sampled-knowledge
   overclaim audit they are modelled on. *)

let backends = Detector.Backends.labels

let exec_backend ?(loss = 0.0) ?(faults = Fault_plan.empty) ~n ~seed label =
  let mk =
    match Explore.Protocols.backend_pair label with
    | Some mk -> mk
    | None -> Alcotest.failf "unknown backend %s" label
  in
  let pair = mk ~n in
  let cfg =
    {
      (Sim.config ~n ~seed) with
      Sim.loss_rate = loss;
      oracle = pair.Detector.Backends.oracle;
      fault_plan = faults;
      init_plan = Init_plan.one ~owner:0 ~at:1;
      goal = Sim.Run_to_max;
      max_ticks = 300;
    }
  in
  (Sim.execute cfg pair.Detector.Backends.protocol).Sim.run

(* ---------- record -> replay determinism ---------- *)

let test_same_seed_same_digest () =
  List.iter
    (fun label ->
      List.iter
        (fun seed ->
          let digest () =
            Run.digest
              (exec_backend ~loss:0.3
                 ~faults:(Fault_plan.crash_at [ (1, 40) ])
                 ~n:4 ~seed label)
          in
          Alcotest.(check string)
            (Printf.sprintf "%s seed %Ld" label seed)
            (digest ()) (digest ()))
        (Helpers.seeds 4))
    backends

(* ---------- accuracy on crash-free reliable channels ---------- *)

let test_reliable_crash_free_no_suspicions () =
  List.iter
    (fun label ->
      List.iter
        (fun seed ->
          let run = exec_backend ~n:5 ~seed label in
          List.iter
            (fun p ->
              let final =
                Detector.Spec.suspects_at Detector.Spec.event_timeline run p
                  (Run.horizon run)
              in
              Alcotest.(check bool)
                (Printf.sprintf
                   "%s seed %Ld: p%d holds no suspicion at the horizon" label
                   seed p)
                true
                (Pid.Set.is_empty final))
            (Pid.all (Run.n run)))
        (Helpers.seeds 4))
    backends

(* crashes on reliable channels: every backend detects them (strong
   completeness) and, with losses absent, holds no false suspicion at the
   horizon — the eventually-perfect reading *)
let test_reliable_crash_detection () =
  List.iter
    (fun label ->
      let run =
        exec_backend ~faults:(Fault_plan.crash_at [ (2, 30) ]) ~n:4 ~seed:7L
          label
      in
      Helpers.check_ok
        (Printf.sprintf "%s: strong completeness" label)
        (Detector.Spec.strong_completeness run);
      Helpers.check_ok
        (Printf.sprintf "%s: eventual strong accuracy" label)
        (Detector.Spec.eventual_strong_accuracy run))
    backends

(* ---------- phi window boundary cases ---------- *)

let test_phi_window_boundaries () =
  let module W = Detector.Backends.Phi_window in
  let w = W.create ~capacity:3 in
  Alcotest.(check int) "empty window: count" 0 (W.count w);
  Alcotest.(check (option (float 1e-9))) "empty window: mean" None (W.mean w);
  Alcotest.(check (option (float 1e-9)))
    "empty window: variance" None (W.variance w);
  let w1 = W.observe w 12.0 in
  Alcotest.(check int) "single sample: count" 1 (W.count w1);
  Alcotest.(check (option (float 1e-9)))
    "single sample: mean" (Some 12.0) (W.mean w1);
  Alcotest.(check (option (float 1e-9)))
    "single sample: variance" (Some 0.0) (W.variance w1);
  let w4 = List.fold_left W.observe w [ 8.0; 8.0; 8.0; 8.0 ] in
  Alcotest.(check int) "capacity caps the window" 3 (W.count w4);
  Alcotest.(check (option (float 1e-9)))
    "constant inter-arrivals: mean" (Some 8.0) (W.mean w4);
  Alcotest.(check (option (float 1e-9)))
    "constant inter-arrivals: variance" (Some 0.0) (W.variance w4);
  (* eviction is oldest-first: only the newest [capacity] samples count *)
  let w_mixed =
    List.fold_left W.observe (W.create ~capacity:2) [ 100.0; 4.0; 6.0 ]
  in
  Alcotest.(check (option (float 1e-9)))
    "oldest sample evicted" (Some 5.0)
    (W.mean w_mixed)

let test_phi_monotone () =
  let phi e = Detector.Backends.phi ~elapsed:e ~mean:10.0 ~std:2.0 in
  let rec check prev = function
    | [] -> ()
    | e :: rest ->
        let v = phi e in
        Alcotest.(check bool)
          (Printf.sprintf "phi monotone at elapsed=%.1f" e)
          true (v >= prev);
        check v rest
  in
  check (phi 0.0) [ 2.0; 6.0; 10.0; 14.0; 20.0; 40.0 ];
  (* at the mean the tail probability is 1/2, so phi = log10 2 *)
  Alcotest.(check (float 1e-6))
    "phi at the mean" (log10 2.0)
    (phi 10.0)

(* ---------- classification determinism across domain counts ---------- *)

let classification_domain_invariance =
  QCheck.Test.make ~name:"classification digest identical at domains 1/2/4"
    ~count:4
    QCheck.(
      pair
        (int_range 0 (List.length backends - 1))
        (int_range 0 (List.length Explore.Classify.regimes - 1)))
    (fun (bi, ri) ->
      let backend = List.nth backends bi in
      let regime = List.nth Explore.Classify.regimes ri in
      let params =
        { Explore.Classify.default_params with
          Explore.Classify.runs = 4;
          max_ticks = 120;
          gst = 60;
        }
      in
      let outcome domains =
        match Explore.Classify.classify ~domains ~backend ~regime params with
        | Ok o -> (o.Explore.Classify.digest, o.Explore.Classify.rates)
        | Error e -> QCheck.Test.fail_report e
      in
      let d1 = outcome 1 in
      d1 = outcome 2 && d1 = outcome 4)

(* ---------- pinned classification cells ---------- *)

(* The outcome digest of every classification and k-set cell at a small
   ensemble, plus one larger cell per backend (n = 7, 3 crashes, 400
   ticks): a change to a detector core that moves any run moves one of
   these. *)
let test_cells_pinned () =
  let module C = Explore.Classify in
  let check what expected = function
    | Ok digest -> Alcotest.(check string) what expected digest
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  let cell ?(params = { C.default_params with C.runs = 4 }) backend regime =
    Result.map
      (fun (o : C.outcome) -> o.digest)
      (C.classify ~domains:1 ~backend ~regime params)
  in
  let kset_params =
    { C.default_params with C.n = 4; crashes = 1; runs = 4; max_ticks = 240 }
  in
  let kset backend regime =
    Result.map
      (fun (o : C.kset_outcome) -> o.digest)
      (C.kset ~domains:1 ~backend ~regime ~k:2 kset_params)
  in
  let grid f pins =
    List.iter
      (fun (backend, row) ->
        List.iter2
          (fun regime expected ->
            check
              (Printf.sprintf "%s x %s" backend (C.regime_label regime))
              expected (f backend regime))
          C.regimes row)
      pins
  in
  grid cell
    [
      ( "phi",
        [
          "460cd7f936bee73fbe1da2932ac069d2";
          "a2d47a30d9619f84b78ae2f3d3123729";
          "348a032cc1625d68539669f0de1fba61";
          "613078e36367fa6e92efc1cfad706621";
        ] );
      ( "swim",
        [
          "655749363f2eb8069b0698f93600b92d";
          "6eefa0ea8d22325ba946a3b52891c8a9";
          "781193e00ddf2e38d5121626a886e9d8";
          "ebc95cfd153cb3dadc283f31d9729541";
        ] );
      ( "gossip",
        [
          "ce248d704ef9d19ce60706f900697092";
          "d8994d252faefb7ed8af97e13afb62e2";
          "121d780382115e973cd1291dadb137fc";
          "055b7b10614a81b716eb0be8ea548072";
        ] );
    ];
  grid kset
    [
      ( "phi",
        [
          "8be857fc13cded171ca221bd34dfc749";
          "68aeb7ec50e6dc868a01a7ad401fdaa8";
          "d2406c0264bccc608457de712ab8ddb6";
          "177fc01fab578c9d1d0434c2e22786c9";
        ] );
      ( "swim",
        [
          "9516c33572f68545c4f0e2ac34564591";
          "2130ec1367bec91280058d8b62e22600";
          "43efa27fbf422c75156af8001f836a6e";
          "3e259c60c11984dfc507f247724383e9";
        ] );
      ( "gossip",
        [
          "9e2b94d11ac4a4fd35e283054ecd09d7";
          "74665eea5eb439b49edb660323a41fbc";
          "e6bc0550448a43c4eb95c53ddc6442a8";
          "1268096c85da2fc53e5cac50aadc40f1";
        ] );
    ];
  let large =
    { C.default_params with C.n = 7; crashes = 3; runs = 4; max_ticks = 400 }
  in
  List.iter
    (fun (backend, expected) ->
      check
        (backend ^ " x eventually-timely, n = 7")
        expected
        (cell ~params:large backend C.Eventually_timely))
    [
      ("phi", "debdac8ec8a8f503c42200043d5a61cc");
      ("swim", "097f493fb15107420b8295336845dae8");
      ("gossip", "7588e5d766a1806fc989c7370c4cfa39");
    ]

(* ---------- published suspicions against a model ---------- *)

(* What a monitor should suspect, kept beside the backend: [message]
   draws what [src] sends at [now], [observe] records its arrival, and
   [expected] is the suspicion set the detector's definition gives. *)
type model = {
  message : Random.State.t -> now:int -> src:Pid.t -> Message.t;
  observe : now:int -> src:Pid.t -> Message.t -> unit;
  expected : now:int -> Pid.Set.t;
}

(* φ's definition: suspect [q] when φ(now − anchor) exceeds the
   threshold, the anchor being [q]'s last arrival (0 before any), scored
   against [q]'s inter-arrival window (the bootstrap mean before its
   first sample). [peers] are the monitored pids. *)
let phi_model ~peers () =
  let cfg = Detector.Backends.phi_defaults in
  let module W = Detector.Backends.Phi_window in
  let last = Hashtbl.create 8 and window = Hashtbl.create 8 in
  let window_of q =
    Option.value ~default:(W.create ~capacity:cfg.window)
      (Hashtbl.find_opt window q)
  in
  {
    message = (fun _ ~now ~src:_ -> Message.Heartbeat now);
    observe =
      (fun ~now ~src _ ->
        if List.mem src peers then begin
          (match Hashtbl.find_opt last src with
          | Some l ->
              Hashtbl.replace window src
                (W.observe (window_of src) (float_of_int (now - l)))
          | None -> ());
          Hashtbl.replace last src now
        end);
    expected =
      (fun ~now ->
        List.fold_left
          (fun acc q ->
            let w = window_of q in
            let mean, std =
              match (W.mean w, W.variance w) with
              | Some m, Some v -> (m, Float.max cfg.min_std (sqrt v))
              | _ -> (cfg.bootstrap, cfg.min_std)
            in
            let anchor = Option.value ~default:0 (Hashtbl.find_opt last q) in
            let elapsed = float_of_int (now - anchor) in
            if Detector.Backends.phi ~elapsed ~mean ~std > cfg.threshold then
              Pid.Set.add q acc
            else acc)
          Pid.Set.empty peers);
  }

(* Gossip's definition: suspect [q] when its counter last advanced more
   than [fail_timeout] ticks ago (tick 0 before any advance). A sender
   carries its own counter, advanced, and for some other peers a counter
   that is mostly stale and rarely one ahead. *)
let gossip_model ~n () =
  let cfg = Detector.Backends.gossip_defaults in
  let counter = Array.make n 0 and advanced = Array.make n 0 in
  {
    message =
      (fun rng ~now:_ ~src ->
        Message.Gossip_counters
          (List.filter_map
             (fun q ->
               let c = counter.(q) in
               if q = src then Some (q, c + 1)
               else
                 match Random.State.int rng 8 with
                 | 0 -> Some (q, c + 1)
                 | 1 | 2 -> Some (q, max 0 (c - 1))
                 | 3 | 4 | 5 -> Some (q, c)
                 | _ -> None)
             (Pid.all n)));
    observe =
      (fun ~now ~src:_ -> function
        | Message.Gossip_counters l ->
            List.iter
              (fun (q, c) ->
                if c > counter.(q) then begin
                  counter.(q) <- c;
                  advanced.(q) <- now
                end)
              l
        | _ -> ());
    expected =
      (fun ~now ->
        List.fold_left
          (fun acc q ->
            if q <> 0 && now - advanced.(q) > cfg.fail_timeout then
              Pid.Set.add q acc
            else acc)
          Pid.Set.empty (Pid.all n));
  }

(* The gossip ring's definition: suspect a watched [q] when no heartbeat
   from it arrived for more than [fail_timeout] ticks (tick 0 before
   any). *)
let heard_model ~peers () =
  let cfg = Detector.Backends.gossip_defaults in
  let heard = Hashtbl.create 8 in
  {
    message = (fun _ ~now ~src:_ -> Message.Heartbeat now);
    observe = (fun ~now ~src _ -> Hashtbl.replace heard src now);
    expected =
      (fun ~now ->
        List.fold_left
          (fun acc q ->
            let last = Option.value ~default:0 (Hashtbl.find_opt heard q) in
            if now - last > cfg.fail_timeout then Pid.Set.add q acc else acc)
          Pid.Set.empty peers);
  }

(* Drive monitor 0 of [pair] through a random arrival schedule. Each
   segment is (ticks, live mask): in every tick the monitor either
   receives from a live peer (bit [q - 1] of the mask, probability 1/3)
   or takes a step, so a segment with a sparse mask is a partial
   blackout. After every step, and after every receive when [on_recv],
   the set the monitor's oracle last reported must equal the model's. *)
let published_matches ~name ~on_recv make =
  QCheck.Test.make ~name ~count:200
    QCheck.(
      triple (int_range 3 6)
        (list_of_size (Gen.int_range 1 6)
           (pair (int_range 5 150) (int_bound 63)))
        int)
    (fun (n, segments, seed) ->
      let rng = Random.State.make [| seed |] in
      let (pair : Detector.Backends.pair), model = make ~n in
      let proto = ref (pair.protocol 0) in
      let published = ref Pid.Set.empty in
      let now = ref 0 in
      List.iter
        (fun (ticks, mask) ->
          let live =
            List.filter (fun q -> q > 0 && mask land (1 lsl (q - 1)) <> 0)
              (Pid.all n)
          in
          for _ = 1 to ticks do
            incr now;
            let now = !now in
            let recv = live <> [] && Random.State.int rng 3 = 0 in
            if recv then begin
              let src =
                List.nth live (Random.State.int rng (List.length live))
              in
              let msg = model.message rng ~now ~src in
              model.observe ~now ~src msg;
              proto := Protocol.on_recv !proto ~now ~src msg
            end
            else proto := fst (Protocol.step !proto ~now);
            let view =
              {
                Oracle.now;
                n;
                crashed = Pid.Set.empty;
                planned_faulty = Pid.Set.empty;
              }
            in
            (match pair.oracle.Oracle.poll 0 view with
            | Some r -> published := Report.suspects r
            | None -> ());
            let expected = model.expected ~now in
            let show s =
              String.concat "," (List.map string_of_int (Pid.Set.elements s))
            in
            if (on_recv || not recv) && not (Pid.Set.equal !published expected)
            then
              QCheck.Test.fail_reportf
                "tick %d after a %s: published {%s}, expected {%s}" now
                (if recv then "receive" else "step")
                (show !published) (show expected)
          done)
        segments;
      true)

let full_mesh label = Option.get (Detector.Backends.of_label label)

let phi_published =
  published_matches ~name:"phi publishes its threshold crossings"
    ~on_recv:true (fun ~n ->
      ( full_mesh "phi" ~n,
        phi_model ~peers:(List.filter (fun q -> q <> 0) (Pid.all n)) () ))

let gossip_published =
  published_matches ~name:"gossip publishes its stale counters"
    ~on_recv:true (fun ~n -> (full_mesh "gossip" ~n, gossip_model ~n ()))

(* The ring cores rescan only on a step, so they are checked after
   steps. Monitor 0 watches pids 1 and 2; heartbeats from other pids
   are strays. *)
let watched n = Detector.Backends.ring_watched ~n ~degree:2 0

let ring label ~n =
  let mk = Option.get (Detector.Backends.of_ring_label label) in
  mk ~degree:2 ~n ()

let phi_ring_published =
  published_matches ~name:"phi-ring publishes its threshold crossings"
    ~on_recv:false (fun ~n ->
      (ring "phi" ~n, phi_model ~peers:(watched n) ()))

let gossip_ring_published =
  published_matches ~name:"gossip-ring publishes its silent peers"
    ~on_recv:false (fun ~n ->
      (ring "gossip" ~n, heard_model ~peers:(watched n) ()))

(* ---------- sampled-knowledge overclaim audit determinism ---------- *)

let overclaim_domain_invariance =
  QCheck.Test.make
    ~name:"f_overclaim record bit-identical at domains 1/2/4" ~count:4
    QCheck.(int_range 0 1000)
    (fun salt ->
      let mk_config seed =
        let seed = Int64.add seed (Int64.of_int salt) in
        {
          (Sim.config ~n:3 ~seed) with
          Sim.loss_rate = 0.2;
          oracle = Detector.Oracles.perfect ();
          fault_plan = Fault_plan.crash_at [ (1, 5) ];
          init_plan = Init_plan.one ~owner:0 ~at:1;
          max_ticks = 300;
        }
      in
      let env =
        Core.Sampled.env ~mk_config ~protocol:(module Core.Ack_udc.P) ~runs:6
      in
      let o1 = Core.Sampled.f_overclaim ~domains:1 env in
      o1 = Core.Sampled.f_overclaim ~domains:2 env
      && o1 = Core.Sampled.f_overclaim ~domains:4 env)

let suite =
  [
    Alcotest.test_case "record -> replay: same seed, same digest" `Quick
      test_same_seed_same_digest;
    Alcotest.test_case "reliable crash-free: no suspicion at horizon" `Quick
      test_reliable_crash_free_no_suspicions;
    Alcotest.test_case "reliable crashes: complete and eventually accurate"
      `Quick test_reliable_crash_detection;
    Alcotest.test_case "phi window boundary cases" `Quick
      test_phi_window_boundaries;
    Alcotest.test_case "phi is monotone in elapsed" `Quick test_phi_monotone;
    Alcotest.test_case "classification and k-set cells pinned" `Quick
      test_cells_pinned;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        classification_domain_invariance;
        overclaim_domain_invariance;
        phi_published;
        gossip_published;
        phi_ring_published;
        gossip_ring_published;
      ]
