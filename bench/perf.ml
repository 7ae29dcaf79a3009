(* P1-P4: performance characteristics and ablations (not from the paper —
   standard for a protocol library release). Shape expectations: message
   complexity grows ~quadratically in n for flooding protocols; latency
   grows with loss rate and detection lag; correctness is invariant under
   the fairness-bound ablation. *)

let mean l =
  match l with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Machine-readable records: every section reports its wall time and (when
   meaningful) how many simulated runs it contains; [run] dumps them to
   BENCH_perf.json for the CI/driver to pick up. *)
(* [extra] is a raw JSON fragment (", \"k\": v" ...) appended to the
   experiment's record — enumeration reports nodes/sec and dedup rates
   this way without widening every other record *)
let records : (string * float * int option * string) list ref = ref []

let record ?(extra = "") name ~wall ~runs =
  records := (name, wall, runs, extra) :: !records

let timed name ?runs f =
  let t0 = Unix.gettimeofday () in
  f ();
  record name ~wall:(Unix.gettimeofday () -. t0) ~runs

(* experiment names are data, not format strings: escape them or a name
   with a quote/backslash silently corrupts the whole JSON document *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_floats a =
  String.concat ", "
    (List.map (Printf.sprintf "%.3f") (Array.to_list a))

let write_json path =
  let oc = open_out path in
  let pr fmt = Printf.fprintf oc fmt in
  pr "{\n";
  pr "  \"domains\": %d,\n" (Ensemble.domain_count ());
  pr "  \"recommended_domains\": %d,\n" (Domain.recommended_domain_count ());
  let s = Ensemble.stats () in
  pr "  \"pool\": {\"size\": %d, \"spawned\": %d, \"jobs\": %d, \
     \"pool_tasks\": %d, \"seq_tasks\": %d, \"caller_tasks\": %d, \
     \"worker_tasks\": [%s], \"busy_s\": [%s], \"idle_s\": [%s]},\n"
    s.Ensemble.pool_size s.Ensemble.spawned s.Ensemble.jobs
    s.Ensemble.pool_tasks s.Ensemble.seq_tasks s.Ensemble.caller_tasks
    (String.concat ", "
       (List.map string_of_int (Array.to_list s.Ensemble.worker_tasks)))
    (json_floats s.Ensemble.busy_s)
    (json_floats s.Ensemble.idle_s);
  pr "  \"experiments\": [\n";
  let items = List.rev !records in
  let last = List.length items - 1 in
  List.iteri
    (fun i (name, wall, runs, extra) ->
      let rate =
        match runs with
        | Some r ->
            Printf.sprintf ", \"runs\": %d, \"runs_per_sec\": %.2f" r
              (if wall > 0.0 then float_of_int r /. wall else 0.0)
        | None -> ""
      in
      pr "    {\"name\": \"%s\", \"wall_s\": %.3f%s%s}%s\n" (json_escape name)
        wall rate extra
        (if i = last then "" else ","))
    items;
  pr "  ]\n}\n";
  close_out oc

let run_one ~n ~loss ~t ~oracle ~k ~lag:_ proto seed =
  let prng = Prng.create seed in
  let cfg = Sim.config ~n ~seed in
  let cfg =
    {
      cfg with
      Sim.loss_rate = loss;
      oracle;
      max_consecutive_drops = k;
      fault_plan = Fault_plan.random prng ~n ~t ~max_tick:20;
      init_plan = Init_plan.one ~owner:0 ~at:1;
      max_ticks = 6000;
    }
  in
  Sim.execute cfg (Util.uniform proto cfg)

let alpha0 = Action_id.make ~owner:0 ~tag:0

let message_complexity () =
  Util.header "P2: message complexity vs n (sends per coordinated action)";
  Format.printf "    %-4s %-14s %-14s %-14s %-14s@." "n" "nudc" "reliable"
    "ack+perfect" "majority";
  List.iter
    (fun n ->
      let sends proto oracle loss =
        mean
          (List.map
             (fun seed ->
               let r = run_one ~n ~loss ~t:0 ~oracle ~k:8 ~lag:0 proto seed in
               float_of_int (Stats.of_run r.Sim.run).Stats.sends)
             (Util.seeds 10))
      in
      Format.printf "    %-4d %-14.0f %-14.0f %-14.0f %-14.0f@." n
        (sends (module Core.Nudc.P) Oracle.none 0.2)
        (sends (module Core.Reliable_udc.P) Oracle.none 0.0)
        (sends (module Core.Ack_udc.P) (Detector.Oracles.perfect ()) 0.2)
        (sends (Core.Majority_udc.make ~t:((n - 1) / 2)) Oracle.none 0.2))
    [ 3; 5; 7; 9; 12 ];
  Format.printf
    "    (expected shape: superlinear growth; the reliable protocol's \
     one-shot n(n-1) flood is the floor)@."

(* footnote 11 ablation: stopping retransmission after performing (sound
   under strong accuracy) vs the baseline. *)
let quiet_ablation () =
  Util.header "P2b (ablation, footnote 11): stop retransmitting after do";
  Format.printf "    %-8s %-16s %-16s@." "n" "baseline sends" "quiet sends";
  List.iter
    (fun n ->
      let sends proto =
        mean
          (List.map
             (fun seed ->
               let r =
                 run_one ~n ~loss:0.3 ~t:1
                   ~oracle:(Detector.Oracles.perfect ~lag:1 ())
                   ~k:8 ~lag:0 proto seed
               in
               float_of_int (Stats.of_run r.Sim.run).Stats.sends)
             (Util.seeds 10))
      in
      Format.printf "    %-8d %-16.0f %-16.0f@." n
        (sends (module Core.Ack_udc.P))
        (sends (module Core.Ack_udc.Quiet)))
    [ 4; 6; 8 ];
  Format.printf
    "    (expected: the quiet variant never sends more; correctness is \
     covered by the test suite)@."

let latency_vs_loss () =
  Util.header "P3: latency to uniformity vs loss rate (n=6, ack+perfect)";
  Format.printf "    %-8s %-16s %-12s@." "loss" "latency (ticks)" "sends";
  List.iter
    (fun loss ->
      let ls, ss =
        List.split
          (List.filter_map
             (fun seed ->
               let r =
                 run_one ~n:6 ~loss ~t:2
                   ~oracle:(Detector.Oracles.perfect ())
                   ~k:8 ~lag:0
                   (module Core.Ack_udc.P)
                   seed
               in
               match Stats.uniformity_latency r.Sim.run alpha0 with
               | Some l ->
                   Some
                     ( float_of_int l,
                       float_of_int (Stats.of_run r.Sim.run).Stats.sends )
               | None -> None)
             (Util.seeds 12))
      in
      Format.printf "    %-8.2f %-16.1f %-12.0f@." loss (mean ls) (mean ss))
    [ 0.0; 0.2; 0.4; 0.6; 0.8 ];
  Format.printf
    "    (expected shape: latency and retransmissions grow with loss; \
     correctness never degrades)@."

let fairness_ablation () =
  Util.header
    "P3b (ablation): bounded-unfairness knob k = max consecutive drops";
  Format.printf "    %-6s %-16s %-10s@." "k" "latency (ticks)" "udc ok";
  List.iter
    (fun k ->
      let ok = ref 0 in
      let ls =
        List.filter_map
          (fun seed ->
            let r =
              run_one ~n:6 ~loss:0.5 ~t:2
                ~oracle:(Detector.Oracles.perfect ())
                ~k ~lag:0
                (module Core.Ack_udc.P)
                seed
            in
            if Result.is_ok (Core.Spec.udc r.Sim.run) then incr ok;
            Option.map float_of_int
              (Stats.uniformity_latency r.Sim.run alpha0))
          (Util.seeds 12)
      in
      Format.printf "    %-6d %-16.1f %d/12@." k (mean ls) !ok)
    [ 1; 4; 16; 64 ];
  Format.printf
    "    (expected: correctness invariant in k; only latency moves)@."

let lag_sensitivity () =
  Util.header "P4: failure-detector lag sensitivity (n=6, 2 crashes)";
  Format.printf "    %-6s %-16s@." "lag" "latency (ticks)";
  List.iter
    (fun lag ->
      let ls =
        List.filter_map
          (fun seed ->
            let r =
              run_one ~n:6 ~loss:0.3 ~t:2
                ~oracle:(Detector.Oracles.perfect ~lag ())
                ~k:8 ~lag
                (module Core.Ack_udc.P)
                seed
            in
            Option.map float_of_int (Stats.uniformity_latency r.Sim.run alpha0))
          (Util.seeds 12)
      in
      Format.printf "    %-6d %-16.1f@." lag (mean ls))
    [ 0; 4; 16; 48 ];
  Format.printf "    (expected: latency grows roughly linearly with lag)@."

(* P1: Bechamel micro-benchmarks of the heavy machinery. *)
let bechamel () =
  Util.header "P1: Bechamel micro-benchmarks";
  let open Bechamel in
  let sim_bench =
    Test.make ~name:"sim:ack-udc n=6 loss=0.3"
      (Staged.stage (fun () ->
           ignore
             (run_one ~n:6 ~loss:0.3 ~t:2
                ~oracle:(Detector.Oracles.perfect ())
                ~k:8 ~lag:0
                (module Core.Ack_udc.P)
                7L)))
  in
  let enum_bench =
    Test.make ~name:"enumerate:n=3 depth=6"
      (Staged.stage (fun () ->
           let cfg = Enumerate.config ~n:3 ~depth:6 in
           let cfg =
             {
               cfg with
               Enumerate.max_crashes = 1;
               init_plan = Init_plan.one ~owner:0 ~at:1;
               oracle_mode = Enumerate.Perfect_reports;
             }
           in
           ignore (Enumerate.runs cfg (module Core.Nudc.P))))
  in
  let knowledge_bench =
    let cfg = Enumerate.config ~n:3 ~depth:6 in
    let cfg =
      {
        cfg with
        Enumerate.max_crashes = 1;
        init_plan = Init_plan.one ~owner:0 ~at:1;
        oracle_mode = Enumerate.Perfect_reports;
      }
    in
    let runs = (Enumerate.runs cfg (module Core.Nudc.P)).Enumerate.runs in
    let sys = Epistemic.System.of_runs runs in
    Test.make ~name:"knowledge:K_p crash table"
      (Staged.stage (fun () ->
           let env = Epistemic.Checker.make sys in
           ignore
             (Epistemic.Checker.knows_crashed env 1 ~run:0
                ~tick:(Epistemic.System.horizon sys 0))))
  in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:500 ~quota:(Time.second 1.0) ~kde:None ()
    in
    let raw = Benchmark.all cfg instances test in
    let results =
      Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                     ~predictors:[| Measure.run |])
        (Toolkit.Instance.monotonic_clock) raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] ->
            Format.printf "    %-32s %12.0f ns/run@." name est
        | _ -> Format.printf "    %-32s (no estimate)@." name)
      results
  in
  List.iter
    (fun t -> benchmark (Test.make_grouped ~name:"udc" [ t ]))
    [ sim_bench; enum_bench; knowledge_bench ]

(* P6: the bit-packed truth-table kernel vs the reference bool-array
   evaluator — same system, same formulas, fresh envs. The reference
   verdicts double as a differential oracle: any disagreement aborts the
   bench. *)
let checker_kernel () =
  Util.header "P6: epistemic checker kernel (packed vs reference oracle)";
  let module F = Epistemic.Formula in
  let module C = Epistemic.Checker in
  (* long-horizon simulator runs: hundreds of ticks per row is the shape
     the packed representation targets (one machine word covers 63
     points of a run) *)
  let n = 6 in
  let runs =
    List.map
      (fun seed ->
        let r =
          run_one ~n ~loss:0.6 ~t:2
            ~oracle:(Detector.Oracles.perfect ~lag:8 ())
            ~k:8 ~lag:8
            (module Core.Ack_udc.P)
            seed
        in
        r.Sim.run)
      (Util.seeds 24)
  in
  let sys = Epistemic.System.of_runs runs in
  let pids = Pid.all n in
  let g = Pid.Set.of_list pids in
  let fs =
    List.concat
      [
        (* knowledge ladders and group operators *)
        List.map (fun p -> F.(knows p (inited alpha0))) pids;
        List.map
          (fun p -> F.(knows p (knows ((p + 1) mod n) (inited alpha0))))
          pids;
        [
          F.Ck (g, F.inited alpha0);
          F.Dk (g, F.crashed 1);
          F.(everyone g (inited alpha0));
          F.Prim (F.At_least_crashed (g, 1));
        ];
        (* temporal/boolean sweeps over the whole system *)
        List.concat_map
          (fun p ->
            List.map
              (fun q ->
                F.(
                  knows p (crashed q)
                  ==> eventually (Dk (g, F.crashed q) ||| crashed p)))
              pids)
          pids;
        List.map
          (fun q ->
            F.(
              always (crashed q ==> eventually (knows ((q + 1) mod n)
                                                  (crashed q)))))
          pids;
      ]
  in
  (* each round gets a fresh env (cold memo and class masks) so setup
     cost is charged to both sides; rounds amortize timer noise *)
  let rounds = 5 in
  let time make eval =
    let t0 = Unix.gettimeofday () in
    let r = ref [] in
    for _ = 1 to rounds do
      let env = make sys in
      r := List.map (eval env) fs
    done;
    (Unix.gettimeofday () -. t0, !r)
  in
  let packed_wall, packed =
    time C.make (fun env f -> C.counterexample env f)
  in
  let ref_wall, reference =
    time C.Reference.make (fun env f -> C.Reference.counterexample env f)
  in
  if packed <> reference then
    failwith "checker kernel: packed and reference verdicts differ";
  record "checker-kernel:packed" ~wall:packed_wall ~runs:None;
  record "checker-kernel:reference" ~wall:ref_wall ~runs:None;
  Format.printf "    %-28s %8.4f s@." "packed kernel" packed_wall;
  Format.printf "    %-28s %8.4f s  (speedup %.2fx)@." "reference evaluator"
    ref_wall
    (ref_wall /. packed_wall);
  Format.printf
    "    (differential oracle: verdicts identical on %d formulas over %d \
     points)@."
    (List.length fs)
    (Epistemic.System.point_count sys)

(* P5: throughput of the ensemble engine itself — the same seed list
   mapped sequentially and on the domain pool. The digests double as a
   cheap determinism assertion: the parallel map must reproduce the
   sequential one bit for bit. *)
let ensemble_throughput ~gate () =
  Util.header "P5: ensemble engine throughput (sequential vs domain pool)";
  let nseeds = 16 in
  let seeds = Util.seeds nseeds in
  let sim seed =
    let cfg =
      Util.udc_config ~n:6 ~t:2 ~loss:0.3
        ~oracle:(Detector.Oracles.perfect ()) seed
    in
    Run.digest (Sim.execute cfg (Util.uniform (module Core.Ack_udc.P) cfg)).Sim.run
  in
  let time domains =
    let t0 = Unix.gettimeofday () in
    let digests = Ensemble.run ~domains ~seeds sim in
    (Unix.gettimeofday () -. t0, digests)
  in
  let pool = max (Ensemble.domain_count ()) 1 in
  let seq_wall, seq_digests = time 1 in
  let par_wall, par_digests = time pool in
  if not (List.equal String.equal seq_digests par_digests) then
    failwith "ensemble determinism violated: parallel digests differ";
  record "ensemble-throughput:domains=1" ~wall:seq_wall ~runs:(Some nseeds);
  record
    (Printf.sprintf "ensemble-throughput:domains=%d" pool)
    ~wall:par_wall ~runs:(Some nseeds);
  Format.printf "    %-28s %8.2f runs/s@." "sequential (1 domain)"
    (float_of_int nseeds /. seq_wall);
  Format.printf "    %-28s %8.2f runs/s  (speedup %.2fx)@."
    (Printf.sprintf "pool (%d domains)" pool)
    (float_of_int nseeds /. par_wall)
    (seq_wall /. par_wall);
  Format.printf
    "    (digests of both maps compared: bit-identical on %d runs)@." nseeds;
  (* the same scaling gate as P7, previously missing here: the PR-3
     spawn-per-call regression hit Ensemble.run callers first, but only
     the explorer gated on it. Same multi-core carve-out — on a
     single-core runner extra domains time-share one core and the ratio
     measures the OS scheduler, not the dispatch path. *)
  if
    gate && pool >= 2
    && Domain.recommended_domain_count () >= 2
    && par_wall > 1.10 *. seq_wall
  then
    failwith
      (Printf.sprintf
         "ensemble parallel scaling regressed: domains=%d took %.3fs vs \
          %.3fs at domains=1 (> 10%% slower)"
         pool par_wall seq_wall)

(* P10: the flat (struct-of-arrays) run-representation gate. Throughput
   and allocation of the simulator hot path, plus two self-checking
   digest gates: (a) run digests are bit-identical at domains 1, 2 and 4
   (arena reuse on pool workers cannot leak state between seeds), and
   (b) the first two digests equal pinned values — the runs are the
   ones the simulator has always produced, not merely self-consistent.
   The runs were pinned under the pre-flattening cons-list
   representation and re-pinned once when the digest became
   structural, with their printed forms unchanged. *)
let pinned_digests =
  (* Run.digest for the first two Util.seeds (n=6, t=2, loss=0.3,
     perfect oracle) *)
  [
    (31L, "c2ffa8ead06a39c3c6f6834355bcac46");
    (104760L, "876f719b378f13234c9dcdb568ed030e");
  ]

let flat_run_representation () =
  Util.header
    "P10: flat run representation (throughput, allocation, digest gates)";
  let nseeds = 16 in
  let seeds = Util.seeds nseeds in
  let sim seed =
    let cfg =
      Util.udc_config ~n:6 ~t:2 ~loss:0.3
        ~oracle:(Detector.Oracles.perfect ()) seed
    in
    Run.digest (Sim.execute cfg (Util.uniform (module Core.Ack_udc.P) cfg)).Sim.run
  in
  (* sequential pass: wall time and minor allocation per run *)
  let mw0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let seq_digests = List.map sim seeds in
  let seq_wall = Unix.gettimeofday () -. t0 in
  let minor_per_run = (Gc.minor_words () -. mw0) /. float_of_int nseeds in
  (* gate (a): pool digests bit-identical at several domain counts *)
  List.iter
    (fun domains ->
      let digests = Ensemble.run ~domains ~seeds sim in
      if not (List.equal String.equal seq_digests digests) then
        failwith
          (Printf.sprintf
             "flat representation: digests at --domains %d differ from \
              sequential"
             domains))
    [ 1; 2; 4 ];
  (* gate (b): pinned digests *)
  List.iter
    (fun (seed, expect) ->
      let got = sim seed in
      if not (String.equal got expect) then
        failwith
          (Printf.sprintf
             "flat representation: digest for seed %Ld is %s; pinned %s"
             seed got expect))
    pinned_digests;
  record "flat-representation" ~wall:seq_wall ~runs:(Some nseeds)
    ~extra:
      (Printf.sprintf
         ", \"minor_words_per_run\": %.0f, \"digest_domains\": [1, 2, 4], \
          \"pinned_digest_gate\": true"
         minor_per_run);
  Format.printf "    %-28s %8.2f runs/s@." "throughput (sequential)"
    (float_of_int nseeds /. seq_wall);
  Format.printf "    %-28s %8.0f minor words/run@." "allocation" minor_per_run;
  Format.printf
    "    (digests bit-identical at --domains 1, 2, 4 and equal to the \
     pinned digests)@."

(* P8: exhaustive-enumeration throughput, the frontier-parallel explorer
   behind every theorem-level experiment. The digests double as the
   determinism gate: the run set must be bit-identical at every domain
   count (same digest, same canonical order), and a deliberately
   tiny node budget must raise [Truncated] rather than return a silent
   under-approximation. *)
let enumeration ~smoke () =
  Util.header "P8: exhaustive enumeration (frontier-parallel, sibling rule)";
  let depth = if smoke then 6 else 7 in
  let cfg = Enumerate.config ~n:3 ~depth in
  let cfg =
    {
      cfg with
      Enumerate.max_crashes = 2;
      init_plan = Init_plan.one ~owner:0 ~at:1;
      oracle_mode = Enumerate.Perfect_reports;
      max_nodes = 20_000_000;
    }
  in
  let proto = Core.Fip.make ~trust_reports:true (module Core.Ack_udc.P) in
  let time domains =
    let t0 = Unix.gettimeofday () in
    let out = Enumerate.runs ~domains cfg proto in
    (Unix.gettimeofday () -. t0, out)
  in
  let pool = max (Ensemble.domain_count ()) 2 in
  let seq_wall, seq = time 1 in
  let par_wall, par = time pool in
  if not (String.equal (Enumerate.digest seq.Enumerate.runs)
            (Enumerate.digest par.Enumerate.runs))
  then failwith "enumeration determinism violated: run digests differ";
  let report name wall (out : Enumerate.outcome) =
    let st = out.Enumerate.stats in
    let nodes = st.Enumerate.nodes in
    let hit_rate =
      float_of_int st.Enumerate.dedup_hits
      /. float_of_int (max 1 (nodes + st.Enumerate.dedup_hits))
    in
    record name ~wall
      ~runs:(Some (List.length out.Enumerate.runs))
      ~extra:
        (Printf.sprintf
           ", \"nodes\": %d, \"nodes_per_sec\": %.0f, \"dedup_hits\": %d, \
            \"dedup_hit_rate\": %.4f, \"prefix_nodes\": %d, \"subtrees\": %d"
           nodes
           (if wall > 0.0 then float_of_int nodes /. wall else 0.0)
           st.Enumerate.dedup_hits hit_rate st.Enumerate.prefix_nodes
           st.Enumerate.subtrees)
  in
  report "enumeration:domains=1" seq_wall seq;
  report (Printf.sprintf "enumeration:domains=%d" pool) par_wall par;
  let st = seq.Enumerate.stats in
  Format.printf "    %-28s %8.0f nodes/s@." "sequential (1 domain)"
    (float_of_int st.Enumerate.nodes /. seq_wall);
  Format.printf "    %-28s %8.0f nodes/s  (speedup %.2fx)@."
    (Printf.sprintf "pool (%d domains)" pool)
    (float_of_int st.Enumerate.nodes /. par_wall)
    (seq_wall /. par_wall);
  Format.printf
    "    (digest-identical run sets: %d runs, %d nodes, %d dedup hits, %d \
     subtrees)@."
    (List.length seq.Enumerate.runs)
    st.Enumerate.nodes st.Enumerate.dedup_hits st.Enumerate.subtrees;
  (* the loud-truncation gate: an impossible budget must raise, never
     silently under-approximate the system *)
  let tiny = { cfg with Enumerate.max_nodes = 10 } in
  (match Enumerate.runs_exn tiny proto with
  | exception Enumerate.Truncated _ -> ()
  | _ -> failwith "enumeration truncation gate: runs_exn did not raise");
  let out = Enumerate.runs tiny proto in
  if out.Enumerate.exhaustive then
    failwith "enumeration truncation gate: tiny budget claims exhaustive";
  Format.printf
    "    (truncation gate: max_nodes=10 raises Truncated and reports \
     exhaustive=false)@."

(* P7: schedule-explorer throughput. An exhaustive bounded search with a
   property that never fires (DC3 holds by construction), so the whole
   move space is enumerated; states/sec is explored runs per second, each
   one a full simulation plus the journal scan that derives its children.
   Run sequentially and on the pool; the explored counts double as the
   explorer's determinism assertion. *)
let explorer_throughput ~gate () =
  Util.header "P7: schedule explorer throughput (states per second)";
  let scenario = Core.Adversary.confined_clique ~n:4 ~t:2 ~seed:42L in
  let problem =
    {
      (Explore.Problem.of_scenario scenario) with
      Explore.Problem.property = Explore.Property.Dc3;
    }
  in
  let search domains =
    let options =
      {
        Explore.Engine.default_options with
        Explore.Engine.depth = 2;
        domains = Some domains;
      }
    in
    let t0 = Unix.gettimeofday () in
    let outcome, stats = Explore.Engine.search ~options problem in
    (match outcome with
    | Explore.Engine.Exhausted _ | Explore.Engine.Budget _ -> ()
    | Explore.Engine.Violation _ ->
        failwith "explorer perf: DC3 unexpectedly violated");
    (Unix.gettimeofday () -. t0, stats.Explore.Engine.explored)
  in
  let pool = max (Ensemble.domain_count ()) 1 in
  let seq_wall, explored = search 1 in
  let par_wall, explored' = search pool in
  if explored <> explored' then
    failwith "explorer determinism violated: explored counts differ";
  record "explorer:domains=1" ~wall:seq_wall ~runs:(Some explored);
  record
    (Printf.sprintf "explorer:domains=%d" pool)
    ~wall:par_wall ~runs:(Some explored);
  Format.printf "    %-28s %8.0f states/s@." "sequential (1 domain)"
    (float_of_int explored /. seq_wall);
  Format.printf "    %-28s %8.0f states/s  (speedup %.2fx)@."
    (Printf.sprintf "pool (%d domains)" pool)
    (float_of_int explored /. par_wall)
    (seq_wall /. par_wall);
  Format.printf "    (exhaustive to depth 2: %d states, both counts equal)@."
    explored;
  (* the scaling gate that keeps the PR-3 regression (domains=2 ran the
     explorer 2.2x slower than domains=1, because every 256-node chunk
     spawned and joined fresh domains) from ever coming back. Only
     meaningful where there is parallel hardware to scale onto: on a
     single-core runner extra domains time-share one core and the ratio
     measures the OS scheduler, not the dispatch path. *)
  if
    gate && pool >= 2
    && Domain.recommended_domain_count () >= 2
    && par_wall > 1.10 *. seq_wall
  then
    failwith
      (Printf.sprintf
         "explorer parallel scaling regressed: domains=%d took %.3fs vs \
          %.3fs at domains=1 (> 10%% slower)"
         pool par_wall seq_wall)

(* P9: the explorer at a million states. The heartbeat protocol is the
   reduction showcase: periodic heartbeats pile up into backlogs whose
   pick points repeat the same key sets (pruned by the dpor pick
   refinement) and are absorbed by receivers that never respond (their
   crash points are receive-only deltas, pruned by the crash
   refinement). The same move space is exhausted in bfs and dpor modes
   with the per-family caps opened far past where the default search
   saturates, plus a fuzz phase; together the three phases must visit
   >= 10^6 decision-prefix states inside the CI smoke budget, and dpor
   must exhaust in at most half the runs bfs needs. Both counts are
   deterministic, so the ratio gate cannot flake — only the states/sec
   floor is machine-dependent. The explored/states counts double as the
   work-stealing determinism gate: they must be bit-identical at
   domains=1 and on the pool. *)
let explorer_million ~gate () =
  Util.header "P9: explorer to a million states (dpor reduction + fuzz)";
  let n = 4 in
  let config =
    {
      (Sim.config ~n ~seed:11L) with
      Sim.init_plan = Init_plan.one ~owner:0 ~at:1;
      max_ticks = 60;
      crash_budget = 2;
    }
  in
  let protocol =
    match Explore.Protocols.instantiate "heartbeat" ~n with
    | Ok p -> p
    | Error e -> failwith ("P9: " ^ e)
  in
  let problem =
    Explore.Problem.make ~name:"p9-heartbeat" ~config ~protocol
      ~protocol_label:"heartbeat" Explore.Property.Dc3
  in
  let options mode domains =
    {
      Explore.Engine.default_options with
      Explore.Engine.mode;
      depth = 2;
      max_runs = 120_000;
      crash_points = 1_000;
      pick_points = 1_000;
      domains = Some domains;
      mutants = 16;
    }
  in
  let phase mode domains =
    let t0 = Unix.gettimeofday () in
    let outcome, stats =
      Explore.Engine.search ~options:(options mode domains) problem
    in
    (Unix.gettimeofday () -. t0, outcome, stats)
  in
  let pool = max (Ensemble.domain_count ()) 1 in
  let exhausted mode (outcome : Explore.Engine.outcome) =
    match outcome with
    | Explore.Engine.Exhausted _ -> ()
    | Explore.Engine.Budget _ ->
        failwith
          (Printf.sprintf "P9: %s ran out of budget before the move space"
             (Explore.Engine.mode_to_string mode))
    | Explore.Engine.Violation _ ->
        failwith
          (Printf.sprintf "P9: DC3 unexpectedly violated in %s mode"
             (Explore.Engine.mode_to_string mode))
  in
  let report name wall (stats : Explore.Engine.stats) =
    record name ~wall
      ~runs:(Some stats.Explore.Engine.explored)
      ~extra:
        (Printf.sprintf
           ", \"states\": %d, \"states_per_sec\": %.0f, \"distinct\": %d, \
            \"seen_hits\": %d, \"pruned\": %d"
           stats.Explore.Engine.states
           (if wall > 0.0 then
              float_of_int stats.Explore.Engine.states /. wall
            else 0.0)
           stats.Explore.Engine.distinct stats.Explore.Engine.seen_hits
           stats.Explore.Engine.pruned);
    Format.printf "    %-28s %8.0f states/s  (%d runs, %d states, %d pruned)@."
      name
      (float_of_int stats.Explore.Engine.states /. wall)
      stats.Explore.Engine.explored stats.Explore.Engine.states
      stats.Explore.Engine.pruned
  in
  let bfs_wall, bfs_outcome, bfs = phase Explore.Engine.Bfs 1 in
  exhausted Explore.Engine.Bfs bfs_outcome;
  let dpor_wall, dpor_outcome, dpor = phase Explore.Engine.Dpor 1 in
  exhausted Explore.Engine.Dpor dpor_outcome;
  (* fuzz never exhausts; its budget is its phase size *)
  let fuzz_options domains =
    { (options Explore.Engine.Fuzz domains) with Explore.Engine.max_runs = 600 }
  in
  let fuzz_wall, fuzz_outcome, fuzz =
    let t0 = Unix.gettimeofday () in
    let outcome, stats =
      Explore.Engine.search ~options:(fuzz_options 1) problem
    in
    (Unix.gettimeofday () -. t0, outcome, stats)
  in
  (match fuzz_outcome with
  | Explore.Engine.Budget _ -> ()
  | Explore.Engine.Exhausted _ -> failwith "P9: fuzz claims exhaustion"
  | Explore.Engine.Violation _ ->
      failwith "P9: DC3 unexpectedly violated in fuzz mode");
  report "explorer-p9:bfs" bfs_wall bfs;
  report "explorer-p9:dpor" dpor_wall dpor;
  report "explorer-p9:fuzz" fuzz_wall fuzz;
  (* determinism: the pool must reproduce the sequential counts exactly *)
  if pool >= 2 then begin
    let _, dpor_outcome', dpor' = phase Explore.Engine.Dpor pool in
    exhausted Explore.Engine.Dpor dpor_outcome';
    if
      dpor'.Explore.Engine.explored <> dpor.Explore.Engine.explored
      || dpor'.Explore.Engine.states <> dpor.Explore.Engine.states
      || dpor'.Explore.Engine.seen_hits <> dpor.Explore.Engine.seen_hits
    then
      failwith
        (Printf.sprintf
           "P9 determinism violated: domains=%d explored/states/hits \
            %d/%d/%d vs %d/%d/%d at domains=1"
           pool dpor'.Explore.Engine.explored dpor'.Explore.Engine.states
           dpor'.Explore.Engine.seen_hits dpor.Explore.Engine.explored
           dpor.Explore.Engine.states dpor.Explore.Engine.seen_hits);
    let _, fuzz_outcome', fuzz' =
      let t0 = Unix.gettimeofday () in
      let outcome, stats =
        Explore.Engine.search ~options:(fuzz_options pool) problem
      in
      (Unix.gettimeofday () -. t0, outcome, stats)
    in
    ignore fuzz_outcome';
    if
      fuzz'.Explore.Engine.explored <> fuzz.Explore.Engine.explored
      || fuzz'.Explore.Engine.states <> fuzz.Explore.Engine.states
    then
      failwith
        (Printf.sprintf
           "P9 fuzz determinism violated: domains=%d explored/states %d/%d \
            vs %d/%d at domains=1"
           pool fuzz'.Explore.Engine.explored fuzz'.Explore.Engine.states
           fuzz.Explore.Engine.explored fuzz.Explore.Engine.states)
  end;
  let total_states =
    bfs.Explore.Engine.states + dpor.Explore.Engine.states
    + fuzz.Explore.Engine.states
  in
  let ratio =
    float_of_int bfs.Explore.Engine.explored
    /. float_of_int (max 1 dpor.Explore.Engine.explored)
  in
  let rate = float_of_int total_states /. (bfs_wall +. dpor_wall +. fuzz_wall) in
  record "explorer-p9:total" ~wall:(bfs_wall +. dpor_wall +. fuzz_wall)
    ~runs:
      (Some
         (bfs.Explore.Engine.explored + dpor.Explore.Engine.explored
        + fuzz.Explore.Engine.explored))
    ~extra:
      (Printf.sprintf ", \"states\": %d, \"reduction_ratio\": %.2f" total_states
         ratio);
  Format.printf
    "    (total %d states at %.0f states/s; dpor exhausts in %.2fx fewer \
     runs than bfs)@."
    total_states rate ratio;
  if gate then begin
    (* the tentpole's acceptance gates: a million states inside the smoke
       budget, and the happens-before refinements halving the move space *)
    if total_states < 1_000_000 then
      failwith
        (Printf.sprintf "P9: only %d states visited (target 1e6)" total_states);
    if ratio < 2.0 then
      failwith
        (Printf.sprintf
           "P9 reduction regressed: bfs/dpor explored ratio %.2f < 2.0" ratio);
    (* conservative floor: the seed machine measures ~1.5M states/s *)
    if rate < 100_000.0 then
      failwith
        (Printf.sprintf "P9 throughput regressed: %.0f states/s < 100000" rate)
  end

(* P11: detector classification — one cell of the E17 grid (phi under
   fair loss) run sequentially and on the pool. The outcome digest (MD5
   over the ensemble's run digests in seed order) is the determinism
   gate: classification must be bit-identical at every domain count, or
   the empirical Table 1 rows would depend on the machine that produced
   them. Rides the smoke job. *)
let classification ~smoke () =
  Util.header "P11: detector classification (cross-domain digest gate)";
  let params =
    {
      Explore.Classify.default_params with
      Explore.Classify.runs = (if smoke then 8 else 20);
    }
  in
  let cell domains =
    let t0 = Unix.gettimeofday () in
    match
      Explore.Classify.classify ~domains ~backend:"phi"
        ~regime:Explore.Classify.Fair_lossy params
    with
    | Error e -> failwith ("classification bench: " ^ e)
    | Ok o -> (Unix.gettimeofday () -. t0, o)
  in
  let pool = max (Ensemble.domain_count ()) 1 in
  let seq_wall, seq = cell 1 in
  let par_wall, par = cell pool in
  if not (String.equal seq.Explore.Classify.digest par.Explore.Classify.digest)
  then
    failwith
      (Printf.sprintf
         "classification determinism violated: digest %s at domains=1 vs %s \
          at domains=%d"
         seq.Explore.Classify.digest par.Explore.Classify.digest pool);
  let runs = params.Explore.Classify.runs in
  let extra =
    Printf.sprintf ", \"assignment\": \"%s\", \"digest\": \"%s\""
      (json_escape
         (Explore.Classify.assignment_string seq.Explore.Classify.assignment))
      (json_escape seq.Explore.Classify.digest)
  in
  record "classification:domains=1" ~wall:seq_wall ~runs:(Some runs) ~extra;
  record
    (Printf.sprintf "classification:domains=%d" pool)
    ~wall:par_wall ~runs:(Some runs) ~extra;
  Format.printf "    %-28s %8.2f runs/s@." "sequential (1 domain)"
    (float_of_int runs /. seq_wall);
  Format.printf "    %-28s %8.2f runs/s  (speedup %.2fx)@."
    (Printf.sprintf "pool (%d domains)" pool)
    (float_of_int runs /. par_wall)
    (seq_wall /. par_wall);
  Format.printf
    "    (phi × lossy assignment %S, outcome digest bit-identical at \
     domains 1 and %d)@."
    (Explore.Classify.assignment_string seq.Explore.Classify.assignment)
    pool

(* P12: the sharded large-n engine. Two gates ride the smoke job. The
   fidelity gate runs one small-n workload through [Sim.execute] and
   [Scale.Shard.execute ~shards:1] at domain counts 1/2/4 and requires
   bit-identical run digests. Both engines run the same slot kernel
   ([Sim.tick]), so the gate is a tripwire for what each adds around
   it: a drift means their views, barrier or set-up diverged, and every
   pinned digest in the repo is suspect. The throughput gate times
   [Shard.execute] directly (the estimator's wall clock includes
   indexing, scoring and digesting) on a gossip ring at n = 100k
   (smoke: 10k). The traced end-to-end benchmark (bench/e2e/README.md)
   puts the kernel at about 2us per slot on one core of a 2-vCPU VM,
   of which decision draws are 3.5%; the floor sits 10x under the
   measured rate (conservative floor, same policy as P9). *)
let sharded_engine ~smoke () =
  Util.header "P12: sharded engine (shards=1 digest gate + throughput)";
  let mk_pair =
    match Detector.Backends.of_ring_label "gossip" with
    | Some mk -> mk
    | None -> failwith "P12: gossip backend missing"
  in
  let pair p =
    let committee =
      if p.Scale.Estimate.committee > 0 then
        Some (p.Scale.Estimate.committee, (module Core.Ack_udc.P : Protocol.S))
      else None
    in
    mk_pair ~degree:p.Scale.Estimate.degree ?committee
      ~n:p.Scale.Estimate.n ()
  in
  (* fidelity: small n so the unsharded reference run stays cheap *)
  let p_small =
    Scale.Estimate.params ~n:48 ~ticks:160 ~seed:7L ~backend:"gossip" ()
  in
  let cfg_small = Scale.Estimate.config p_small ~seed:7L in
  let run_with exec =
    let pr = pair p_small in
    exec
      { cfg_small with Sim.oracle = pr.Detector.Backends.oracle }
      pr.Detector.Backends.protocol
  in
  let reference = Run.digest (run_with Sim.execute).Sim.run in
  List.iter
    (fun domains ->
      let d =
        Run.digest
          (run_with (Scale.Shard.execute ~shards:1 ~domains)).Sim.run
      in
      if not (String.equal d reference) then
        failwith
          (Printf.sprintf
             "P12 fidelity violated: shards=1 digest %s at domains=%d vs \
              Sim.execute %s"
             d domains reference))
    [ 1; 2; 4 ];
  Format.printf
    "    digest gate: shards=1 bit-identical to Sim.execute at domains \
     1/2/4 (%s)@."
    reference;
  (* throughput: the bare engine, no committee (the detector ring is the
     per-slot workload the E18 grid scales) *)
  let n = if smoke then 10_000 else 100_000 in
  let ticks = 12 in
  let p_big =
    Scale.Estimate.params ~n ~shards:4 ~committee:0 ~ticks ~faults:2
      ~seed:11L ~backend:"gossip" ()
  in
  let cfg_big = Scale.Estimate.config p_big ~seed:11L in
  let pr = pair p_big in
  let t0 = Unix.gettimeofday () in
  let result =
    Scale.Shard.execute ~shards:4
      { cfg_big with Sim.oracle = pr.Detector.Backends.oracle }
      pr.Detector.Backends.protocol
  in
  let wall = Unix.gettimeofday () -. t0 in
  let rate = float_of_int (n * ticks) /. wall in
  let extra =
    Printf.sprintf
      ", \"n\": %d, \"ticks\": %d, \"process_ticks_per_sec\": %.0f, \
       \"digest\": \"%s\""
      n ticks rate
      (json_escape (Run.digest result.Sim.run))
  in
  record (Printf.sprintf "sharded-engine:n=%d" n) ~wall ~runs:(Some 1) ~extra;
  Format.printf "    %-28s %8.2e processes*ticks/s  (n=%d, %d ticks, %.2fs)@."
    "sharded throughput" rate n ticks wall;
  if rate < 10_000.0 then
    failwith
      (Printf.sprintf
         "P12 throughput regressed: %.0f processes*ticks/s < 10000 \
          (conservative floor: this machine measures ~1e5)"
         rate)

(* [smoke] keeps only the fast self-checking experiments — the kernel
   differential, the ensemble determinism assertion, and the explorer
   determinism assertion — so CI can gate on them and still publish a
   BENCH_perf.json artifact. *)
let run ?(smoke = false) ?(pool_stats = false) () =
  records := [];
  if not smoke then begin
    timed "bechamel" bechamel;
    timed "message-complexity" ~runs:200 message_complexity;
    timed "quiet-ablation" ~runs:60 quiet_ablation;
    timed "latency-vs-loss" ~runs:60 latency_vs_loss;
    timed "fairness-ablation" ~runs:48 fairness_ablation;
    timed "lag-sensitivity" ~runs:48 lag_sensitivity
  end;
  checker_kernel ();
  (* the smoke job gates on ensemble parallel scaling too — Ensemble.run
     callers were the first victims of the spawn-per-call regression *)
  ensemble_throughput ~gate:smoke ();
  (* the flat-representation gate rides the smoke job: CI fails if run
     digests drift from their pins or across domain counts *)
  flat_run_representation ();
  (* enumeration rides the smoke job too: the digest match across domain
     counts and the loud-truncation gate are cheap and self-checking *)
  enumeration ~smoke ();
  (* the smoke job gates on parallel scaling so the spawn-per-call
     regression stays fixed forever *)
  explorer_throughput ~gate:smoke ();
  (* P9 rides the smoke job: the million-state floor, the dpor reduction
     ratio and the cross-domain count equality are all self-checking *)
  explorer_million ~gate:smoke ();
  (* classification rides the smoke job: the cross-domain digest gate
     keeps the empirical Table 1 rows machine-independent *)
  classification ~smoke ();
  (* the sharded engine rides the smoke job: the shards=1 digest gate and
     the throughput floor are both self-checking *)
  sharded_engine ~smoke ();
  write_json "BENCH_perf.json";
  if pool_stats then
    Format.printf "@.  %a@." Ensemble.pp_stats (Ensemble.stats ());
  Format.printf "@.  wrote BENCH_perf.json (%d records; %d domains)@."
    (List.length !records)
    (Ensemble.domain_count ())
