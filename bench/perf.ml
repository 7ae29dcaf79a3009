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

(* [f ()] and its wall time in seconds *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let timed name ?runs f =
  let wall, () = time f in
  record name ~wall ~runs

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

(* The determinism gate: [out], computed at [domains], must carry the key
   of [seq], computed at domains 1. *)
let same_key what ~key ~domains seq out =
  let k1 = key seq and k = key out in
  if not (String.equal k1 k) then
    failwith
      (Printf.sprintf
         "%s determinism violated: %s at domains=1 vs %s at domains=%d" what
         k1 k domains)

(* The harness P5, P7, P8 and P11 share: run [work] at domains 1 and on
   [pool] domains, fail unless both results have the same [key], record
   both as [name:domains=D] ([runs] and [extra] fill a record from its
   wall time and result) and print both rates of [count] items per
   second. Returns the domains-1 wall time and result. [gate] fails the
   bench when the pool is more than 10% slower than domains 1, so the
   spawn-per-call regression (domains=2 ran the explorer 2.2x slower
   because every 256-node chunk spawned fresh domains; seed-ensemble
   callers were hit first) cannot come back. It needs parallel hardware:
   on a single-core runner extra domains time-share one core and the
   ratio measures the OS scheduler, not the dispatch path. *)
let measure ~name ~unit ?(pool = max (Ensemble.domain_count ()) 1)
    ?(gate = false) ~key ~count ?(runs = count) ?(extra = fun _ _ -> "") work
    =
  let seq_wall, seq = time (fun () -> work 1) in
  let par_wall, par = time (fun () -> work pool) in
  same_key name ~key ~domains:pool seq par;
  List.iter
    (fun (domains, wall, out) ->
      record
        (Printf.sprintf "%s:domains=%d" name domains)
        ~wall ~runs:(Some (runs out)) ~extra:(extra wall out))
    [ (1, seq_wall, seq); (pool, par_wall, par) ];
  let rate wall = float_of_int (count seq) /. wall in
  Format.printf "    %-28s %10.2f %s@." "sequential (1 domain)" (rate seq_wall)
    unit;
  Format.printf "    %-28s %10.2f %s  (speedup %.2fx)@."
    (Printf.sprintf "pool (%d domains)" pool)
    (rate par_wall) unit (seq_wall /. par_wall);
  if
    gate && pool >= 2
    && Domain.recommended_domain_count () >= 2
    && par_wall > 1.10 *. seq_wall
  then
    failwith
      (Printf.sprintf
         "%s parallel scaling regressed: domains=%d took %.3fs vs %.3fs at \
          domains=1 (> 10%% slower)"
         name pool par_wall seq_wall);
  (seq_wall, seq)

let run_one ~n ~loss ~t ~oracle ~k proto seed =
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
               let r = run_one ~n ~loss ~t:0 ~oracle ~k:8 proto seed in
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
                   ~k:8 proto seed
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
                   ~k:8
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
                ~k
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
                ~k:8
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
                ~k:8
                (module Core.Ack_udc.P)
                7L)))
  in
  let enum_cfg =
    {
      (Enumerate.config ~n:3 ~depth:6) with
      Enumerate.max_crashes = 1;
      init_plan = Init_plan.one ~owner:0 ~at:1;
      oracle_mode = Enumerate.Perfect_reports;
    }
  in
  let enum_bench =
    Test.make ~name:"enumerate:n=3 depth=6"
      (Staged.stage (fun () ->
           ignore (Enumerate.runs enum_cfg (module Core.Nudc.P))))
  in
  let knowledge_bench =
    let runs = (Enumerate.runs enum_cfg (module Core.Nudc.P)).Enumerate.runs in
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
            ~k:8
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
  let verdicts make eval =
    time (fun () ->
        let r = ref [] in
        for _ = 1 to rounds do
          let env = make sys in
          r := List.map (eval env) fs
        done;
        !r)
  in
  let packed_wall, packed =
    verdicts C.make (fun env f -> C.counterexample env f)
  in
  let ref_wall, reference =
    verdicts C.Reference.make (fun env f -> C.Reference.counterexample env f)
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

(* P5/P10: throughput and allocation of the simulator hot path over the
   flat (struct-of-arrays) run representation, through the ensemble
   engine. The run digests double as the determinism gate: they must be
   bit-identical at domains 1, 2 and 4 and on the pool; test_flat_history
   pins the first two. Minor words per run come from the domains-1 pass,
   which runs on the calling domain. *)
let ensemble_throughput ~gate () =
  Util.header "P5/P10: ensemble throughput over the flat run representation";
  let nseeds = 16 in
  let seeds = Util.seeds nseeds in
  let sim seed =
    let cfg =
      Util.udc_config ~n:6 ~t:2 ~loss:0.3
        ~oracle:(Detector.Oracles.perfect ()) seed
    in
    Run.digest (Sim.execute cfg (Util.uniform (module Core.Ack_udc.P) cfg)).Sim.run
  in
  let work domains =
    let mw0 = Gc.minor_words () in
    let digests = Ensemble.map ~domains sim seeds in
    (digests, Gc.minor_words () -. mw0)
  in
  let key (digests, _) =
    Digest.to_hex (Digest.string (String.concat "" digests))
  in
  let wall, ((_, minor_words) as seq) =
    measure ~name:"ensemble-throughput" ~unit:"runs/s" ~gate ~key
      ~count:(fun _ -> nseeds)
      work
  in
  List.iter
    (fun domains ->
      same_key "ensemble-throughput" ~key ~domains seq (work domains))
    [ 2; 4 ];
  let minor_per_run = minor_words /. float_of_int nseeds in
  record "flat-representation" ~wall ~runs:(Some nseeds)
    ~extra:
      (Printf.sprintf
         ", \"minor_words_per_run\": %.0f, \"digest_domains\": [1, 2, 4]"
         minor_per_run);
  Format.printf "    %-28s %10.0f minor words/run@." "allocation" minor_per_run;
  Format.printf
    "    (digests of %d runs bit-identical at domains 1, 2, 4 and on the \
     pool)@."
    nseeds

(* P8: exhaustive-enumeration throughput, the frontier-parallel explorer
   behind every theorem-level experiment. The run-set digest is the
   determinism gate: the run set must be bit-identical at every domain
   count (same digest, same canonical order), so the pool has at least 2
   domains even where the default pool has one. test_enumerate pins the
   smoke system (E6 perfect) at domains 1 and 2, and checks that a tiny
   node budget raises [Truncated] instead of under-approximating. *)
let enumeration ~smoke () =
  Util.header "P8: exhaustive enumeration (frontier-parallel, sibling rule)";
  let depth = if smoke then 6 else 7 in
  let cfg =
    {
      (Enumerate.config ~n:3 ~depth) with
      Enumerate.max_crashes = 2;
      init_plan = Init_plan.one ~owner:0 ~at:1;
      oracle_mode = Enumerate.Perfect_reports;
      max_nodes = 20_000_000;
    }
  in
  let proto = Core.Fip.make ~trust_reports:true (module Core.Ack_udc.P) in
  let nodes (out : Enumerate.outcome) = out.Enumerate.stats.Enumerate.nodes in
  let extra wall (out : Enumerate.outcome) =
    let st = out.Enumerate.stats in
    let hit_rate =
      float_of_int st.Enumerate.dedup_hits
      /. float_of_int (max 1 (nodes out + st.Enumerate.dedup_hits))
    in
    Printf.sprintf
      ", \"nodes\": %d, \"nodes_per_sec\": %.0f, \"dedup_hits\": %d, \
       \"dedup_hit_rate\": %.4f, \"prefix_nodes\": %d, \"subtrees\": %d"
      (nodes out)
      (if wall > 0.0 then float_of_int (nodes out) /. wall else 0.0)
      st.Enumerate.dedup_hits hit_rate st.Enumerate.prefix_nodes
      st.Enumerate.subtrees
  in
  let _, out =
    measure ~name:"enumeration" ~unit:"nodes/s"
      ~pool:(max (Ensemble.domain_count ()) 2)
      ~key:(fun out -> Enumerate.digest out.Enumerate.runs)
      ~count:nodes
      ~runs:(fun out -> List.length out.Enumerate.runs)
      ~extra
      (fun domains -> Enumerate.runs ~domains cfg proto)
  in
  let st = out.Enumerate.stats in
  Format.printf
    "    (digest-identical run sets: %d runs, %d nodes, %d dedup hits, %d \
     subtrees)@."
    (List.length out.Enumerate.runs)
    st.Enumerate.nodes st.Enumerate.dedup_hits st.Enumerate.subtrees

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
    match Explore.Engine.search ~options problem with
    | (Explore.Engine.Exhausted _ | Explore.Engine.Budget _), stats ->
        stats.Explore.Engine.explored
    | Explore.Engine.Violation _, _ ->
        failwith "explorer perf: DC3 unexpectedly violated"
  in
  let _, explored =
    measure ~name:"explorer" ~unit:"states/s" ~gate ~key:string_of_int
      ~count:Fun.id search
  in
  Format.printf "    (exhaustive to depth 2: %d states, both counts equal)@."
    explored

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
  let open Explore.Engine in
  let options mode domains =
    {
      default_options with
      mode;
      depth = 2;
      (* fuzz never exhausts; its budget is its phase size *)
      max_runs = (if mode = Fuzz then 600 else 120_000);
      crash_points = 1_000;
      pick_points = 1_000;
      domains = Some domains;
      mutants = 16;
    }
  in
  (* bfs and dpor must exhaust the move space; fuzz must end on its
     budget *)
  let phase mode domains =
    let wall, (outcome, stats) =
      time (fun () -> search ~options:(options mode domains) problem)
    in
    (match (mode, outcome) with
    | Fuzz, Budget _ | (Bfs | Dpor), Exhausted _ -> ()
    | _, (Exhausted _ | Budget _) ->
        failwith
          (Printf.sprintf "P9: %s %s" (mode_to_string mode)
             (if mode = Fuzz then "claims exhaustion"
              else "ran out of budget before the move space"))
    | _, Violation _ ->
        failwith
          (Printf.sprintf "P9: DC3 unexpectedly violated in %s mode"
             (mode_to_string mode)));
    (wall, stats)
  in
  let report name wall stats =
    record name ~wall ~runs:(Some stats.explored)
      ~extra:
        (Printf.sprintf
           ", \"states\": %d, \"states_per_sec\": %.0f, \"distinct\": %d, \
            \"seen_hits\": %d, \"pruned\": %d"
           stats.states
           (if wall > 0.0 then float_of_int stats.states /. wall else 0.0)
           stats.distinct stats.seen_hits stats.pruned);
    Format.printf "    %-28s %8.0f states/s  (%d runs, %d states, %d pruned)@."
      name
      (float_of_int stats.states /. wall)
      stats.explored stats.states stats.pruned
  in
  let bfs_wall, bfs = phase Bfs 1 in
  let dpor_wall, dpor = phase Dpor 1 in
  let fuzz_wall, fuzz = phase Fuzz 1 in
  report "explorer-p9:bfs" bfs_wall bfs;
  report "explorer-p9:dpor" dpor_wall dpor;
  report "explorer-p9:fuzz" fuzz_wall fuzz;
  (* determinism: the pool must reproduce the sequential counts exactly *)
  let pool = max (Ensemble.domain_count ()) 1 in
  let key s =
    Printf.sprintf "explored/states/hits %d/%d/%d" s.explored s.states
      s.seen_hits
  in
  if pool >= 2 then
    List.iter
      (fun (mode, stats) ->
        same_key "P9" ~key ~domains:pool stats (snd (phase mode pool)))
      [ (Dpor, dpor); (Fuzz, fuzz) ];
  let total_states = bfs.states + dpor.states + fuzz.states in
  let ratio = float_of_int bfs.explored /. float_of_int (max 1 dpor.explored) in
  let wall = bfs_wall +. dpor_wall +. fuzz_wall in
  let rate = float_of_int total_states /. wall in
  record "explorer-p9:total" ~wall
    ~runs:(Some (bfs.explored + dpor.explored + fuzz.explored))
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
    match
      Explore.Classify.classify ~domains ~backend:"phi"
        ~regime:Explore.Classify.Fair_lossy params
    with
    | Error e -> failwith ("classification bench: " ^ e)
    | Ok o -> o
  in
  let assignment (o : Explore.Classify.outcome) =
    Explore.Classify.assignment_string o.Explore.Classify.assignment
  in
  let digest (o : Explore.Classify.outcome) = o.Explore.Classify.digest in
  let _, o =
    measure ~name:"classification" ~unit:"runs/s" ~key:digest
      ~count:(fun _ -> params.Explore.Classify.runs)
      ~extra:(fun _ o ->
        Printf.sprintf ", \"assignment\": \"%s\", \"digest\": \"%s\""
          (json_escape (assignment o))
          (json_escape (digest o)))
      cell
  in
  Format.printf
    "    (phi × lossy assignment %S, outcome digest bit-identical at \
     domains 1 and on the pool)@."
    (assignment o)

(* P12: the sharded large-n engine's throughput floor. It times
   [Shard.execute] directly (the estimator's wall clock includes
   indexing, scoring and digesting) on a gossip ring at n = 100k (smoke:
   10k). The traced end-to-end benchmark (bench/e2e/README.md) puts the
   kernel at about 2us per slot on one core of a 2-vCPU VM, of which
   decision draws are 3.5%; the floor sits 10x under the measured rate
   (conservative floor, same policy as P9). With shards=1 [Shard.execute]
   is [Sim.execute] (one tick loop), and test_scale's [engines_agree] checks
   it at domains 1/2/4. *)
let sharded_engine ~smoke () =
  Util.header "P12: sharded engine throughput";
  (* the bare engine, no committee (the detector ring is the per-slot
     workload the E18 grid scales) *)
  let n = if smoke then 10_000 else 100_000 in
  let ticks = 12 in
  let p =
    Scale.Estimate.params ~n ~shards:4 ~committee:0 ~ticks ~faults:2
      ~seed:11L ~backend:"gossip" ()
  in
  let cfg = Scale.Estimate.config p ~seed:11L in
  let pr = Scale.Estimate.pair p in
  let wall, result =
    time (fun () ->
        Scale.Shard.execute ~shards:4
          { cfg with Sim.oracle = pr.Detector.Backends.oracle }
          pr.Detector.Backends.protocol)
  in
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

(* [smoke] keeps only the fast self-checking experiments, so CI can gate
   on them and still publish a BENCH_perf.json artifact: the kernel
   differential, the cross-domain determinism keys of P5/P10, P7, P8, P9
   and P11, the scaling gates of P5 and P7, and the P9 and P12 floors. *)
let run_gated ~smoke ~pool_stats =
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
  ensemble_throughput ~gate:smoke ();
  enumeration ~smoke ();
  explorer_throughput ~gate:smoke ();
  explorer_million ~gate:smoke ();
  classification ~smoke ();
  sharded_engine ~smoke ();
  write_json "BENCH_perf.json";
  if pool_stats then
    Format.printf "@.  %a@." Ensemble.pp_stats (Ensemble.stats ());
  Format.printf "@.  wrote BENCH_perf.json (%d records; %d domains)@."
    (List.length !records)
    (Ensemble.domain_count ())

(* A gate fails with [Failure]: print its message and exit 1, as table1
   does when a cell reads otherwise than the paper's table. *)
let run ?(smoke = false) ?(pool_stats = false) () =
  try run_gated ~smoke ~pool_stats
  with Failure msg ->
    Format.printf "@?";
    prerr_endline ("udc-bench perf: " ^ msg);
    exit 1
