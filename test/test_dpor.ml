(* The dpor mode's differential battery.

   The load-bearing claims: (1) the happens-before relation derived from
   decision journals is a strict partial order refining journal order,
   with the dependence case table the engine's pruning relies on; (2)
   dpor rediscovers every adversary scenario's violation in no more runs
   than bfs — the reduction never loses a bug the bounded search can
   reach — and its witnesses replay digest-strict; (3) the seen cache is
   verdict-invariant: cache ON and cache OFF reach the same outcome on
   the same problem; (4) every mode's outcome, witness and counters are
   bit-identical at domains 1, 2 and 4 — the work-stealing frontier has
   no lock-step assumption left.

   The explored counts of claim (2) are pinned exactly: they are
   deterministic by claim (4), so a drift is a real change to the search
   (a pruning rule, the children order, the cache discipline), and the
   pins force that change to be looked at rather than slip by. *)

let entry tick query taken = { Decision.tick; query; taken }

(* ---------- happens-before: hand-built journals ---------- *)

let hb_touches () =
  let deliver = entry 1 (Decision.Q_deliver { dst = 2; backlog = 1 })
      (Decision.Deliver true) in
  let drop = entry 1 (Decision.Q_drop { src = 0; dst = 3 })
      (Decision.Drop false) in
  let order = entry 1 (Decision.Q_order { n = 4 })
      (Decision.Order [| 0; 1; 2; 3 |]) in
  Alcotest.(check bool) "deliver touches dst" true (Explore.Hb.touches deliver 2);
  Alcotest.(check bool) "deliver misses others" false
    (Explore.Hb.touches deliver 0);
  Alcotest.(check bool) "drop touches src" true (Explore.Hb.touches drop 0);
  Alcotest.(check bool) "drop touches dst" true (Explore.Hb.touches drop 3);
  Alcotest.(check bool) "drop misses bystander" false
    (Explore.Hb.touches drop 1);
  Alcotest.(check bool) "order touches nobody" false
    (Explore.Hb.touches order 0)

let hb_dependence_table () =
  let dep a b =
    (* dependence is symmetric by definition; check both applications *)
    Alcotest.(check bool) "symmetric" (Explore.Hb.dependent a b)
      (Explore.Hb.dependent b a);
    Explore.Hb.dependent a b
  in
  let order t = entry t (Decision.Q_order { n = 4 })
      (Decision.Order [| 0; 1; 2; 3 |]) in
  let deliver t dst = entry t (Decision.Q_deliver { dst; backlog = 1 })
      (Decision.Deliver true) in
  let pick t dst = entry t (Decision.Q_pick { dst; keys = [| 0; 1 |] })
      (Decision.Pick 0) in
  let drop t src dst = entry t (Decision.Q_drop { src; dst })
      (Decision.Drop false) in
  let crash t pid = entry t (Decision.Q_crash { pid; events = 3 })
      (Decision.Crash false) in
  let suspect t pid = entry t (Decision.Q_suspect { pid; arity = 4 })
      (Decision.Suspect 0) in
  Alcotest.(check bool) "order x order" true (dep (order 1) (order 5));
  Alcotest.(check bool) "order x same-tick deliver" true
    (dep (order 2) (deliver 2 0));
  Alcotest.(check bool) "order x later deliver" false
    (dep (order 2) (deliver 3 0));
  Alcotest.(check bool) "crash x crash (shared budget)" true
    (dep (crash 1 0) (crash 9 3));
  Alcotest.(check bool) "crash x victim's delivery" true
    (dep (crash 1 2) (deliver 5 2));
  Alcotest.(check bool) "crash x victim's send" true
    (dep (crash 1 2) (drop 5 2 0));
  Alcotest.(check bool) "crash x bystander delivery" false
    (dep (crash 1 2) (deliver 5 0));
  Alcotest.(check bool) "deliver x pick same dst" true
    (dep (deliver 1 2) (pick 5 2));
  Alcotest.(check bool) "deliver x deliver distinct dst" false
    (dep (deliver 1 2) (deliver 5 3));
  Alcotest.(check bool) "drop x drop same link" true
    (dep (drop 1 0 2) (drop 5 0 2));
  Alcotest.(check bool) "drop x drop distinct link" false
    (dep (drop 1 0 2) (drop 5 2 0));
  Alcotest.(check bool) "drop x deliver it feeds" true
    (dep (drop 1 0 2) (deliver 5 2));
  Alcotest.(check bool) "drop x deliver elsewhere" false
    (dep (drop 1 0 2) (deliver 5 0));
  Alcotest.(check bool) "suspect x suspect same pid" true
    (dep (suspect 1 2) (suspect 5 2));
  Alcotest.(check bool) "suspect x suspect distinct pid" false
    (dep (suspect 1 2) (suspect 5 3));
  Alcotest.(check bool) "suspect x suspecter's delivery" true
    (dep (suspect 1 2) (deliver 5 2));
  Alcotest.(check bool) "suspect x drop independent" false
    (dep (suspect 1 2) (drop 5 2 0))

let hb_closure_chain () =
  (* suspect p2 and drop (0,2) are independent directly, but both depend
     on the delivery at p2 between them: the closure must order them *)
  let j =
    [|
      entry 1 (Decision.Q_suspect { pid = 2; arity = 4 }) (Decision.Suspect 0);
      entry 2
        (Decision.Q_deliver { dst = 2; backlog = 1 })
        (Decision.Deliver true);
      entry 3 (Decision.Q_drop { src = 0; dst = 2 }) (Decision.Drop false);
      entry 4
        (Decision.Q_deliver { dst = 3; backlog = 1 })
        (Decision.Deliver true);
    |]
  in
  let hb = Explore.Hb.of_journal j in
  Alcotest.(check int) "length" 4 (Explore.Hb.length hb);
  Alcotest.(check bool) "no direct dependence" false
    (Explore.Hb.dependent j.(0) j.(2));
  Alcotest.(check bool) "ordered through the chain" true
    (Explore.Hb.ordered hb 0 2);
  Alcotest.(check bool) "never ordered backwards" false
    (Explore.Hb.ordered hb 2 0);
  Alcotest.(check bool) "bystander delivery concurrent" true
    (Explore.Hb.concurrent hb 0 3);
  Alcotest.(check bool) "concurrent is symmetric" true
    (Explore.Hb.concurrent hb 3 0);
  Alcotest.(check bool) "irreflexive" false (Explore.Hb.ordered hb 1 1);
  Alcotest.check_raises "out of bounds raises"
    (Invalid_argument "Hb.ordered: index out of journal") (fun () ->
      ignore (Explore.Hb.ordered hb 0 4))

let hb_range_scans () =
  let j =
    [|
      entry 1 (Decision.Q_crash { pid = 2; events = 1 }) (Decision.Crash false);
      entry 2
        (Decision.Q_deliver { dst = 2; backlog = 1 })
        (Decision.Deliver true);
      entry 2
        (Decision.Q_deliver { dst = 2; backlog = 1 })
        (Decision.Deliver false);
      entry 3
        (Decision.Q_deliver { dst = 0; backlog = 1 })
        (Decision.Deliver true);
      entry 4 (Decision.Q_crash { pid = 2; events = 2 }) (Decision.Crash false);
    |]
  in
  (* only deliver coins answered [true] at the right dst count *)
  Alcotest.(check int) "receives for p2" 1
    (Explore.Hb.receives_between j ~dst:2 ~lo:0 ~hi:4);
  Alcotest.(check int) "receives for p0" 1
    (Explore.Hb.receives_between j ~dst:0 ~lo:0 ~hi:4);
  Alcotest.(check int) "strict bounds" 0
    (Explore.Hb.receives_between j ~dst:0 ~lo:3 ~hi:4);
  Alcotest.(check bool) "touched between" true
    (Explore.Hb.touches_between j ~pid:2 ~lo:0 ~hi:4);
  Alcotest.(check bool) "untouched pid" false
    (Explore.Hb.touches_between j ~pid:1 ~lo:0 ~hi:4);
  Alcotest.(check bool) "empty range" false
    (Explore.Hb.touches_between j ~pid:2 ~lo:3 ~hi:4)

(* ---------- happens-before: partial-order laws on random journals ----- *)

(* Journals synthesized from an integer soup: each int becomes one entry
   (kind, pids and tick advance all derived from it), so shrinking stays
   meaningful. The laws are checked over every pair and triple. *)
let journal_of_ints ints =
  let tick = ref 1 in
  let mk v =
    let v = abs v in
    let pid = v mod 4 and pid2 = (v / 4) mod 4 in
    if v mod 3 = 0 then incr tick;
    let query, taken =
      match (v / 16) mod 6 with
      | 0 -> (Decision.Q_order { n = 4 }, Decision.Order [| 0; 1; 2; 3 |])
      | 1 ->
          ( Decision.Q_deliver { dst = pid; backlog = 1 },
            Decision.Deliver (v mod 2 = 0) )
      | 2 -> (Decision.Q_pick { dst = pid; keys = [| 0; 1 |] }, Decision.Pick 0)
      | 3 -> (Decision.Q_drop { src = pid; dst = pid2 }, Decision.Drop false)
      | 4 -> (Decision.Q_crash { pid; events = v mod 7 }, Decision.Crash false)
      | _ -> (Decision.Q_suspect { pid; arity = 4 }, Decision.Suspect 0)
    in
    entry !tick query taken
  in
  Array.of_list (List.map mk ints)

let hb_partial_order_laws =
  QCheck.Test.make ~name:"Hb is a strict partial order refining the journal"
    ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_range 2 32) int)
    (fun ints ->
      let j = journal_of_ints ints in
      let hb = Explore.Hb.of_journal j in
      let m = Explore.Hb.length hb in
      let ok = ref true in
      for i = 0 to m - 1 do
        if Explore.Hb.ordered hb i i then ok := false;
        for k = 0 to m - 1 do
          if Explore.Hb.ordered hb i k then begin
            (* refines journal order, hence antisymmetric *)
            if i >= k then ok := false;
            if Explore.Hb.ordered hb k i then ok := false
          end;
          (* direct dependence in journal order is always ordered *)
          if i < k && Explore.Hb.dependent j.(i) j.(k) then
            if not (Explore.Hb.ordered hb i k) then ok := false;
          (* transitivity *)
          if Explore.Hb.ordered hb i k then
            for l = 0 to m - 1 do
              if Explore.Hb.ordered hb k l && not (Explore.Hb.ordered hb i l)
              then ok := false
            done
        done
      done;
      !ok)

(* ---------- dpor rediscovers every scenario, within pinned budgets ---- *)

let scenarios =
  [
    ("solo", fun () -> Core.Adversary.solo_performer ~n:4 ~seed:42L);
    ("confined", fun () -> Core.Adversary.confined_clique ~n:4 ~t:2 ~seed:42L);
    ("lying", fun () -> Core.Adversary.lying_detector ~n:4 ~seed:42L);
    ("blind", fun () -> Core.Adversary.blind_detector ~n:4 ~seed:42L);
  ]

(* Exact explored counts under default options, per mode. Deterministic
   at every domain count (see the determinism tests below), so any drift
   here is a real change to the search and must be reviewed, not
   absorbed. *)
let pinned = [ ("solo", 19, 19); ("confined", 955, 762); ("lying", 6, 6);
               ("blind", 15, 15) ]

let search_mode mode problem =
  let options = { Explore.Engine.default_options with Explore.Engine.mode } in
  Explore.Engine.search ~options problem

let rediscover_differential (name, mk) () =
  let problem = Explore.Problem.of_scenario (mk ()) in
  let witness mode =
    match search_mode mode problem with
    | Explore.Engine.Violation (w, stats), _ -> (w, stats)
    | _ ->
        Alcotest.failf "%s: %s found no violation" name
          (Explore.Engine.mode_to_string mode)
  in
  let wb, sb = witness Explore.Engine.Bfs in
  let wd, sd = witness Explore.Engine.Dpor in
  let pin_bfs, pin_dpor =
    let _, b, d = List.find (fun (n, _, _) -> n = name) pinned in
    (b, d)
  in
  Alcotest.(check int) "bfs explored count pinned" pin_bfs
    sb.Explore.Engine.explored;
  Alcotest.(check int) "dpor explored count pinned" pin_dpor
    sd.Explore.Engine.explored;
  Alcotest.(check bool)
    (Printf.sprintf "dpor needs no more runs (%d <= %d)"
       sd.Explore.Engine.explored sb.Explore.Engine.explored)
    true
    (sd.Explore.Engine.explored <= sb.Explore.Engine.explored);
  (* both witnesses replay digest-strict: Problem.replay raises on any
     divergence, and the digests must come back bit-identical *)
  List.iter
    (fun (mode, w) ->
      let replayed =
        Explore.Problem.replay problem ~trace:w.Explore.Engine.trace
      in
      Alcotest.(check string)
        (mode ^ " witness replays digest-strict")
        (Run.digest w.Explore.Engine.result.Sim.run)
        (Run.digest replayed.Sim.run))
    [ ("bfs", wb); ("dpor", wd) ];
  (* the dpor witness shrinks and its repro replays digest-verified *)
  let shrunk = Explore.Shrink.minimize problem wd in
  let repro = Explore.Repro.of_shrunk problem shrunk in
  match Explore.Repro.replay repro with
  | Ok (result, desc) ->
      Alcotest.(check string) "repro digest"
        (Run.digest shrunk.Explore.Shrink.result.Sim.run)
        (Run.digest result.Sim.run);
      Alcotest.(check string) "repro violation" shrunk.Explore.Shrink.violation
        desc
  | Error e -> Alcotest.failf "%s: dpor repro replay failed: %s" name e

(* ---------- shallow-bfs containment ---------- *)

(* At depth <= 2, anything dpor can witness, bfs can witness too: dpor's
   move sets are a subset of bfs's, so a dpor violation at shallow depth
   must also be reachable by the unreduced search — and the dpor witness
   itself replays to a violating run under the bfs problem, trace for
   trace. *)
let dpor_subset_of_shallow_bfs () =
  List.iter
    (fun (name, mk) ->
      let problem = Explore.Problem.of_scenario (mk ()) in
      let options mode =
        {
          Explore.Engine.default_options with
          Explore.Engine.mode;
          depth = 2;
        }
      in
      match Explore.Engine.search ~options:(options Explore.Engine.Dpor) problem
      with
      | Explore.Engine.Violation (wd, _), _ -> (
          let replayed =
            Explore.Problem.replay problem ~trace:wd.Explore.Engine.trace
          in
          (match Explore.Problem.violation problem replayed with
          | Some _ -> ()
          | None ->
              Alcotest.failf "%s: dpor witness does not violate on replay" name);
          match
            Explore.Engine.search ~options:(options Explore.Engine.Bfs) problem
          with
          | Explore.Engine.Violation _, _ -> ()
          | _ ->
              Alcotest.failf "%s: dpor found a depth<=2 witness bfs missed"
                name)
      | _ ->
          (* nothing to contain at this depth; the full-depth battery
             above already guarantees rediscovery *)
          ())
    scenarios

(* ---------- seen-cache soundness ---------- *)

let cache_on_off_verdict mode (problem : Explore.Problem.t) =
  let go seen_cache =
    let options =
      {
        Explore.Engine.default_options with
        Explore.Engine.mode;
        depth = 2;
        seen_cache;
      }
    in
    Explore.Engine.search ~options problem
  in
  match (go true, go false) with
  | (Explore.Engine.Violation (a, _), _), (Explore.Engine.Violation (b, _), _)
    ->
      String.equal
        (Run.digest a.Explore.Engine.result.Sim.run)
        (Run.digest b.Explore.Engine.result.Sim.run)
  | (Explore.Engine.Exhausted _, _), (Explore.Engine.Exhausted _, _) -> true
  | (Explore.Engine.Budget _, _), (Explore.Engine.Budget _, _) -> true
  | _ -> false

let cache_soundness_scenarios =
  QCheck.Test.make
    ~name:"seen cache is verdict-invariant (scenario problems)" ~count:6
    QCheck.(pair int64 (QCheck.oneofl [ `Solo; `Lying; `Blind ]))
    (fun (seed, which) ->
      let scenario =
        match which with
        | `Solo -> Core.Adversary.solo_performer ~n:4 ~seed
        | `Lying -> Core.Adversary.lying_detector ~n:4 ~seed
        | `Blind -> Core.Adversary.blind_detector ~n:4 ~seed
      in
      let problem = Explore.Problem.of_scenario scenario in
      cache_on_off_verdict Explore.Engine.Dpor problem
      && cache_on_off_verdict Explore.Engine.Bfs problem)

(* stats of a dpor search that must exhaust its space *)
let exhaust ~depth problem seen_cache =
  let options =
    {
      Explore.Engine.default_options with
      Explore.Engine.mode = Explore.Engine.Dpor;
      depth;
      seen_cache;
    }
  in
  match Explore.Engine.search ~options problem with
  | Explore.Engine.Exhausted stats, _ -> stats
  | Explore.Engine.Budget _, _ -> Alcotest.fail "budget too small"
  | Explore.Engine.Violation (w, _), _ ->
      Alcotest.failf "unexpected violation %s" w.Explore.Engine.violation

let cache_soundness_exhaust () =
  (* a clean space where runs re-converge above the depth bound, so the
     cache cuts interior nodes: the verdict must stay Exhausted and each
     cut must remove its subtree from the node count *)
  let problem =
    Helpers.clean_problem ~protocol_label:"heartbeat" ~max_ticks:60
      Explore.Property.Dc3
  in
  let on = exhaust ~depth:3 problem true
  and off = exhaust ~depth:3 problem false in
  Alcotest.(check bool) "cache cut something" true
    (on.Explore.Engine.seen_hits > 0);
  Alcotest.(check int) "cache off never cuts" 0 off.Explore.Engine.seen_hits;
  Alcotest.(check bool)
    (Printf.sprintf "cache cuts prune the search (%d < %d)"
       on.Explore.Engine.explored off.Explore.Engine.explored)
    true
    (on.Explore.Engine.explored < off.Explore.Engine.explored)

let cache_skips_leaves () =
  (* every re-converging run of this depth-2 space is a leaf, which the
     cache neither records nor consults: cache on and off search the
     same nodes, and only the on side counts distinct interior runs *)
  let problem =
    Helpers.clean_problem ~protocol_label:"reliable" ~max_ticks:120
      Explore.Property.Udc
  in
  let line (s : Explore.Engine.stats) =
    Printf.sprintf "explored=%d depth=%d states=%d hits=%d pruned=%d"
      s.Explore.Engine.explored s.Explore.Engine.depth_reached
      s.Explore.Engine.states s.Explore.Engine.seen_hits
      s.Explore.Engine.pruned
  in
  Alcotest.(check string)
    "cache on = cache off"
    (line (exhaust ~depth:2 problem false))
    (line (exhaust ~depth:2 problem true))

(* Fuzz needs a mutant per corpus parent: with none, every wave would
   be empty and the hunt would re-queue its parents forever. *)
let fuzz_needs_mutants () =
  let problem =
    Helpers.clean_problem ~protocol_label:"heartbeat" ~max_ticks:60
      Explore.Property.Dc3
  in
  List.iter
    (fun mutants ->
      let options =
        {
          Explore.Engine.default_options with
          Explore.Engine.mode = Explore.Engine.Fuzz;
          max_runs = 50;
          mutants;
        }
      in
      Alcotest.check_raises
        (Printf.sprintf "mutants = %d" mutants)
        (Invalid_argument "Engine.fuzz: mutants must be >= 1")
        (fun () -> ignore (Explore.Engine.search ~options problem)))
    [ 0; -1 ]

(* ---------- cross-domain determinism, all three modes ---------- *)

let fingerprint_outcome (outcome, (stats : Explore.Engine.stats)) =
  let tag =
    match outcome with
    | Explore.Engine.Violation (w, _) ->
        "violation:" ^ Run.digest w.Explore.Engine.result.Sim.run
    | Explore.Engine.Exhausted _ -> "exhausted"
    | Explore.Engine.Budget _ -> "budget"
  in
  Printf.sprintf "%s explored=%d depth=%d states=%d distinct=%d hits=%d \
                  pruned=%d"
    tag stats.Explore.Engine.explored stats.Explore.Engine.depth_reached
    stats.Explore.Engine.states stats.Explore.Engine.distinct
    stats.Explore.Engine.seen_hits stats.Explore.Engine.pruned

let pool_determinism mode mk_problem () =
  let run domains =
    let options =
      {
        Explore.Engine.default_options with
        Explore.Engine.mode;
        depth = 2;
        max_runs = 400;
        domains = Some domains;
      }
    in
    fingerprint_outcome (Explore.Engine.search ~options (mk_problem ()))
  in
  let at1 = run 1 in
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "domains=%d matches domains=1" domains)
        at1 (run domains))
    [ 2; 4 ]

let solo_problem () =
  Explore.Problem.of_scenario (Core.Adversary.solo_performer ~n:4 ~seed:42L)

let confined_problem () =
  Explore.Problem.of_scenario
    (Core.Adversary.confined_clique ~n:4 ~t:2 ~seed:42L)

let counts (s : Explore.Engine.stats) =
  Printf.sprintf "explored=%d states=%d hits=%d pruned=%d"
    s.Explore.Engine.explored s.Explore.Engine.states
    s.Explore.Engine.seen_hits s.Explore.Engine.pruned

(* ---------- pinned searches ---------- *)

(* perf P9's heartbeat problem, with its caps opened far past where the
   default search saturates: both bounded modes exhaust the depth-2 move
   space, and every count is pinned. *)
let p9_pinned () =
  let problem =
    Helpers.clean_problem ~seed:11L ~crash_budget:2 ~protocol_label:"heartbeat"
      ~max_ticks:60 Explore.Property.Dc3
  in
  let exhausted mode =
    let options =
      {
        Explore.Engine.default_options with
        Explore.Engine.mode;
        depth = 2;
        max_runs = 120_000;
        crash_points = 1_000;
        pick_points = 1_000;
      }
    in
    match Explore.Engine.search ~options problem with
    | Explore.Engine.Exhausted stats, _ -> counts stats
    | _ ->
        Alcotest.failf "P9 %s does not exhaust"
          (Explore.Engine.mode_to_string mode)
  in
  Alcotest.(check string)
    "bfs" "explored=8423 states=2120618 hits=0 pruned=0"
    (exhausted Explore.Engine.Bfs);
  Alcotest.(check string)
    "dpor" "explored=3510 states=842127 hits=0 pruned=2045"
    (exhausted Explore.Engine.Dpor)

(* The confined clique's witness sits at the depth bound of a depth-2
   search, so it is a leaf: its trace and run are pinned, and the trace
   replays digest-strict, at domains 1 and 2. *)
let confined_leaf_witness () =
  let problem = confined_problem () in
  List.iter
    (fun (mode, domains, pin) ->
      let what =
        Printf.sprintf "%s at domains %d"
          (Explore.Engine.mode_to_string mode)
          domains
      in
      let options =
        {
          Explore.Engine.default_options with
          Explore.Engine.mode;
          depth = 2;
          domains = Some domains;
        }
      in
      match Explore.Engine.search ~options problem with
      | Explore.Engine.Violation (w, stats), _ ->
          Alcotest.(check string) (what ^ ": counts") pin (counts stats);
          Alcotest.(check string)
            (what ^ ": moves") "silence 3->0; silence 3->1"
            (Format.asprintf "%a" Explore.Engine.pp_node w.Explore.Engine.node);
          Alcotest.(check int)
            (what ^ ": decisions") 905
            (List.length w.Explore.Engine.trace);
          Alcotest.(check string)
            (what ^ ": run digest") "974741f63d7c443bdd739c1d7229bab9"
            (Run.digest w.Explore.Engine.result.Sim.run);
          Alcotest.(check string)
            (what ^ ": trace replays")
            "974741f63d7c443bdd739c1d7229bab9"
            (Run.digest
               (Explore.Problem.replay problem ~trace:w.Explore.Engine.trace)
                 .Sim.run)
      | _ -> Alcotest.failf "%s: no witness" what)
    (List.concat_map
       (fun domains ->
         [
           ( Explore.Engine.Bfs,
             domains,
             "explored=955 states=120194 hits=0 pruned=0" );
           ( Explore.Engine.Dpor,
             domains,
             "explored=762 states=106571 hits=0 pruned=505" );
         ])
       [ 1; 2 ])

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ hb_partial_order_laws; cache_soundness_scenarios ]
  @ [
      Alcotest.test_case "Hb.touches" `Quick hb_touches;
      Alcotest.test_case "Hb dependence case table" `Quick hb_dependence_table;
      Alcotest.test_case "Hb closure orders through chains" `Quick
        hb_closure_chain;
      Alcotest.test_case "Hb range scans" `Quick hb_range_scans;
      Alcotest.test_case "seen cache soundness on a clean space" `Quick
        cache_soundness_exhaust;
      Alcotest.test_case "seen cache skips depth-bound leaves" `Quick
        cache_skips_leaves;
      Alcotest.test_case "dpor witnesses contained in shallow bfs" `Quick
        dpor_subset_of_shallow_bfs;
      Alcotest.test_case "P9 heartbeat counts pinned" `Slow p9_pinned;
      Alcotest.test_case "confined leaf witness pinned" `Quick
        confined_leaf_witness;
      Alcotest.test_case "fuzz rejects fewer than one mutant" `Quick
        fuzz_needs_mutants;
    ]
  @ List.map
      (fun ((name, _) as sc) ->
        Alcotest.test_case
          (Printf.sprintf "dpor rediscovers %s within the pinned budget" name)
          `Quick
          (rediscover_differential sc))
      scenarios
  @ List.concat_map
      (fun (mode, mode_name) ->
        [
          Alcotest.test_case
            (Printf.sprintf "%s deterministic at domains 1/2/4 (witness)"
               mode_name)
            `Quick
            (pool_determinism mode solo_problem);
          Alcotest.test_case
            (Printf.sprintf "%s deterministic at domains 1/2/4 (search)"
               mode_name)
            `Quick
            (pool_determinism mode confined_problem);
        ])
      [
        (Explore.Engine.Bfs, "bfs");
        (Explore.Engine.Dpor, "dpor");
        (Explore.Engine.Fuzz, "fuzz");
      ]
