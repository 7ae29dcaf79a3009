(* explore-heartbeat: the `udc explore` path. The P9 heartbeat problem
   exhausted under DC3 by bfs and dpor, then fuzzed; then the
   confined-clique violation rediscovered, shrunk and replayed strictly.
   Thousands of tiny runs on scripted and recording decision sources, plus
   happens-before pruning, the seen-cache and shrinking. *)

module Engine = Explore.Engine
module Problem = Explore.Problem

let name = "explore-heartbeat"
let n = 4

type input = { heartbeat : Problem.t; confined : Problem.t }

let input ~seed =
  let config =
    {
      (Sim.config ~n ~seed:(Int64.of_int (11 + seed))) with
      Sim.init_plan = Init_plan.one ~owner:0 ~at:1;
      max_ticks = 60;
      crash_budget = 2;
    }
  in
  let protocol =
    Workload.ok_exn "heartbeat" (Explore.Protocols.instantiate "heartbeat" ~n)
  in
  let confined =
    Core.Adversary.confined_clique ~n ~t:2 ~seed:(Int64.of_int (42 + seed))
  in
  {
    heartbeat =
      Problem.make ~name:"p9-heartbeat" ~config ~protocol
        ~protocol_label:"heartbeat" Explore.Property.Dc3;
    confined = Problem.of_scenario confined;
  }

let options mode domains =
  {
    Engine.default_options with
    Engine.mode;
    depth = 2;
    max_runs = 120_000;
    crash_points = 1_000;
    pick_points = 1_000;
    domains = Some domains;
    mutants = 16;
  }

type outcome = {
  bfs : Engine.outcome;
  dpor : Engine.outcome;
  fuzz : Engine.outcome;
  confined : Engine.outcome;
  replay : (string, string) result;
}

let search span options problem =
  fst (Span.with_ span (fun () -> Engine.search ~options problem))

let rep ~domains i =
  let bfs = search "engine.bfs" (options Engine.Bfs domains) i.heartbeat in
  let dpor = search "engine.dpor" (options Engine.Dpor domains) i.heartbeat in
  let fuzz =
    search "engine.fuzz"
      { (options Engine.Fuzz domains) with Engine.max_runs = 600 }
      i.heartbeat
  in
  let confined =
    search "engine.confined"
      { Engine.default_options with Engine.depth = 3; domains = Some domains }
      i.confined
  in
  let replay =
    match confined with
    | Engine.Violation (w, _) ->
        let shrunk =
          Span.with_ "shrink.minimize" (fun () ->
              Explore.Shrink.minimize i.confined w)
        in
        let repro = Explore.Repro.of_shrunk i.confined shrunk in
        Span.with_ "repro.replay" (fun () -> Explore.Repro.replay repro)
        |> Result.map snd
    | Engine.Exhausted _ | Engine.Budget _ -> Error "no witness to replay"
  in
  { bfs; dpor; fuzz; confined; replay }

let stats = function
  | Engine.Violation (_, s) | Engine.Exhausted s | Engine.Budget s -> s

let kind = function
  | Engine.Violation _ -> "violation"
  | Engine.Exhausted _ -> "exhausted"
  | Engine.Budget _ -> "budget"

let searches o =
  [
    ("bfs", o.bfs);
    ("dpor", o.dpor);
    ("fuzz", o.fuzz);
    ("confined", o.confined);
  ]

(* Invariants only, at every seed: no explorer count is pinned. *)
let check c ~seed:_ ~reference o =
  Check.equal_string c "DC3 bfs exhausts" ~expected:"exhausted" (kind o.bfs);
  Check.equal_string c "DC3 dpor exhausts" ~expected:"exhausted" (kind o.dpor);
  Check.equal_string c "DC3 fuzz spends its budget" ~expected:"budget"
    (kind o.fuzz);
  Check.equal_string c "confined witness found" ~expected:"violation"
    (kind o.confined);
  Check.expect c "confined repro replays strictly" (Result.is_ok o.replay);
  List.iter2
    (fun (what, s) (_, r) ->
      Check.expect c
        (what ^ " search deterministic across reps")
        (stats s = stats r))
    (searches o) (searches reference)

let partition =
  [
    "engine.bfs.s";
    "engine.dpor.s";
    "engine.fuzz.s";
    "engine.confined.s";
    "shrink.minimize.s";
    "repro.replay.s";
  ]

let remainder = "explore.other.s"

let total f outcomes =
  float_of_int (List.fold_left (fun a o -> a + f (stats o)) 0 outcomes)

let traced c ~seed i ~reference =
  let o, spans = Span.collect name (fun () -> rep ~domains:1 i) in
  check c ~seed ~reference o;
  let layer = Span.summarise spans in
  let s name = (layer name).self_s in
  let all = List.map snd (searches o) in
  let states = total (fun st -> st.Engine.states) all in
  let search_s =
    s "engine.bfs" +. s "engine.dpor" +. s "engine.fuzz" +. s "engine.confined"
  in
  ( [
      ("engine.bfs.s", s "engine.bfs");
      ("engine.dpor.s", s "engine.dpor");
      ("engine.fuzz.s", s "engine.fuzz");
      ("engine.confined.s", s "engine.confined");
      ("engine.explored", total (fun st -> st.Engine.explored) all);
      ( "engine.heartbeat.explored",
        total (fun st -> st.Engine.explored) [ o.bfs; o.dpor; o.fuzz ] );
      ("engine.states", states);
      ("engine.seen_hits", total (fun st -> st.Engine.seen_hits) all);
      ("engine.pruned", total (fun st -> st.Engine.pruned) all);
      ("engine.states_per_s", states /. search_s);
      ("shrink.minimize.s", s "shrink.minimize");
      ("repro.replay.s", s "repro.replay");
    ],
    spans )

(* Per-node costs, each a mean over 1000 calls on the heartbeat problem's
   root node. engine.other.s is derived: the heartbeat searches' wall time
   minus explored nodes times the per-node run, seen-cache and violation
   costs. The engine prunes with range scans over the journal and never
   materialises the happens-before closure, so hb.of_journal.us is
   reported beside it but not subtracted. *)
let probes i ~layer =
  let mean_us f = Workload.mean_us ~calls:1000 f in
  let p = i.heartbeat in
  let result, source = Problem.run p ~plan:[] ~silence:[] in
  let journal = Decision.journal source in
  let seen = Explore.Seen.create () in
  let run_us = mean_us (fun () -> Problem.run p ~plan:[] ~silence:[]) in
  let hb_us = mean_us (fun () -> Explore.Hb.of_journal journal) in
  let seen_us =
    mean_us (fun () -> Explore.Seen.check_add seen result.Sim.run)
  in
  let violation_us = mean_us (fun () -> Problem.violation p result) in
  let search_s =
    layer "engine.bfs.s" +. layer "engine.dpor.s" +. layer "engine.fuzz.s"
  in
  [
    ("problem.run.us", run_us);
    ("hb.of_journal.us", hb_us);
    ("seen.check_add.us", seen_us);
    ("problem.violation.us", violation_us);
    ( "engine.other.s",
      search_s
      -. layer "engine.heartbeat.explored"
         *. (run_us +. seen_us +. violation_us)
         *. 1e-6 );
  ]
