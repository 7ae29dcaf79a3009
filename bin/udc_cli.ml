(* Command-line driver: run seeded simulations of any protocol/detector
   combination, check the run against the paper's specifications, or
   enumerate a bounded system and report its size.

     dune exec bin/udc_cli.exe -- simulate --protocol ack --oracle strong \
       --n 5 --loss 0.4 --crashes 2 --verbose
     dune exec bin/udc_cli.exe -- enumerate --n 3 --depth 7 --crashes 1 *)

open Cmdliner

(* Every subcommand's exit path: "udc CMD: message" on standard error,
   then exit [code]: 1 when the outcome contradicts an expectation (or a
   repro fails to reproduce), 2 on a usage or configuration error. *)
let exit_with code cmd fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("udc " ^ cmd ^ ": " ^ s);
      exit code)
    fmt

let ok_or_usage cmd = function Ok v -> v | Error e -> exit_with 2 cmd "%s" e

let protocol_conv =
  (* [name:T] with an integer threshold [T]; its sign is checked with the
     other simulate bounds *)
  let threshold name tag s =
    let k = String.length name + 1 in
    match int_of_string_opt (String.sub s k (String.length s - k)) with
    | Some t -> Ok (tag t)
    | None ->
        Error
          (`Msg
            (Printf.sprintf "bad protocol %S (expected %s:T, T an integer)" s
               name))
  in
  let parse = function
    | "nudc" -> Ok `Nudc
    | "reliable" -> Ok `Reliable
    | "ack" -> Ok `Ack
    | "theta" -> Ok `Theta
    | "heartbeat" -> Ok `Heartbeat
    | s when String.starts_with ~prefix:"majority:" s ->
        threshold "majority" (fun t -> `Majority t) s
    | s when String.starts_with ~prefix:"gen:" s ->
        threshold "gen" (fun t -> `Gen t) s
    | s -> Error (`Msg ("unknown protocol: " ^ s))
  in
  let print ppf = function
    | `Nudc -> Format.pp_print_string ppf "nudc"
    | `Reliable -> Format.pp_print_string ppf "reliable"
    | `Ack -> Format.pp_print_string ppf "ack"
    | `Theta -> Format.pp_print_string ppf "theta"
    | `Heartbeat -> Format.pp_print_string ppf "heartbeat"
    | `Majority t -> Format.fprintf ppf "majority:%d" t
    | `Gen t -> Format.fprintf ppf "gen:%d" t
  in
  Arg.conv (parse, print)

let oracle_conv =
  let parse = function
    | "none" -> Ok `None
    | "perfect" -> Ok `Perfect
    | "strong" -> Ok `Strong
    | "weak" -> Ok `Weak
    | "impermanent" -> Ok `Impermanent
    | "theta" -> Ok `Theta
    | "gen" -> Ok `Gen
    | s -> Error (`Msg ("unknown oracle: " ^ s))
  in
  let print ppf v =
    Format.pp_print_string ppf
      (match v with
      | `None -> "none"
      | `Perfect -> "perfect"
      | `Strong -> "strong"
      | `Weak -> "weak"
      | `Impermanent -> "impermanent"
      | `Theta -> "theta"
      | `Gen -> "gen")
  in
  Arg.conv (parse, print)

let resolve_protocol = function
  | `Nudc -> (module Core.Nudc.P : Protocol.S)
  | `Reliable -> (module Core.Reliable_udc.P)
  | `Ack -> (module Core.Ack_udc.P)
  | `Theta -> (module Core.Theta_udc.P)
  | `Heartbeat -> (module Core.Heartbeat_nudc.P)
  | `Majority t -> Core.Majority_udc.make ~t
  | `Gen t -> Core.Generalized_udc.make ~t

let resolve_oracle ~seed = function
  | `None -> Oracle.none
  | `Perfect -> Detector.Oracles.perfect ~lag:1 ()
  | `Strong -> Detector.Oracles.strong ~seed ()
  | `Weak -> Detector.Oracles.weak ()
  | `Impermanent -> Detector.Oracles.impermanent_strong ()
  | `Theta -> Detector.Theta.rotating ()
  | `Gen -> Detector.Oracles.gen_exact ()

(* flags *)
let n_arg = Arg.(value & opt int 5 & info [ "n" ] ~doc:"Number of processes.")
let seed_arg = Arg.(value & opt int64 42L & info [ "seed" ] ~doc:"PRNG seed.")

let loss_arg =
  Arg.(value & opt float 0.3 & info [ "loss" ] ~doc:"Channel loss rate.")

let crashes_arg =
  Arg.(value & opt int 1 & info [ "crashes" ] ~doc:"Number of crashes.")

let actions_arg =
  Arg.(
    value & opt int 1
    & info [ "actions" ] ~doc:"Coordination actions per process.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print the full run.")

let diagram_arg =
  Arg.(
    value & flag
    & info [ "diagram"; "d" ] ~doc:"Print a space-time diagram of the run.")

let protocol_arg =
  Arg.(
    value
    & opt protocol_conv `Ack
    & info [ "protocol"; "p" ]
        ~doc:
          "Protocol: nudc | reliable | ack | theta | heartbeat | \
           majority:T | gen:T.")

let oracle_arg =
  Arg.(
    value
    & opt oracle_conv `Perfect
    & info [ "oracle"; "o" ]
        ~doc:
          "Failure detector: none | perfect | strong | weak | impermanent \
           | theta | gen.")

let simulate n seed loss crashes actions proto oracle verbose diagram =
  if n < 1 then exit_with 2 "simulate" "-n %d < 1" n;
  if crashes < 0 || crashes > n then
    exit_with 2 "simulate" "--crashes %d outside [0, %d]" crashes n;
  if not (loss >= 0.0 && loss <= 1.0) then
    exit_with 2 "simulate" "--loss %g outside [0, 1]" loss;
  if actions < 0 then exit_with 2 "simulate" "--actions %d < 0" actions;
  (match proto with
  | `Majority t when t < 0 ->
      exit_with 2 "simulate" "--protocol majority:%d: T < 0" t
  | `Gen t when t < 0 -> exit_with 2 "simulate" "--protocol gen:%d: T < 0" t
  | _ -> ());
  let prng = Prng.create seed in
  let cfg = Sim.config ~n ~seed in
  let cfg =
    {
      cfg with
      Sim.loss_rate = loss;
      oracle = resolve_oracle ~seed oracle;
      fault_plan = Fault_plan.random prng ~n ~t:crashes ~max_tick:20;
      init_plan = Init_plan.staggered ~n ~actions_per_process:actions ~spacing:3;
      max_ticks = 6000;
    }
  in
  let result = Sim.execute_uniform cfg (resolve_protocol proto) in
  let run = result.Sim.run in
  if verbose then Format.printf "%a@." Run.pp run;
  if diagram then Format.printf "%a@." Trace.pp run;
  Format.printf "stopped: %a@." Sim.pp_stop_reason result.Sim.reason;
  Format.printf "faulty:  %a@." Pid.Set.pp (Run.faulty run);
  Format.printf "stats:   %a@." Stats.pp (Stats.of_run run);
  let verdict name = function
    | Ok () -> Format.printf "%-22s satisfied@." name
    | Error e -> Format.printf "%-22s VIOLATED: %s@." name e
  in
  verdict "well-formed (R1-R5):"
    (Run.check_well_formed run
       ~max_consecutive_drops:cfg.Sim.max_consecutive_drops);
  verdict "UDC (DC1-DC3):" (Core.Spec.udc run);
  verdict "nUDC (DC1,DC2',DC3):" (Core.Spec.nudc run)

let enumerate n depth crashes domains max_nodes stats =
  Option.iter Ensemble.set_domains domains;
  let cfg = Enumerate.config ~n ~depth in
  let cfg =
    {
      cfg with
      Enumerate.max_crashes = crashes;
      init_plan = Init_plan.one ~owner:0 ~at:1;
      oracle_mode = Enumerate.Perfect_reports;
      max_nodes;
    }
  in
  ok_or_usage "enumerate" (Enumerate.check cfg);
  match
    Enumerate.runs_exn cfg
      (Core.Fip.make ~trust_reports:true (module Core.Ack_udc.P))
  with
  | exception Enumerate.Truncated { nodes; max_nodes } ->
      (* loud: a truncated enumeration is a sample, not the system, so
         none of the summary numbers below would mean what they claim *)
      Format.eprintf
        "enumeration truncated after %d nodes (--max-nodes %d); refusing to \
         summarise a partial system@."
        nodes max_nodes;
      exit 3
  | out ->
      let sys = Epistemic.System.of_runs out.Enumerate.runs in
      Format.printf "runs: %d (exhaustive: %b), points: %d@."
        (Epistemic.System.run_count sys)
        out.Enumerate.exhaustive
        (Epistemic.System.point_count sys);
      Format.printf "digest: %s@." (Enumerate.digest out.Enumerate.runs);
      if stats then Format.printf "%a@." Enumerate.pp_stats out.Enumerate.stats;
      let udc_clean =
        List.length
          (List.filter
             (fun r -> Result.is_ok (Core.Spec.udc r))
             out.Enumerate.runs)
      in
      Format.printf "UDC-clean runs: %d@." udc_clean

let scenarios n seed =
  (* the confined clique is built at t = n/2, which needs n/2 < n - 1 *)
  if n < 4 then exit_with 2 "scenarios" "-n %d < 4" n;
  List.iter
    (fun (s, verdict) ->
      Format.printf "@.%s: %s@." s.Core.Adversary.name
        s.Core.Adversary.description;
      match verdict with
      | Ok () -> Format.printf "  -> expected violation exhibited@."
      | Error e -> Format.printf "  -> UNEXPECTED: %s@." e)
    (Core.Adversary.verify_all (Core.Adversary.all ~n ~seed))

let depth_arg =
  Arg.(value & opt int 7 & info [ "depth" ] ~doc:"Enumeration horizon.")

(* ---------- explore ---------- *)

let scenario_of_name name ~n ~t ~seed =
  match name with
  | "solo" -> Ok (Core.Adversary.solo_performer ~n ~seed)
  | "confined" when 2 * t < n || t > n - 2 ->
      Error
        (Printf.sprintf
           "-t %d outside [%d, %d]: the confined clique needs n/2 <= t <= n - 2"
           t ((n + 1) / 2) (n - 2))
  | "confined" -> Ok (Core.Adversary.confined_clique ~n ~t ~seed)
  | "lying" -> Ok (Core.Adversary.lying_detector ~n ~seed)
  | "blind" -> Ok (Core.Adversary.blind_detector ~n ~seed)
  | s ->
      Error
        (Printf.sprintf "unknown scenario %S (solo | confined | lying | blind)"
           s)

(* The --channel argument: "reliable" (no ADD bounds) or "add[:W/B]"
   (ADD channels with window W and delay bound B, default 4/8). *)
let parse_channel = function
  | "reliable" -> Ok None
  | "add" -> Ok (Some { Channel.window = 4; bound = 8 })
  | s when String.length s > 4 && String.sub s 0 4 = "add:" -> (
      let spec = String.sub s 4 (String.length s - 4) in
      match String.split_on_char '/' spec with
      | [ w; b ] -> (
          match (int_of_string_opt w, int_of_string_opt b) with
          | Some window, Some bound when window >= 1 && bound >= 1 ->
              Ok (Some { Channel.window; bound })
          | _ ->
              Error
                (Printf.sprintf "bad ADD bounds %S (expected add:W/B, W,B >= 1)" s)
          )
      | _ ->
          Error
            (Printf.sprintf "bad ADD bounds %S (expected add:W/B, W,B >= 1)" s))
  | s -> Error (Printf.sprintf "unknown channel %S (reliable | add[:W/B])" s)

let explore scenario t property proto_label n seed mode search_depth window
    max_runs domains max_ticks crash_budget adversarial channel out replay
    expect pool_stats =
  (* a bound that admits no run would certify a space never searched *)
  List.iter
    (fun (flag, v, least) ->
      if v < least then exit_with 2 "explore" "%s %d < %d" flag v least)
    [
      ("-n", n, 1);
      ("--max-ticks", max_ticks, 1);
      ("--depth", search_depth, 0);
      ("--window", window, 0);
      ("--max-runs", max_runs, 1);
      ("--crash-budget", crash_budget, 0);
    ];
  (* nor can fuzz, which never exhausts a space, certify one clean *)
  if replay = None && mode = Explore.Engine.Fuzz && expect = "none" then
    exit_with 2 "explore"
      "--expect none needs an exhaustive search, and --mode fuzz never \
       exhausts a space";
  let add = ok_or_usage "explore" (parse_channel channel) in
  match replay with
  | Some path -> (
      let r = ok_or_usage "explore" (Explore.Repro.load path) in
      match Explore.Repro.replay r with
      | Error e -> exit_with 1 "explore" "replay failed: %s" e
      | Ok (result, desc) ->
          Format.printf "problem:   %s (%s, property %s)@."
            r.Explore.Repro.problem.Explore.Problem.name
            r.Explore.Repro.problem.Explore.Problem.protocol_label
            (Explore.Property.to_string
               r.Explore.Repro.problem.Explore.Problem.property);
          Format.printf "replayed:  %d decisions, stopped %a@."
            (List.length r.Explore.Repro.trace)
            Sim.pp_stop_reason result.Sim.reason;
          Format.printf "digest:    %s (verified)@." r.Explore.Repro.digest;
          Format.printf "violation: %s@." desc;
          (* a verified repro IS a violation: --expect applies to the
             replay path exactly as to the search path *)
          if expect = "none" then
            exit_with 1 "explore" "expected no violation, replay exhibited one")
  | None ->
      let problem =
        match scenario with
        | Some name ->
            Explore.Problem.of_scenario ~max_ticks
              (ok_or_usage "explore" (scenario_of_name name ~n ~t ~seed))
        | None -> (
            match property with
            | None ->
                exit_with 2 "explore"
                  "--property is required without --scenario"
            | Some p ->
                let property =
                  ok_or_usage "explore" (Explore.Property.of_string p)
                in
                ok_or_usage "explore" (Explore.Property.check property ~n);
                let protocol =
                  ok_or_usage "explore"
                    (Explore.Protocols.instantiate proto_label ~n)
                in
                (* k-set runs on everyone proposing their own id
                   (the vector [Property.Kset] scores validity
                   against); the single-action plan is for the
                   one-coordination-action UDC protocols *)
                let init_plan =
                  if proto_label = "kset" then Explore.Classify.proposal_plan n
                  else Init_plan.one ~owner:0 ~at:1
                in
                let config =
                  {
                    (Sim.config ~n ~seed) with
                    Sim.init_plan;
                    max_ticks;
                    crash_budget;
                  }
                in
                Explore.Problem.make ~name:proto_label
                  ~adversarial_oracle:adversarial ~config ~protocol
                  ~protocol_label:proto_label property)
      in
      let problem =
        {
          problem with
          Explore.Problem.config =
            { problem.Explore.Problem.config with Sim.add };
        }
      in
      Format.printf "exploring %s (%s) for %s, mode %s, depth <= %d@."
        problem.Explore.Problem.name problem.Explore.Problem.protocol_label
        (Explore.Property.to_string problem.Explore.Problem.property)
        (Explore.Engine.mode_to_string mode)
        search_depth;
      let options =
        {
          Explore.Engine.default_options with
          Explore.Engine.mode;
          depth = search_depth;
          window;
          max_runs;
          domains;
        }
      in
      let outcome, _ = Explore.Engine.search ~options problem in
      if pool_stats then
        Format.printf "%a@." Ensemble.pp_stats (Ensemble.stats ());
      let reduction (stats : Explore.Engine.stats) =
        Format.printf
          "  states: %d visited, %d distinct runs, %d seen-cache cuts, %d \
           branch points pruned@."
          stats.Explore.Engine.states stats.Explore.Engine.distinct
          stats.Explore.Engine.seen_hits stats.Explore.Engine.pruned
      in
      let none_found () =
        if expect = "violation" then
          exit_with 1 "explore" "expected a violation, none found"
      in
      (match outcome with
      | Explore.Engine.Exhausted stats ->
          Format.printf
            "no violation: move space exhausted (%d runs, depth %d reached)@."
            stats.Explore.Engine.explored stats.Explore.Engine.depth_reached;
          reduction stats;
          none_found ()
      | Explore.Engine.Budget stats ->
          Format.printf
            "no violation within budget (%d runs, depth %d reached)@."
            stats.Explore.Engine.explored stats.Explore.Engine.depth_reached;
          reduction stats;
          none_found ();
          (* a space the budget cut short is not certified clean *)
          if expect = "none" then
            exit_with 1 "explore"
              "expected no violation, but --max-runs %d stopped the search \
               before it exhausted the space"
              max_runs
      | Explore.Engine.Violation (w, stats) ->
          Format.printf "violation found after %d runs at depth %d@."
            stats.Explore.Engine.explored stats.Explore.Engine.depth_reached;
          reduction stats;
          Format.printf "  schedule:  %a@." Explore.Engine.pp_node
            w.Explore.Engine.node;
          Format.printf "  violation: %s@." w.Explore.Engine.violation;
          let shrunk =
            match mode with
            | Explore.Engine.Fuzz -> Explore.Shrink.minimize_trace problem w
            | Explore.Engine.Bfs | Explore.Engine.Dpor ->
                Explore.Shrink.minimize problem w
          in
          Format.printf "shrunk: %d decisions over %d ticks@."
            shrunk.Explore.Shrink.decisions shrunk.Explore.Shrink.max_ticks;
          Format.printf "  schedule:  %a@." Explore.Engine.pp_node
            shrunk.Explore.Shrink.node;
          Format.printf "  violation: %s@." shrunk.Explore.Shrink.violation;
          let repro = Explore.Repro.of_shrunk problem shrunk in
          (match out with
          | Some path ->
              Explore.Repro.save path repro;
              Format.printf "repro written to %s@." path
          | None -> Format.printf "@.%s" (Explore.Repro.to_string repro));
          if expect = "none" then
            exit_with 1 "explore" "expected no violation, found one")

let scenario_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "scenario" ]
        ~doc:
          "Rediscover an adversary scenario's violation: solo | confined | \
           lying | blind.")

let t_arg =
  Arg.(
    value & opt int 2
    & info [ "t" ] ~doc:"Resilience parameter for the confined scenario.")

let property_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "property" ]
        ~doc:
          "Property to hunt (without --scenario): dc1 | dc2 | dc3 | udc | \
           nudc | epistemic-dc2 | kset:K | detector:CLASS | \
           expect-udc-violated | expect-dc1-violated.")

let explore_protocol_arg =
  Arg.(
    value & opt string "ack"
    & info [ "protocol"; "p" ]
        ~doc:
          "Protocol (without --scenario): nudc | reliable | ack | theta | \
           heartbeat | kset | majority:T | gen:T | phi | swim | gossip.")

let channel_arg =
  Arg.(
    value & opt string "reliable"
    & info [ "channel" ]
        ~doc:
          "Channel model: reliable (fair-lossy under explorer-chosen drops) \
           | add[:W/B] (ADD bounds: per-link window W caps consecutive \
           drops, delay bound B forces overdue deliveries; default 4/8). \
           ADD bounds are config-driven and consume no decisions, so repro \
           files record and replay them.")

let mode_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("bfs", Explore.Engine.Bfs);
             ("dpor", Explore.Engine.Dpor);
             ("fuzz", Explore.Engine.Fuzz);
           ])
        Explore.Engine.Dpor
    & info [ "mode" ]
        ~doc:
          "Exploration mode: bfs (bounded breadth-first, static pruning \
           only) | dpor (bfs + happens-before branch-point reduction; \
           default) | fuzz (coverage-guided trace mutation, no depth \
           bound).")

let search_depth_arg =
  Arg.(value & opt int 4 & info [ "depth" ] ~doc:"Maximum move-set size.")

let window_arg =
  Arg.(
    value & opt int 600
    & info [ "window" ] ~doc:"Branch only on the first WINDOW decisions.")

let max_runs_arg =
  Arg.(value & opt int 20_000 & info [ "max-runs" ] ~doc:"Total run budget.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~doc:"Ensemble domains for parallel exploration.")

let max_ticks_arg =
  Arg.(value & opt int 120 & info [ "max-ticks" ] ~doc:"Run horizon.")

let crash_budget_arg =
  Arg.(
    value & opt int 1
    & info [ "crash-budget" ]
        ~doc:"Decision-driven crashes allowed (without --scenario).")

let adversarial_arg =
  Arg.(
    value & flag
    & info [ "adversarial-oracle" ]
        ~doc:
          "Wire the decision-driven failure detector (without --scenario).")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~doc:"Write the shrunk repro file here.")

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~doc:"Replay and verify a repro file; no search.")

let pool_stats_arg =
  Arg.(
    value & flag
    & info [ "pool-stats" ]
        ~doc:
          "Print the persistent domain pool's counters (spawns, jobs, \
           tasks, per-worker busy/idle time) after the search.")

let expect_arg =
  Arg.(
    value
    & opt (enum [ ("any", "any"); ("violation", "violation"); ("none", "none") ])
        "any"
    & info [ "expect" ]
        ~doc:
          "Exit nonzero unless the outcome matches: violation (a witness \
           must be found) | none (the space must be exhausted and clean: a \
           search that --max-runs stops exits 1, and --mode fuzz, which \
           never exhausts a space, exits 2 before any run) | any. Applies \
           to both the search and --replay paths. Exit codes: 0 = outcome \
           matches, 1 = outcome contradicts the expectation (or a repro \
           failed to reproduce its recorded digest/violation), 2 = usage \
           or configuration error.")

(* ---------- classify ---------- *)

let classify backend regime n crashes runs max_ticks gst domains certify out
    expect problem k =
  let regime =
    ok_or_usage "classify" (Explore.Classify.regime_of_string regime)
  in
  (* an expectation no outcome can match is a usage error, found before
     any run *)
  (match (problem, expect) with
  | "detector", Some e
    when e <> "none"
         && List.exists
              (fun c -> Detector.Spec.cls_of_string c = None)
              (String.split_on_char '+' e) ->
      exit_with 2 "classify"
        "unknown --expect %S for --problem detector (none, or class names \
         joined by '+', e.g. eventually-perfect+strong)"
        e
  | "kset", Some e when e <> "attained" && e <> "violated" ->
      exit_with 2 "classify"
        "unknown --expect %S for --problem kset (attained | violated)" e
  | _ -> ());
  let params = { Explore.Classify.n; crashes; runs; max_ticks; gst } in
  let emit_repro repro =
    (match Explore.Repro.replay repro with
    | Ok (_, desc) -> Format.printf "repro replayed digest-strict: %s@." desc
    | Error e -> exit_with 2 "classify" "repro failed to replay: %s" e);
    match out with
    | Some path ->
        Explore.Repro.save path repro;
        Format.printf "repro written to %s@." path
    | None -> Format.printf "@.%s" (Explore.Repro.to_string repro)
  in
  match problem with
  | "detector" ->
      let outcome =
        ok_or_usage "classify"
          (Explore.Classify.classify ?domains ~backend ~regime params)
      in
      Format.printf "%a@." Explore.Classify.pp_outcome outcome;
      (match expect with
      | None -> ()
      | Some expected ->
          let got =
            Explore.Classify.assignment_string
              outcome.Explore.Classify.assignment
          in
          if got <> expected then
            exit_with 1 "classify" "expected assignment %S, measured %S"
              expected got);
      if certify then (
        match Explore.Classify.certification_target outcome with
        | None ->
            Format.printf
              "certify: nothing to certify (strongest class already \
               satisfied)@."
        | Some against -> (
            Format.printf "certify: searching for a schedule violating %s@."
              (Detector.Spec.cls_name against);
            match Explore.Classify.certify ~backend ~against ~n with
            | Error e -> exit_with 2 "classify" "certification failed: %s" e
            | Ok cert ->
                Format.printf "certified: %s is not %s (%d runs explored)@."
                  backend
                  (Detector.Spec.cls_name cert.Explore.Classify.against)
                  cert.Explore.Classify.explored;
                emit_repro cert.Explore.Classify.repro))
  | "kset" ->
      let outcome =
        ok_or_usage "classify"
          (Explore.Classify.kset ?domains ~backend ~regime ~k params)
      in
      Format.printf "%a@." Explore.Classify.pp_kset_outcome outcome;
      (match expect with
      | Some "attained" ->
          if outcome.Explore.Classify.attained <> runs then
            exit_with 1 "classify"
              "expected k-set attained on all %d runs, got %d" runs
              outcome.Explore.Classify.attained
      | Some "violated" ->
          if outcome.Explore.Classify.attained = runs then
            exit_with 1 "classify"
              "expected a k-set violation, all %d runs attained it" runs
      | _ -> ());
      if certify then (
        Format.printf
          "certify: searching for a suspicion pattern deciding > %d values@."
          k;
        match Explore.Classify.certify_kset ~k ~n with
        | Error e -> exit_with 2 "classify" "certification failed: %s" e
        | Ok cert ->
            Format.printf
              "certified: adversarial suspicions defeat kset:%d (%d runs \
               explored)@."
              cert.Explore.Classify.k cert.Explore.Classify.explored;
            emit_repro cert.Explore.Classify.repro)
  | p -> exit_with 2 "classify" "unknown problem %S (detector | kset)" p

let backend_arg =
  Arg.(
    value & opt string "phi"
    & info [ "backend"; "b" ]
        ~doc:"Implemented detector backend: phi | swim | gossip.")

let regime_arg =
  Arg.(
    value & opt string "reliable"
    & info [ "regime"; "r" ]
        ~doc:
          "Channel regime: reliable | lossy | eventually-timely | add \
           (lossy with per-link ADD window/delay bounds).")

let problem_arg =
  Arg.(
    value & opt string "detector"
    & info [ "problem" ]
        ~doc:
          "What to classify: detector (the backend against the class \
           taxonomy) | kset (k-set agreement riding on the backend, scored \
           for safety, termination, (S,k) simulation, and the KS1/KS2 \
           knowledge conditions).")

let k_arg =
  Arg.(
    value & opt int 2
    & info [ "k" ] ~doc:"k-set agreement bound (with --problem kset).")

let runs_arg =
  Arg.(
    value
    & opt int Explore.Classify.default_params.Explore.Classify.runs
    & info [ "runs" ] ~doc:"Ensemble size (seeded runs per cell).")

let classify_max_ticks_arg =
  Arg.(
    value
    & opt int Explore.Classify.default_params.Explore.Classify.max_ticks
    & info [ "max-ticks" ] ~doc:"Run horizon.")

let gst_arg =
  Arg.(
    value
    & opt int Explore.Classify.default_params.Explore.Classify.gst
    & info [ "gst" ]
        ~doc:
          "Eventually-timely regime: tick at which losses stop, in [2, \
           max-ticks - 1]. Other regimes ignore it.")

let certify_arg =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Also search for a replayable counterexample separating the \
           backend from the next stronger class.")

let classify_expect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "expect" ]
        ~doc:
          "Exit nonzero unless the measurement matches. With --problem \
           detector: the assignment string (e.g. \
           'eventually-perfect+strong'). With --problem kset: attained (all \
           runs reached k-set safety) | violated (some run did not). Any \
           other value, or an unknown class name, exits 2 before any run. \
           Exit codes as in udc explore: 0 = match, 1 = mismatch, 2 = usage \
           or configuration error.")

let classify_cmd =
  Cmd.v
    (Cmd.info "classify"
       ~doc:
         "Empirically classify an implemented detector backend against the \
          paper's taxonomy: run a seed ensemble under a channel regime, \
          check each class's axioms on every run, and report the maximal \
          classes that held throughout. Bit-identical at every --domains \
          value. With --certify, also search for a shrunk replayable \
          counterexample against the next stronger class. With --problem \
          kset, score the min-rule k-set agreement protocol riding on the \
          backend instead; --certify then searches for an adversarial \
          suspicion pattern deciding more than k values. Exit codes: 0 = \
          outcome matches --expect, 1 = mismatch, 2 = usage or \
          configuration error.")
    Term.(
      const classify $ backend_arg $ regime_arg $ n_arg $ crashes_arg
      $ runs_arg $ classify_max_ticks_arg $ gst_arg $ domains_arg
      $ certify_arg $ out_arg $ classify_expect_arg $ problem_arg $ k_arg)

let explore_cmd =
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Systematically explore schedules for a specification violation, \
          shrink the witness, and emit a replayable repro file. Exit codes: \
          0 = outcome matches --expect, 1 = outcome contradicts --expect or \
          a replay failed to reproduce, 2 = usage or configuration error.")
    Term.(
      const explore $ scenario_arg $ t_arg $ property_arg
      $ explore_protocol_arg $ n_arg $ seed_arg $ mode_arg $ search_depth_arg
      $ window_arg $ max_runs_arg $ domains_arg $ max_ticks_arg
      $ crash_budget_arg $ adversarial_arg $ channel_arg $ out_arg
      $ replay_arg $ expect_arg $ pool_stats_arg)

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run one seeded simulation and check it.")
    Term.(
      const simulate $ n_arg $ seed_arg $ loss_arg $ crashes_arg $ actions_arg
      $ protocol_arg $ oracle_arg $ verbose_arg $ diagram_arg)

let max_nodes_arg =
  Arg.(
    value
    & opt int 20_000_000
    & info [ "max-nodes" ]
        ~doc:
          "Exploration node budget. Exceeding it aborts with exit code 3: a \
           truncated enumeration is a sample, not the system.")

let enum_stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print exploration counters (nodes, prefix/subtree split, dedup \
           hit-rate).")

let enumerate_cmd =
  Cmd.v
    (Cmd.info "enumerate"
       ~doc:
         "Exhaustively enumerate a bounded system and summarise it. The run \
          set and its digest are bit-identical for every --domains value.")
    Term.(
      const enumerate $ n_arg $ depth_arg $ crashes_arg $ domains_arg
      $ max_nodes_arg $ enum_stats_arg)

let scenarios_cmd =
  Cmd.v
    (Cmd.info "scenarios"
       ~doc:"Run the adversarial lower-bound scenarios and verify them.")
    Term.(const scenarios $ n_arg $ seed_arg)

(* ---------- scale ---------- *)

let scale n shards degree backend regime runs ticks faults committee seed
    domains out =
  let regime = ok_or_usage "scale" (Explore.Classify.regime_of_string regime) in
  let p =
    Scale.Estimate.params ~shards ~degree ~regime ~runs ~ticks ?faults
      ~committee ~seed ?domains ~n ~backend ()
  in
  ok_or_usage "scale" (Scale.Estimate.check p);
  let r = Scale.Estimate.estimate p in
  Format.printf "%a@." Scale.Estimate.pp_report r;
  match out with
  | Some path ->
      let oc = open_out path in
      output_string oc (Scale.Estimate.to_json r);
      output_char oc '\n';
      close_out oc;
      Format.printf "report written to %s@." path
  | None -> ()

let scale_n_arg =
  Arg.(
    value & opt int 10_000
    & info [ "n" ] ~doc:"Number of processes (the point of this mode).")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ]
        ~doc:
          "Shards for the two-tier engine; each gets its own decision \
           stream, channel and history builders.")

let degree_arg =
  Arg.(
    value & opt int 2
    & info [ "degree" ] ~doc:"Ring monitoring degree (successors watched).")

let scale_runs_arg =
  Arg.(
    value & opt int 20
    & info [ "runs" ] ~doc:"Seeded runs in the estimation ensemble.")

let scale_ticks_arg =
  Arg.(value & opt int 240 & info [ "ticks" ] ~doc:"Run horizon (ticks).")

let faults_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "faults" ]
        ~doc:"Crash victims per run. Defaults to max 1 (min 8 (n/8)).")

let committee_arg =
  Arg.(
    value & opt int 4
    & info [ "committee" ]
        ~doc:
          "Ack-UDC committee size riding on the detector (pids 0..c-1); 0 \
           disables the UDC scoring.")

let scale_cmd =
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Statistically estimate detector-class axioms and the UDC \
          conditions at large n: run a seed ensemble on the sharded \
          engine with ring-topology detector backends, score \
          completeness/accuracy over the monitored pairs with Wilson \
          intervals, and report detection-latency and false-suspicion \
          distributions. Bit-identical at every --domains value; at \
          --shards 1 the engine is the reference simulator itself.")
    Term.(
      const scale $ scale_n_arg $ shards_arg $ degree_arg $ backend_arg
      $ regime_arg $ scale_runs_arg $ scale_ticks_arg $ faults_arg
      $ committee_arg $ seed_arg $ domains_arg $ out_arg)

let () =
  let info =
    Cmd.info "udc"
      ~doc:
        "Uniform Distributed Coordination workbench (Halpern-Ricciardi, \
         PODC 1999)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            simulate_cmd;
            enumerate_cmd;
            scenarios_cmd;
            explore_cmd;
            classify_cmd;
            scale_cmd;
          ]))
