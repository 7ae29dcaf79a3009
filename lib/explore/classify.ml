type regime = Reliable | Fair_lossy | Eventually_timely | Add

let regimes = [ Reliable; Fair_lossy; Eventually_timely; Add ]

let regime_label = function
  | Reliable -> "reliable"
  | Fair_lossy -> "lossy"
  | Eventually_timely -> "eventually-timely"
  | Add -> "add"

let regime_of_string = function
  | "reliable" -> Ok Reliable
  | "lossy" -> Ok Fair_lossy
  | "eventually-timely" -> Ok Eventually_timely
  | "add" -> Ok Add
  | s ->
      Error
        (Printf.sprintf
           "unknown regime %S (expected reliable | lossy | eventually-timely \
            | add)"
           s)

type params = { n : int; crashes : int; runs : int; max_ticks : int; gst : int }

let default_params = { n = 5; crashes = 2; runs = 30; max_ticks = 320; gst = 160 }

let check ~regime p =
  match
    List.find_opt
      (fun (_, v, least) -> v < least)
      [ ("-n", p.n, 2); ("--runs", p.runs, 1); ("--max-ticks", p.max_ticks, 1) ]
  with
  | Some (flag, v, least) -> Error (Printf.sprintf "%s %d < %d" flag v least)
  | None when p.crashes < 0 || p.crashes > p.n - 1 ->
      Error (Printf.sprintf "--crashes %d outside [0, %d]" p.crashes (p.n - 1))
  (* losses from tick 1 on or never: no cutover inside the run *)
  | None when regime = Eventually_timely && (p.gst <= 1 || p.gst >= p.max_ticks)
    ->
      Error
        (Printf.sprintf "--gst %d outside [2, %d] for eventually-timely" p.gst
           (p.max_ticks - 1))
  | None -> Ok ()

let classes =
  Detector.Spec.
    [
      Perfect;
      Strong_k 3;
      Strong_k 2;
      Strong;
      Eventually_perfect;
      Eventually_strong;
    ]

type outcome = {
  backend : string;
  regime : regime;
  params : params;
  rates : (Detector.Spec.cls * int) list;
  assignment : Detector.Spec.cls list;
  reports : int;
  false_suspicions : int;
  digest : string;
}

(* Crash plans land in the first quarter of the run so every backend has
   time to converge on them; the goal is [Run_to_max] because detectors
   probe forever. *)
let config ~regime ~params ~seed =
  let prng = Prng.create seed in
  let cfg = Sim.config ~n:params.n ~seed in
  let cfg =
    {
      cfg with
      Sim.fault_plan =
        Fault_plan.random prng ~n:params.n ~t:params.crashes
          ~max_tick:(max 1 (params.max_ticks / 4));
      goal = Sim.Run_to_max;
      max_ticks = params.max_ticks;
    }
  in
  match regime with
  | Reliable -> cfg
  | Fair_lossy -> { cfg with Sim.loss_rate = 0.3 }
  | Eventually_timely ->
      {
        cfg with
        Sim.loss_rate = 0.45;
        loss_schedule = [ (params.gst, 0.0) ];
        max_consecutive_drops = 12;
      }
  (* Same ambient loss as the eventually-timely regime, but the bound is
     per-link and holds from tick 0: the ADD window caps consecutive
     per-link drops and the delay bound forces overdue deliveries, with
     no GST cutover. *)
  | Add ->
      {
        cfg with
        Sim.loss_rate = 0.45;
        add = Some { Channel.window = 4; bound = 8 };
      }

let seeds count = List.init count (fun i -> Int64.of_int ((i * 7919) + 13))

(* One ensemble cell: each seed runs [config seed] on a fresh [pair ()]
   and [score] reads the run. The scores come back in seed order, with
   the MD5 over the runs' digests. *)
let cell ?domains ~runs ~config ~pair score =
  let job seed =
    let cfg = config seed in
    let { Detector.Backends.oracle; protocol } = pair () in
    let run = (Sim.execute { cfg with Sim.oracle } protocol).Sim.run in
    let s = score run in
    (s, Run.digest run)
  in
  let cells = Ensemble.map ?domains job (seeds runs) in
  ( List.map fst cells,
    Digest.to_hex (Digest.string (String.concat "" (List.map snd cells))) )

let count f l = List.length (List.filter f l)

let unknown_backend backend =
  Error (Printf.sprintf "unknown detector backend %S" backend)

(* Suspicion change points, audited like {!Core.Sampled.f_overclaim}: a
   change point is one report; it is a false suspicion if it names a
   process not yet crashed at that tick. *)
let audit run =
  let reports = ref 0 and false_susp = ref 0 in
  List.iter
    (fun p ->
      List.iter
        (fun (tick, s) ->
          incr reports;
          if Pid.Set.exists (fun q -> not (Run.crashed_by run q tick)) s then
            incr false_susp)
        (Detector.Spec.event_timeline run p))
    (Pid.all (Run.n run));
  (!reports, !false_susp)

(* the classes whose axioms held on all [runs] runs *)
let held ~runs rates =
  List.filter_map (fun (c, k) -> if k = runs then Some c else None) rates

let maximal sat_all =
  List.filter
    (fun c ->
      not
        (List.exists
           (fun c' -> c' <> c && Detector.Spec.implies c' c)
           sat_all))
    sat_all

let classify ?domains ~backend ~regime params =
  match (check ~regime params, Protocols.backend_pair backend) with
  | Error e, _ -> Error e
  | Ok (), None -> unknown_backend backend
  | Ok (), Some mk ->
      let score run =
        let sat =
          List.filter
            (fun c -> Result.is_ok (Detector.Spec.satisfies c run))
            classes
        in
        (sat, audit run)
      in
      let verdicts, digest =
        cell ?domains ~runs:params.runs
          ~config:(fun seed -> config ~regime ~params ~seed)
          ~pair:(fun () -> mk ~n:params.n)
          score
      in
      let rates =
        List.map
          (fun c -> (c, count (fun (sat, _) -> List.mem c sat) verdicts))
          classes
      in
      let sum f =
        List.fold_left (fun a (_, audit) -> a + f audit) 0 verdicts
      in
      Ok
        {
          backend;
          regime;
          params;
          rates;
          assignment = maximal (held ~runs:params.runs rates);
          reports = sum fst;
          false_suspicions = sum snd;
          digest;
        }

let assignment_string = function
  | [] -> "none"
  | l -> String.concat "+" (List.map Detector.Spec.cls_name l)

let pp_outcome ppf o =
  Format.fprintf ppf "@[<v2>%s × %s (n=%d, t=%d, %d runs, horizon %d):"
    o.backend (regime_label o.regime) o.params.n o.params.crashes o.params.runs
    o.params.max_ticks;
  List.iter
    (fun (c, k) ->
      Format.fprintf ppf "@,%-18s %d/%d" (Detector.Spec.cls_name c) k
        o.params.runs)
    o.rates;
  Format.fprintf ppf "@,assignment: %s" (assignment_string o.assignment);
  Format.fprintf ppf "@,reports: %d (false: %d)" o.reports o.false_suspicions;
  Format.fprintf ppf "@,digest: %s@]" o.digest

let certification_target o =
  let sat_all = held ~runs:o.params.runs o.rates in
  List.find_opt
    (fun c ->
      (not (List.mem c sat_all))
      && List.for_all (fun a -> Detector.Spec.implies c a) o.assignment)
    Detector.Spec.
      [
        Eventually_strong;
        Eventually_perfect;
        Strong;
        Strong_k 2;
        Strong_k 3;
        Perfect;
      ]

type certificate = {
  against : Detector.Spec.cls;
  repro : Repro.t;
  explored : int;
}

(* Both certificate searches run a crash-free seed-1 problem to its
   horizon. *)
let certificate_config ~n ~max_ticks =
  { (Sim.config ~n ~seed:1L) with Sim.goal = Sim.Run_to_max; max_ticks }

(* A bounded search of [problem] for a violation of [what], its witness
   shrunk into a repro, with the count of nodes explored; [exhausted]
   ends the message of a bounded space that holds none. *)
let search_certificate problem ~what ~exhausted =
  let outcome, stats = Engine.search problem in
  let explored = stats.Engine.explored in
  match outcome with
  | Engine.Violation (witness, _) ->
      Ok (Repro.of_shrunk problem (Shrink.minimize problem witness), explored)
  | Engine.Exhausted _ ->
      Error
        (Printf.sprintf
           "no legal schedule violating %s found: bounded space exhausted \
            (%d nodes)%s"
           what explored exhausted)
  | Engine.Budget _ ->
      Error
        (Printf.sprintf
           "no violation of %s within the run budget (%d nodes explored)" what
           explored)

let certify ~backend ~against ~n =
  match Protocols.instantiate backend ~n with
  | Error _ -> unknown_backend backend
  | Ok protocol ->
      let what = Detector.Spec.cls_name against in
      Problem.make
        ~name:(Printf.sprintf "classify-%s" backend)
        ~config:(certificate_config ~n ~max_ticks:160)
        ~protocol ~protocol_label:backend (Property.Detector against)
      |> search_certificate ~what
           ~exhausted:
             (Printf.sprintf
                " — consistent with the backend satisfying %s at this depth"
                what)
      |> Result.map (fun (repro, explored) -> { against; repro; explored })

(* ---- k-set agreement grid ---------------------------------------- *)

(* Every process proposes its own id at tick 1, so the proposal vector
   is [0 .. n-1] and [Consensus.Spec.validity] needs no side channel. *)
let proposal_plan n =
  Init_plan.of_entries
    (List.map
       (fun q -> { Init_plan.action = Action_id.make ~owner:q ~tag:q; at = 1 })
       (Pid.all n))

type kset_outcome = {
  backend : string;
  regime : regime;
  k : int;
  params : params;
  attained : int;
  terminated : int;
  sk_simulated : int;
  ks1 : int;
  ks2 : int;
  digest : string;
}

(* The epistemic side of the grid, read on the system of this one run at
   each decider's decide tick:
   - KS1: the decider knows its own proposal was initiated (grounding);
   - KS2: one common core of >= min(k, #correct) correct proposers is
     known-initiated by every decider.
   Within one run, [p]'s histories at two ticks are prefixes of each
   other, and R2 allows at most one event per process per tick, so two
   points are indistinguishable to [p] exactly when [p] has no event
   between them: [p]'s class at tick [m] starts at its last event at or
   before [m] (tick 0 if none). [inited a_q] is stable, so [K_p (inited
   a_q)] holds at [m] iff [q] initiated by that event. At a decide tick
   that event is the decision itself, so KS1/KS2 say which proposals
   were initiated by the time each decider decided — not which it heard:
   a decider that a suspicion let skip [q] still knows [inited a_q] once
   [q] has initiated. *)
let kset_knowledge ~k run =
  let idx = Run_index.of_run run in
  let deciders =
    List.filter_map
      (fun p ->
        match Run_index.decision idx p with
        | None -> None
        | Some v ->
            Option.map
              (fun tick -> (p, tick))
              (Run_index.first_do idx p (Action_id.make ~owner:p ~tag:v)))
      (Pid.all (Run.n run))
  in
  let knows p tick q =
    let last =
      History.last_tick (History.prefix_upto (Run.history run p) tick)
    in
    match Run_index.first_init idx (Action_id.make ~owner:q ~tag:q) with
    | Some t0 -> t0 <= Option.value last ~default:0
    | None -> false
  in
  let ks1 =
    deciders <> [] && List.for_all (fun (p, tick) -> knows p tick p) deciders
  in
  let correct = Pid.Set.elements (Run.correct run) in
  let core =
    List.filter
      (fun q -> List.for_all (fun (p, tick) -> knows p tick q) deciders)
      correct
  in
  let ks2 = deciders <> [] && List.length core >= min k (List.length correct) in
  (ks1, ks2)

(* a cell with k >= n would score a vacuous "attained" *)
let check_k ~k ~n = Result.map_error (( ^ ) "-k ") (Property.check_k ~k ~n)

(* one run's verdicts, which {!kset} counts over the ensemble *)
type kset_run = {
  r_attained : bool;
  r_terminated : bool;
  r_sk : bool;
  r_ks1 : bool;
  r_ks2 : bool;
}

let kset ?domains ~backend ~regime ~k params =
  match
    ( Result.bind (check ~regime params) (fun () -> check_k ~k ~n:params.n),
      Detector.Backends.of_label_inner backend )
  with
  | Error e, _ -> Error e
  | Ok (), None -> unknown_backend backend
  | Ok (), Some mk ->
      let proposals = Array.init params.n Fun.id in
      let score run =
        let r_attained =
          Result.is_ok (Consensus.Spec.k_agreement ~k run)
          && Result.is_ok (Consensus.Spec.validity ~proposals run)
        in
        let r_terminated = Result.is_ok (Consensus.Spec.termination run) in
        let r_sk =
          Result.is_ok (Detector.Spec.satisfies (Detector.Spec.Strong_k k) run)
        in
        let r_ks1, r_ks2 =
          if r_attained then kset_knowledge ~k run else (false, false)
        in
        { r_attained; r_terminated; r_sk; r_ks1; r_ks2 }
      in
      let runs, digest =
        cell ?domains ~runs:params.runs
          ~config:(fun seed ->
            {
              (config ~regime ~params ~seed) with
              Sim.init_plan = proposal_plan params.n;
            })
          ~pair:(fun () ->
            mk ~inner:(module Consensus.Kset.P : Protocol.S) ~n:params.n)
          score
      in
      Ok
        {
          backend;
          regime;
          k;
          params;
          attained = count (fun r -> r.r_attained) runs;
          terminated = count (fun r -> r.r_terminated) runs;
          sk_simulated = count (fun r -> r.r_sk) runs;
          ks1 = count (fun r -> r.r_ks1) runs;
          ks2 = count (fun r -> r.r_ks2) runs;
          digest;
        }

let pp_kset_outcome ppf o =
  Format.fprintf ppf
    "@[<v2>kset:%d on %s × %s (n=%d, t=%d, %d runs, horizon %d):" o.k o.backend
    (regime_label o.regime) o.params.n o.params.crashes o.params.runs
    o.params.max_ticks;
  Format.fprintf ppf "@,%-18s %d/%d" "attained" o.attained o.params.runs;
  Format.fprintf ppf "@,%-18s %d/%d" "terminated" o.terminated o.params.runs;
  Format.fprintf ppf "@,%-18s %d/%d"
    (Printf.sprintf "strong-%d timeline" o.k)
    o.sk_simulated o.params.runs;
  Format.fprintf ppf "@,%-18s %d/%d" "KS1 (own init)" o.ks1 o.params.runs;
  Format.fprintf ppf "@,%-18s %d/%d" "KS2 (common core)" o.ks2 o.params.runs;
  Format.fprintf ppf "@,digest: %s@]" o.digest

type kset_certificate = { k : int; repro : Repro.t; explored : int }

(* Negative cells are certified with the adversary playing the detector:
   the explorer controls suspicions directly ([Adversarial.oracle]), so
   a violation is a legal schedule + suspicion pattern under which the
   min-rule protocol decides more than [k] values. Nothing confines the
   suspicions to a class, and the min rule needs more than (S,k): a
   falsely suspected proposer may be heard by some deciders and skipped
   by others under a timeline inside (S,k). So a certificate shows what
   the min rule needs, not a class boundary for the problem. *)
let certify_kset ~k ~n =
  Result.bind (check_k ~k ~n) (fun () ->
      let config =
        {
          (certificate_config ~n ~max_ticks:40) with
          Sim.init_plan = proposal_plan n;
        }
      in
      Problem.make
        ~name:(Printf.sprintf "kset-%d" k)
        ~adversarial_oracle:true ~config
        ~protocol:(fun p -> Protocol.make (module Consensus.Kset.P) ~n ~me:p)
        ~protocol_label:"kset" (Property.Kset k)
      |> search_certificate ~what:(Printf.sprintf "kset:%d" k) ~exhausted:""
      |> Result.map (fun (repro, explored) -> { k; repro; explored }))
