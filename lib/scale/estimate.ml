(* Statistical knowledge-claim estimation over sharded run ensembles.

   The classifier ([Explore.Classify]) checks the detector-class axioms
   exactly, via [Detector.Spec.satisfies], on small-n ensembles. At
   n = 10^5..10^6 exact all-pairs axioms are both unaffordable and wrong
   in spirit — a ring backend never monitors non-neighbours — so this
   module scores the axioms {e scoped to the monitored pairs} of the ring
   topology and reports Wilson confidence intervals over a seeded
   ensemble, plus the operational distributions the large-n literature
   reports: detection latency and false-suspicion counts.

   Per run, with [W(p)] the ring targets of monitor [p]:
   - completeness: every crashed [q] is in the {e final} suspicion set of
     every correct monitor of [q];
   - strong accuracy: no change point anywhere names a not-yet-crashed
     process;
   - weak accuracy: some correct process is never falsely suspected;
   - eventual variants, the last-quarter reading: no suspicion-set
     change at or after the ◇-cutoff (3/4 of the horizon) names a
     process alive at its tick (strong), or some correct process is
     named by none of them (weak).
   The class scores are the usual conjunctions (P = completeness ∧ strong
   accuracy, S = ∧ weak, ◇P / ◇S with the eventual variants).

   The last-quarter reading is this module's own, not the one
   [Explore.Classify] scores: the classifier calls
   [Detector.Spec.satisfies], whose eventual accuracy asks that no false
   suspicion be {e held} at the horizon (DESIGN.md, "Classification,
   two ways"). A false suspicion raised and retracted in the last
   quarter fails here and passes there; one raised before the cutoff and
   held to the horizon with no later change passes here and fails
   there. E17's and E18's ◇P / ◇S figures are not comparable cell for
   cell.

   UDC conditions ride on the same runs: a small committee (pids
   [0..c-1]) runs [Core.Ack_udc] (clamped to the committee) under the
   ring detector, one action is initiated by pid 0, and each run scores
   uniformity (someone performed ⇒ every correct member performed — the
   safety half of UDC) and termination (every correct member performed).
   Uniformity should survive any regime; termination degrades exactly
   when the detector's scoped weak accuracy fails to discharge a crashed
   member's acknowledgment — the Proposition 3.1 mechanism, observed
   statistically. *)

type ci = { successes : int; trials : int; rate : float; lo : float; hi : float }

(* With no trials the rate is undefined ([nan]) but the interval is not:
   zero evidence constrains nothing, so the CI is the whole of [0, 1].
   Propagating [nan] endpoints instead poisons downstream JSON and any
   width arithmetic. At the defined endpoints the formula collapses to
   closed forms (pinned by tests): p=0 gives [0, z^2/(n+z^2)], p=1 gives
   [n/(n+z^2), 1] — nonzero width strictly inside [0,1]. z = 1.96 (95%). *)
let wilson ~successes ~trials =
  let z = 1.96 in
  if trials = 0 then { successes; trials; rate = nan; lo = 0.; hi = 1. }
  else begin
    let nf = float_of_int trials in
    let p = float_of_int successes /. nf in
    let z2 = z *. z in
    let denom = 1. +. (z2 /. nf) in
    let centre = p +. (z2 /. (2. *. nf)) in
    let margin =
      z *. sqrt ((p *. (1. -. p) /. nf) +. (z2 /. (4. *. nf *. nf)))
    in
    {
      successes;
      trials;
      rate = p;
      lo = Float.max 0. ((centre -. margin) /. denom);
      hi = Float.min 1. ((centre +. margin) /. denom);
    }
  end

type dist = { samples : int; mean : float; p50 : float; p99 : float; max : float }

let dist_of = function
  | [] -> None
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let m = Array.length a in
      let pct q = a.(min (m - 1) (int_of_float (ceil (q *. float_of_int m)) - 1 |> max 0)) in
      let mean = Array.fold_left ( +. ) 0. a /. float_of_int m in
      Some
        { samples = m; mean; p50 = pct 0.5; p99 = pct 0.99; max = a.(m - 1) }

type params = {
  n : int;
  shards : int;
  degree : int;
  backend : string; (* "gossip" | "swim" | "phi" *)
  regime : Explore.Classify.regime;
  runs : int;
  ticks : int;
  faults : int;
  committee : int; (* 0 = no committee *)
  seed : int64;
  domains : int option;
}

let params ?(shards = 1) ?(degree = 2) ?(regime = Explore.Classify.Fair_lossy)
    ?(runs = 20) ?(ticks = 240) ?faults ?(committee = 4) ?(seed = 42L)
    ?domains ~n ~backend () =
  let faults =
    match faults with Some f -> f | None -> max 1 (min 8 (n / 8))
  in
  {
    n;
    shards;
    degree;
    backend;
    regime;
    runs;
    ticks;
    faults;
    committee = min committee n;
    seed;
    domains;
  }

(* Each bound keeps a run from failing inside the engine (no backend,
   no shard, a fault plan larger than the system) or from scoring a
   vacuous verdict (no tick, no monitored pair, no run). *)
let check p =
  let below =
    List.find_opt
      (fun (_, v, least) -> v < least)
      [
        ("-n", p.n, 2);
        ("--shards", p.shards, 1);
        ("--degree", p.degree, 1);
        ("--runs", p.runs, 1);
        ("--ticks", p.ticks, 1);
        ("--committee", p.committee, 0);
      ]
  in
  match (Detector.Backends.of_ring_label p.backend, below) with
  | None, _ ->
      Error
        (Printf.sprintf "--backend %S unknown (expected %s)" p.backend
           (String.concat " | " Detector.Backends.labels))
  | _, Some (flag, v, least) ->
      Error (Printf.sprintf "%s %d < %d" flag v least)
  | _, None when p.faults < 0 || p.faults > p.n ->
      Error (Printf.sprintf "--faults %d outside [0, %d]" p.faults p.n)
  | _, None -> Ok ()

(* The classification grid's regime, crash plan and horizon, with the
   stabilisation tick at mid-run; a committee's owner initiates at tick 1. *)
let config p ~seed =
  let params =
    {
      Explore.Classify.default_params with
      n = p.n;
      crashes = p.faults;
      max_ticks = p.ticks;
      gst = max 1 (p.ticks / 2);
    }
  in
  let cfg = Explore.Classify.config ~regime:p.regime ~params ~seed in
  if p.committee > 0 then
    { cfg with Sim.init_plan = Init_plan.one ~owner:0 ~at:1 }
  else cfg

type run_audit = {
  a_completeness : bool;
  a_strong : bool;
  a_weak : bool;
  a_ev_strong : bool;
  a_ev_weak : bool;
  a_correct : int;
  a_never_false : int;  (** correct processes never falsely suspected *)
  a_latencies : int list;
  a_false : int;
}

let audit ~n ~degree run =
  let horizon = Run.horizon run in
  let cutoff = max 1 (horizon * 3 / 4) in
  let crash_ticks = Hashtbl.create 16 in
  Pid.Set.iter
    (fun q ->
      match Run.crash_tick run q with
      | Some t -> Hashtbl.replace crash_ticks q t
      | None -> ())
    (Run.faulty run);
  let correct_count = n - Hashtbl.length crash_ticks in
  let false_count = ref 0 in
  let last_false = ref (-1) in
  let false_ever = Hashtbl.create 16 in
  let false_late = Hashtbl.create 16 in
  let completeness = ref true in
  let latencies = ref [] in
  for p = 0 to n - 1 do
    let timeline = Detector.Spec.event_timeline run p in
    if timeline <> [] then begin
      List.iter
        (fun (t, set) ->
          Pid.Set.iter
            (fun q ->
              if not (Run.crashed_by run q t) then begin
                incr false_count;
                if t > !last_false then last_false := t;
                Hashtbl.replace false_ever q ();
                if t >= cutoff then Hashtbl.replace false_late q ()
              end)
            set)
        timeline;
      if not (Run.crashed_by run p horizon) then
        List.iter
          (fun q ->
            match Hashtbl.find_opt crash_ticks q with
            | None -> ()
            | Some ct ->
                (* earliest tick >= ct at which q sits in p's suspicion
                   set (a change-point set applies from its tick to the
                   next change), and whether it is still there at the
                   horizon *)
                let detect = ref None in
                let member = ref false in
                List.iter
                  (fun (t, set) ->
                    let m = Pid.Set.mem q set in
                    (if !detect = None && t >= ct then
                       if !member && t > ct then detect := Some 0
                       else if m then detect := Some (t - ct));
                    member := m)
                  timeline;
                if !detect = None && !member then detect := Some 0;
                (match !detect with
                | Some l -> latencies := l :: !latencies
                | None -> ());
                if not !member then completeness := false)
          (Detector.Backends.ring_watched ~n ~degree p)
    end
    else if not (Run.crashed_by run p horizon) then
      (* a monitor that never reported misses any crashed target *)
      List.iter
        (fun q ->
          if Hashtbl.mem crash_ticks q then completeness := false)
        (Detector.Backends.ring_watched ~n ~degree p)
  done;
  let correct_in tbl =
    Hashtbl.fold
      (fun q () acc -> if Hashtbl.mem crash_ticks q then acc else acc + 1)
      tbl 0
  in
  {
    a_completeness = !completeness;
    a_strong = !false_count = 0;
    a_weak = correct_count > correct_in false_ever;
    a_ev_strong = !last_false < cutoff;
    a_ev_weak = correct_count > correct_in false_late;
    a_correct = correct_count;
    a_never_false = correct_count - correct_in false_ever;
    a_latencies = !latencies;
    a_false = !false_count;
  }

(* k-weak accuracy scoped to the audited pairs: at least min(k, #correct)
   correct processes were never falsely suspected by anyone. *)
let k_weak ~k a = a.a_never_false >= min k a.a_correct

type report = {
  p : params;
  monitored_pairs : int;
  completeness : ci;
  strong_accuracy : ci;
  weak_accuracy : ci;
  ev_strong_accuracy : ci;
  ev_weak_accuracy : ci;
  cls_p : ci;
  cls_s : ci;
  cls_sk : (int * ci) list; (* (S,k) = completeness /\ k-weak, k = 2, 3 *)
  cls_ev_p : ci;
  cls_ev_s : ci;
  detection_latency : dist option;
  false_per_run : dist option;
  udc_uniformity : ci option;
  udc_termination : ci option;
  wall : float;
  process_ticks : int; (* sum of n * horizon over the ensemble *)
  digest : string; (* MD5 over the ensemble's run digests, in order *)
}

let seeds p = List.init p.runs (fun i -> Int64.add p.seed (Int64.of_int ((i * 7919) + 13)))

let pair p =
  match Detector.Backends.of_ring_label p.backend with
  | None -> invalid_arg ("Estimate.pair: unknown backend " ^ p.backend)
  | Some mk ->
      let committee =
        if p.committee > 0 then
          Some (p.committee, (module Core.Ack_udc.P : Protocol.S))
        else None
      in
      mk ~degree:p.degree ?committee ~n:p.n ()

let one_run p seed =
  let cfg = config p ~seed in
  let pair = pair p in
  let cfg = { cfg with Sim.oracle = pair.Detector.Backends.oracle } in
  let res =
    Shard.execute ~shards:p.shards ?domains:p.domains cfg
      pair.Detector.Backends.protocol
  in
  let run = res.Sim.run in
  let a = audit ~n:p.n ~degree:p.degree run in
  let committee_scores =
    if p.committee = 0 then None
    else begin
      let alpha = Action_id.make ~owner:0 ~tag:0 in
      let members = List.init p.committee Fun.id in
      let correct =
        List.filter
          (fun q -> not (Run.crashed_by run q (Run.horizon run)))
          members
      in
      let did q = Run.did run q alpha in
      let uniform =
        (not (List.exists did members)) || List.for_all did correct
      in
      let termination = List.for_all did correct in
      Some (uniform, termination)
    end
  in
  (a, committee_scores, Run.digest run, p.n * Run.horizon run)

let estimate p =
  (match check p with
  | Ok () -> ()
  | Error e -> invalid_arg ("Estimate.estimate: " ^ e));
  let t0 = Unix.gettimeofday () in
  let results = Ensemble.map ?domains:p.domains (one_run p) (seeds p) in
  let wall = Unix.gettimeofday () -. t0 in
  let count f = List.length (List.filter f results) in
  let ci f = wilson ~successes:(count f) ~trials:p.runs in
  let au (a, _, _, _) = a in
  let completeness = ci (fun r -> (au r).a_completeness) in
  let strong = ci (fun r -> (au r).a_strong) in
  let weak = ci (fun r -> (au r).a_weak) in
  let ev_strong = ci (fun r -> (au r).a_ev_strong) in
  let ev_weak = ci (fun r -> (au r).a_ev_weak) in
  let cls_p = ci (fun r -> (au r).a_completeness && (au r).a_strong) in
  let cls_s = ci (fun r -> (au r).a_completeness && (au r).a_weak) in
  let cls_sk =
    List.map
      (fun k ->
        (k, ci (fun r -> (au r).a_completeness && k_weak ~k (au r))))
      [ 2; 3 ]
  in
  let cls_ev_p = ci (fun r -> (au r).a_completeness && (au r).a_ev_strong) in
  let cls_ev_s = ci (fun r -> (au r).a_completeness && (au r).a_ev_weak) in
  let detection_latency =
    dist_of
      (List.concat_map
         (fun r -> List.map float_of_int (au r).a_latencies)
         results)
  in
  let false_per_run =
    dist_of (List.map (fun r -> float_of_int (au r).a_false) results)
  in
  let committee_ci pick =
    if p.committee = 0 then None
    else
      Some
        (ci (fun (_, com, _, _) ->
             match com with Some c -> pick c | None -> false))
  in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "" (List.map (fun (_, _, d, _) -> d) results)))
  in
  {
    p;
    monitored_pairs = p.n * min p.degree (p.n - 1);
    completeness;
    strong_accuracy = strong;
    weak_accuracy = weak;
    ev_strong_accuracy = ev_strong;
    ev_weak_accuracy = ev_weak;
    cls_p;
    cls_s;
    cls_sk;
    cls_ev_p;
    cls_ev_s;
    detection_latency;
    false_per_run;
    udc_uniformity = committee_ci fst;
    udc_termination = committee_ci snd;
    wall;
    process_ticks =
      List.fold_left (fun acc (_, _, _, w) -> acc + w) 0 results;
    digest;
  }

let pp_ci ppf c =
  if c.trials = 0 then Format.pp_print_string ppf "n/a"
  else
    Format.fprintf ppf "%.3f [%.3f, %.3f] (%d/%d)" c.rate c.lo c.hi
      c.successes c.trials

let pp_dist ppf = function
  | None -> Format.pp_print_string ppf "no samples"
  | Some d ->
      Format.fprintf ppf "mean %.1f  p50 %.0f  p99 %.0f  max %.0f (%d samples)"
        d.mean d.p50 d.p99 d.max d.samples

let pp_report ppf r =
  let lbl = Explore.Classify.regime_label r.p.regime in
  Format.fprintf ppf
    "@[<v>%s ring (degree %d) under %s: n=%d shards=%d runs=%d ticks=%d \
     faults=%d@,\
     monitored pairs per run: %d@,\
     scoped completeness      %a@,\
     strong accuracy          %a@,\
     weak accuracy            %a@,\
     eventual strong accuracy %a@,\
     eventual weak accuracy   %a@,\
     P (perfect)              %a@,\
     S (strong)               %a@,"
    r.p.backend r.p.degree lbl r.p.n r.p.shards r.p.runs r.p.ticks r.p.faults
    r.monitored_pairs pp_ci r.completeness pp_ci r.strong_accuracy pp_ci
    r.weak_accuracy pp_ci r.ev_strong_accuracy pp_ci r.ev_weak_accuracy pp_ci
    r.cls_p pp_ci r.cls_s;
  List.iter
    (fun (k, c) ->
      Format.fprintf ppf "(S,%d) (strong-%d)        %a@," k k pp_ci c)
    r.cls_sk;
  Format.fprintf ppf
    "diamond-P                %a@,\
     diamond-S                %a@,\
     detection latency (ticks): %a@,\
     false suspicions per run:  %a@,"
    pp_ci r.cls_ev_p pp_ci r.cls_ev_s pp_dist r.detection_latency pp_dist
    r.false_per_run;
  (match (r.udc_uniformity, r.udc_termination) with
  | Some u, Some t ->
      Format.fprintf ppf
        "UDC committee (%d members): uniformity %a  termination %a@," r.p.committee
        pp_ci u pp_ci t
  | _ -> ());
  Format.fprintf ppf
    "throughput %.3g processes*ticks/sec (%d process-ticks in %.2fs)@,\
     ensemble digest %s@]"
    (float_of_int r.process_ticks /. Float.max 1e-9 r.wall)
    r.process_ticks r.wall r.digest

(* Minimal JSON for the experiment grid; same escaping discipline as the
   bench recorder. *)
let json_ci = function
  | None -> "null"
  | Some c ->
      (* an empty ensemble has rate = nan, which is not JSON *)
      let rate =
        if Float.is_nan c.rate then "null" else Printf.sprintf "%.6f" c.rate
      in
      Printf.sprintf
        "{\"rate\":%s,\"lo\":%.6f,\"hi\":%.6f,\"successes\":%d,\"trials\":%d}"
        rate c.lo c.hi c.successes c.trials

let json_dist = function
  | None -> "null"
  | Some d ->
      Printf.sprintf
        "{\"samples\":%d,\"mean\":%.3f,\"p50\":%.1f,\"p99\":%.1f,\"max\":%.1f}"
        d.samples d.mean d.p50 d.p99 d.max

let to_json r =
  String.concat ""
    [
      "{";
      Printf.sprintf "\"backend\":\"%s\"," r.p.backend;
      Printf.sprintf "\"regime\":\"%s\","
        (Explore.Classify.regime_label r.p.regime);
      Printf.sprintf
        "\"n\":%d,\"shards\":%d,\"degree\":%d,\"runs\":%d,\"ticks\":%d,\"faults\":%d,\"committee\":%d,\"seed\":%Ld,"
        r.p.n r.p.shards r.p.degree r.p.runs r.p.ticks r.p.faults
        r.p.committee r.p.seed;
      Printf.sprintf "\"monitored_pairs\":%d," r.monitored_pairs;
      Printf.sprintf "\"completeness\":%s," (json_ci (Some r.completeness));
      Printf.sprintf "\"strong_accuracy\":%s,"
        (json_ci (Some r.strong_accuracy));
      Printf.sprintf "\"weak_accuracy\":%s," (json_ci (Some r.weak_accuracy));
      Printf.sprintf "\"ev_strong_accuracy\":%s,"
        (json_ci (Some r.ev_strong_accuracy));
      Printf.sprintf "\"ev_weak_accuracy\":%s,"
        (json_ci (Some r.ev_weak_accuracy));
      Printf.sprintf "\"P\":%s,\"S\":%s,\"evP\":%s,\"evS\":%s,"
        (json_ci (Some r.cls_p))
        (json_ci (Some r.cls_s))
        (json_ci (Some r.cls_ev_p))
        (json_ci (Some r.cls_ev_s));
      String.concat ""
        (List.map
           (fun (k, c) ->
             Printf.sprintf "\"S%d\":%s," k (json_ci (Some c)))
           r.cls_sk);
      Printf.sprintf "\"detection_latency\":%s," (json_dist r.detection_latency);
      Printf.sprintf "\"false_per_run\":%s," (json_dist r.false_per_run);
      Printf.sprintf "\"udc_uniformity\":%s," (json_ci r.udc_uniformity);
      Printf.sprintf "\"udc_termination\":%s," (json_ci r.udc_termination);
      Printf.sprintf "\"process_ticks\":%d,\"wall\":%.3f," r.process_ticks
        r.wall;
      Printf.sprintf "\"throughput\":%.1f,"
        (float_of_int r.process_ticks /. Float.max 1e-9 r.wall);
      Printf.sprintf "\"digest\":\"%s\"" r.digest;
      "}";
    ]
