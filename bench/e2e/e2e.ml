(* End-to-end benchmark of the four user paths.

     e2e.exe --workload W --seed S --seconds T --trace 0|1 [--spans FILE]

   [--trace 0]: set up several times (inputs, one warm-up rep) and report
   the median as setup_s, then run timed reps back to back for T seconds
   (closed loop, one caller, one domain) and report the median rep as
   wall_s. Both are host-normalised: every set-up round and rep is divided
   by the calibration slices timed just before and after it and scaled to
   the reference host's slice time (see [calibration]). peak_rss_mb is
   the process's VmHWM at the end. The raw samples and the slices go on
   the line before. [--trace 1]: the traced pass at domains = 1 instead,
   reporting the per-layer metrics; [--spans] appends its spans as JSONL.
   Each traced rep is paired with an untraced one: the workload's
   remainder metric is the untraced wall time minus the named layers'
   self times, and trace.overhead is the traced wall over the untraced.
   Without [--workload], every workload runs in a fresh process of its
   own. The last line of standard output is the result object; a failed
   check makes it [correct: false]. *)

let process_start = Unix.gettimeofday ()

let workloads : (module Workload.S) list =
  [
    (module Classify_grid);
    (module Scale_ring);
    (module Explore_heartbeat);
    (module Knowledge_exact);
  ]

let workload_name (module W : Workload.S) = W.name
let end_to_end = [ ("setup_s", "s"); ("wall_s", "s"); ("peak_rss_mb", "MB") ]

(* Every per-layer metric, in BENCHMARK.json order. A workload reports the
   ones its layers produce; a layer it never enters reads 0. *)
let per_layer =
  [
    ("sim.execute.s", "s");
    ("sim.execute.p50_us", "us");
    ("sim.execute.p99_us", "us");
    ("sim.execute.minor_mwords", "Mwords");
    ("decision.draws", "count");
    ("decision.orders", "count");
    ("decision.deliver_ns", "ns");
    ("decision.drop_ns", "ns");
    ("decision.order_ns", "ns");
    ("decision.draw_ns", "ns");
    ("decision.share", "ratio");
    ("history.events", "count");
    ("channel.sends", "count");
    ("channel.recvs", "count");
    ("run_index.of_run.s", "s");
    ("run_index.of_run.minor_mwords", "Mwords");
    ("detector.spec.s", "s");
    ("detector.spec.calls", "count");
    ("run.digest.s", "s");
    ("run.digest.minor_mwords", "Mwords");
    ("classify.kset.s", "s");
    ("classify.runs_per_s", "1/s");
    ("classify.other.s", "s");
    ("shard.execute.s", "s");
    ("shard.execute.us_per_slot", "us");
    ("shard.execute.minor_mwords", "Mwords");
    ("shard.process_ticks_per_s", "1/s");
    ("shard.execute.d2.s", "s");
    ("shard.speedup", "ratio");
    ("sim.execute.large_n.s", "s");
    ("estimate.other.s", "s");
    ("engine.bfs.s", "s");
    ("engine.dpor.s", "s");
    ("engine.fuzz.s", "s");
    ("engine.confined.s", "s");
    ("engine.explored", "count");
    ("engine.heartbeat.explored", "count");
    ("engine.states", "count");
    ("engine.seen_hits", "count");
    ("engine.pruned", "count");
    ("engine.states_per_s", "1/s");
    ("problem.run.us", "us");
    ("hb.of_journal.us", "us");
    ("seen.check_add.us", "us");
    ("problem.violation.us", "us");
    ("engine.other.s", "s");
    ("shrink.minimize.s", "s");
    ("repro.replay.s", "s");
    ("explore.other.s", "s");
    ("enumerate.runs.s", "s");
    ("enumerate.nodes", "count");
    ("enumerate.dedup_hits", "count");
    ("enumerate.runs.minor_mwords", "Mwords");
    ("system.of_runs.s", "s");
    ("system.points", "count");
    ("system.of_runs.minor_mwords", "Mwords");
    ("checker.make.s", "s");
    ("checker.holds.s", "s");
    ("checker.memo_entries", "count");
    ("checker.points_per_s", "1/s");
    ("simulate_fd.f_run.s", "s");
    ("simulate_fd.f_run.minor_mwords", "Mwords");
    ("knowledge.other.s", "s");
    ("ensemble.busy_s", "s");
    ("ensemble.idle_s", "s");
    ("ensemble.seq_tasks", "count");
    ("trace.overhead", "ratio");
  ]

(* The e2e reps run on one domain, as does the traced pass. On a 2-vCPU VM
   a second domain made back-to-back reps of the same work differ by up to
   1.6x (every minor collection stops both domains, so a descheduled one
   stalls the other); at one domain they stayed within a few percent while
   the host was quiet. The traced pass reads the pool counters from one
   rep at [pool_domains], the reference VM's nproc. *)
let domains = 1
let pool_domains = 2
let setup_rounds = 3
let min_reps = 3
let now = Workload.now

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f
  else failwith (Printf.sprintf "non-finite metric value %f" f)

let json_list xs = "[" ^ String.concat "," (List.map json_float xs) ^ "]"

(* The result line: every metric of [table], valued by [value]. *)
let print_result (c : Check.t) table value =
  let metric (name, unit) =
    Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name
      (json_float (value name))
      unit
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (c.failed = 0) c.attempted c.failed
    (String.concat "," (List.map metric table))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    let line = input_line ic in
    if String.starts_with ~prefix:"VmHWM:" line then
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    else scan ()
  in
  Fun.protect scan ~finally:(fun () -> close_in ic)

(* Collect everything the last rep or slice left behind, so that neither
   pays for the other's garbage. Two full cycles: after a single one,
   explore-heartbeat's heap kept growing from rep to rep (past 3 GB within
   a minute) although its live data stayed near 40 MB. *)
let settle () =
  Gc.full_major ();
  Gc.compact ()

module Int_map = Map.Make (Int)

(* The host's speed, measured with a fixed stdlib-only slice of the kinds
   of work the library's paths are made of: hash-table updates, an array
   sort, a balanced-tree map and list churn through the major heap. A
   2-vCPU VM's speed swung up to 2x, in bursts of seconds and spells of
   minutes, which no statistic over one run's raw reps could hide. Divided
   by this slice, timed just before and after each rep, the median rep
   varied from run to run two to four times less than the raw one while
   the host was noisy. A fixed loop and a random walk over a large array
   kept their speed while allocating code slowed, so the slice allocates.
   It runs on a settled heap, so a change to the program cannot move
   it. *)
let calibration () =
  settle ();
  let t0 = now () in
  let h = Hashtbl.create 4096 in
  for i = 0 to 299_999 do
    Hashtbl.replace h (i land 8191) (float_of_int i)
  done;
  let a = Array.init 100_000 (fun i -> (i * 7919) land 65535) in
  Array.sort compare a;
  let m = ref Int_map.empty in
  for i = 0 to 49_999 do
    m := Int_map.add ((i * 7919 * 104729) land 0xFFFFFF) i !m
  done;
  let l = List.init 250_000 (fun i -> (i, float_of_int i, Some i)) in
  let l = List.rev_map (fun (i, f, o) -> (f, o, i)) l in
  ignore (Sys.opaque_identity (h, a, !m, l));
  let t = now () -. t0 in
  settle ();
  t

(* A fixed scale: reported times are in seconds at a host speed where the
   slice takes this long, about its median on a 2-vCPU VM. *)
let calib_ref_s = 0.15

(* [dt] at reference speed, given the slices timed just before (if any)
   and after it. *)
let normalise dt ~before ~after =
  let slice =
    Option.fold ~none:after ~some:(fun b -> (b +. after) /. 2.) before
  in
  dt *. calib_ref_s /. slice

let iqr xs = Workload.percentile 0.75 xs -. Workload.percentile 0.25 xs

let guarded (c : Check.t) f =
  match f () with
  | v -> Some v
  | exception e ->
      Check.fail c ("exception: " ^ Printexc.to_string e);
      None

let checked c f = ignore (guarded c f)

let run_e2e (module W : Workload.S) ~seed ~seconds =
  let c = Check.create () in
  (* Slices and raw times newest first; each time is normalised by the
     slice before it (none for the first set-up round, which starts at
     process start) and the slice after it. *)
  let calibs = ref [] in
  let timed t0 f =
    let before = List.nth_opt !calibs 0 in
    let v = f () in
    let dt = now () -. t0 in
    let after = calibration () in
    calibs := after :: !calibs;
    (v, dt, normalise dt ~before ~after)
  in
  let reference = ref None and setups = ref [] and raw_setups = ref [] in
  for round = 1 to setup_rounds do
    let t0 = if round = 1 then process_start else now () in
    let o, dt, norm =
      timed t0 (fun () ->
          guarded c (fun () ->
              let input = W.input ~seed in
              (input, W.rep ~domains input)))
    in
    (match o with
    | Some (input, o) ->
        let r = Option.fold ~none:o ~some:snd !reference in
        checked c (fun () -> W.check c ~seed ~reference:r o);
        if Option.is_none !reference then reference := Some (input, o)
    | None -> ());
    raw_setups := dt :: !raw_setups;
    setups := norm :: !setups
  done;
  let input, reference =
    match !reference with
    | Some r -> r
    | None ->
        prerr_endline "e2e: no set-up round completed";
        exit 1
  in
  let walls = ref [] and raw_walls = ref [] and reps = ref 0 in
  let start = now () in
  while now () -. start < seconds || !reps < min_reps do
    incr reps;
    let o, dt, norm =
      timed (now ()) (fun () -> guarded c (fun () -> W.rep ~domains input))
    in
    Option.iter
      (fun o ->
        raw_walls := dt :: !raw_walls;
        walls := norm :: !walls;
        checked c (fun () -> W.check c ~seed ~reference o))
      o
  done;
  Printf.printf
    "{\"workload\":%S,\"seed\":%d,\"domains\":%d,\"wall_s_samples\":%s,\"setup_s_samples\":%s,\"calib_s_samples\":%s,\"host.calib_s\":{\"median\":%s,\"iqr\":%s},\"error_rate\":%s}\n"
    W.name seed domains
    (json_list (List.rev !raw_walls))
    (json_list (List.rev !raw_setups))
    (json_list (List.rev !calibs))
    (json_float (Workload.median !calibs))
    (json_float (iqr !calibs))
    (json_float (float_of_int c.failed /. float_of_int c.attempted));
  print_result c end_to_end (function
    | "setup_s" -> Workload.median !setups
    | "peak_rss_mb" -> peak_rss_mb ()
    | _ -> Workload.median !walls)

let pool_totals () =
  let s = Ensemble.stats () in
  let sum = Array.fold_left ( +. ) 0. in
  (sum s.Ensemble.busy_s, sum s.Ensemble.idle_s, s.Ensemble.seq_tasks)

let run_traced (module W : Workload.S) ~seed ~seconds ~spans_file =
  let c = Check.create () in
  let input = W.input ~seed in
  let busy0, idle0, seq0 = pool_totals () in
  let reference = W.rep ~domains:pool_domains input in
  let busy1, idle1, seq1 = pool_totals () in
  checked c (fun () -> W.check c ~seed ~reference reference);
  let spans_oc =
    Option.map
      (open_out_gen [ Open_wronly; Open_creat; Open_append; Open_text ] 0o644)
      spans_file
  in
  let untraced () =
    settle ();
    let o, wall = Workload.time (fun () -> W.rep ~domains input) in
    checked c (fun () -> W.check c ~seed ~reference o);
    wall
  and traced () =
    settle ();
    W.traced c ~seed input ~reference
  in
  let samples = ref [] and overheads = ref [] and reps = ref 0 in
  let start = now () in
  while !reps = 0 || now () -. start < seconds do
    incr reps;
    (* Alternate which side of the pair runs first, so that a change in
       host speed does not land on one side only. *)
    let untraced_s, (metrics, spans) =
      if !reps mod 2 = 1 then
        let u = untraced () in
        (u, traced ())
      else
        let t = traced () in
        (untraced (), t)
    in
    let layers =
      List.fold_left (fun a m -> a +. List.assoc m metrics) 0. W.partition
    in
    Option.iter
      (fun oc -> Span.to_jsonl oc ~workload:W.name ~rep:!reps spans)
      spans_oc;
    overheads := (Span.duration (List.hd spans) /. untraced_s) :: !overheads;
    samples := ((W.remainder, untraced_s -. layers) :: metrics) :: !samples
  done;
  Option.iter close_out spans_oc;
  let layer name = Workload.median (List.map (List.assoc name) !samples) in
  let measured =
    List.map (fun (name, _) -> (name, layer name)) (List.hd !samples)
    @ W.probes input ~layer
    @ [
        ("ensemble.busy_s", busy1 -. busy0);
        ("ensemble.idle_s", idle1 -. idle0);
        ("ensemble.seq_tasks", float_of_int (seq1 - seq0));
        ("trace.overhead", Workload.median !overheads);
      ]
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer) then
        failwith ("metric missing from the per-layer table: " ^ name))
    measured;
  Printf.printf
    "{\"workload\":%S,\"seed\":%d,\"traced_reps\":%d,\"trace.overhead_samples\":%s}\n"
    W.name seed !reps
    (json_list (List.rev !overheads));
  print_result c per_layer (fun name ->
      Option.value ~default:0. (List.assoc_opt name measured))

(* Each workload in a fresh process of its own, one after another. *)
let run_all ~spans_file =
  Option.iter (fun f -> close_out (open_out f)) spans_file;
  let argv = Array.copy Sys.argv in
  argv.(0) <- Sys.executable_name;
  let failed =
    List.filter
      (fun w ->
        let args = Array.append argv [| "--workload"; workload_name w |] in
        let pid =
          Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
            Unix.stderr
        in
        snd (Unix.waitpid [] pid) <> Unix.WEXITED 0)
      workloads
  in
  if failed <> [] then begin
    prerr_endline
      ("e2e: failed: " ^ String.concat ", " (List.map workload_name failed));
    exit 1
  end

let () =
  let workload = ref None and seed = ref 0 and seconds = ref 15. in
  let trace = ref false and spans_file = ref None in
  Arg.parse
    [
      ( "--workload",
        Arg.Symbol
          (List.map workload_name workloads, fun w -> workload := Some w),
        " run one workload (default: each in a fresh process)" );
      ("--seed", Arg.Set_int seed, "N workload seed (default 0)");
      ( "--seconds",
        Arg.Set_float seconds,
        "T timed seconds per run (default 15)" );
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun t -> trace := t = "1"),
        " 1: the traced pass (per-layer metrics) instead of the e2e run" );
      ( "--spans",
        Arg.String (fun f -> spans_file := Some f),
        "FILE append the traced pass's spans as JSONL" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e.exe [--workload W] [--seed N] [--seconds T] [--trace 0|1] [--spans \
     FILE]";
  if !seconds <= 0. then begin
    prerr_endline "e2e: --seconds must be > 0";
    exit 2
  end;
  Ensemble.set_domains domains;
  match !workload with
  | None -> run_all ~spans_file:!spans_file
  | Some name ->
      let w = List.find (fun w -> workload_name w = name) workloads in
      let seed = !seed and seconds = !seconds in
      if !trace then run_traced w ~seed ~seconds ~spans_file:!spans_file
      else run_e2e w ~seed ~seconds
