(* The parallel ensemble engine: bit-identical to sequential execution.

   The two load-bearing claims (DESIGN.md, "Execution engine"): a seed
   determines its run completely, and mapping over seeds on a domain pool
   returns exactly what the sequential map returns — same runs, same
   order, same first error, same witness. *)

let udc_seeds = Helpers.seeds 8

(* Table 1's UDC rows, as (name, seed -> run). *)
let udc_rows : (string * (int64 -> Run.t)) list =
  (* [oracle_of] rather than a shared oracle value: stateful oracles must
     be allocated per seed or runs stop being functions of their seed
     (and the domain pool would race on the shared state). *)
  let simulate ~loss ~oracle_of proto seed =
    let n = 5 in
    let prng = Prng.create seed in
    let cfg =
      Helpers.config ~loss ~oracle:(oracle_of ())
        ~faults:(Fault_plan.random prng ~n ~t:2 ~max_tick:20)
        ~max_ticks:2000 ~n ~seed ()
    in
    (Sim.execute_uniform cfg proto).Sim.run
  in
  [
    ( "reliable, no FD",
      simulate ~loss:0.0 ~oracle_of:(fun () -> Oracle.none)
        (module Core.Reliable_udc.P) );
    ( "lossy, no FD (majority)",
      simulate ~loss:0.3 ~oracle_of:(fun () -> Oracle.none)
        (Core.Majority_udc.make ~t:2) );
    ( "lossy, gen FD",
      simulate ~loss:0.3
        ~oracle_of:(fun () -> Detector.Oracles.gen_exact ())
        (Core.Generalized_udc.make ~t:3) );
    ( "lossy, perfect FD (ack)",
      simulate ~loss:0.3
        ~oracle_of:(fun () -> Detector.Oracles.perfect ~lag:1 ())
        (module Core.Ack_udc.P) );
  ]

let test_same_seed_same_digest () =
  List.iter
    (fun (name, simulate) ->
      List.iter
        (fun seed ->
          Alcotest.(check string)
            (Printf.sprintf "%s seed %Ld" name seed)
            (Run.digest (simulate seed))
            (Run.digest (simulate seed)))
        udc_seeds)
    udc_rows

let test_parallel_equals_sequential () =
  List.iter
    (fun (name, simulate) ->
      let sequential = Ensemble.map ~domains:1 simulate udc_seeds in
      let parallel = Ensemble.map ~domains:4 simulate udc_seeds in
      Alcotest.(check int)
        (name ^ ": same cardinality")
        (List.length sequential) (List.length parallel);
      List.iteri
        (fun i (a, b) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: run %d identical" name i)
            true (Run.equal a b))
        (List.combine sequential parallel))
    udc_rows

(* E8's f-construction (Thm 3.6) through the shared checker env: the memo
   tables are hit from four domains at once and the derived runs must
   still match the sequential construction. *)
let test_parallel_f_runs () =
  let runs =
    List.map
      (fun seed ->
        (Helpers.run_udc ~loss:0.2
           ~oracle:(Detector.Oracles.perfect ~lag:1 ())
           ~faults:(Fault_plan.crash_at [ (0, 6) ])
           ~max_ticks:400 ~n:4 ~seed
           (module Core.Ack_udc.P))
          .Sim.run)
      (Helpers.seeds 6)
  in
  let env = Epistemic.Checker.make (Epistemic.System.of_runs runs) in
  let indices = List.init (List.length runs) Fun.id in
  let f_run ri = Core.Simulate_fd.f_run env ~run:ri in
  let sequential = Ensemble.map ~domains:1 f_run indices in
  let parallel = Ensemble.map ~domains:4 f_run indices in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "f_run %d identical" i)
        true (Run.equal a b))
    (List.combine sequential parallel)

(* Sequential-equivalence of the combinators themselves. *)
let test_exists () =
  let xs = List.init 100 Fun.id in
  List.iter
    (fun domains ->
      Alcotest.(check bool) "exists true" true
        (Ensemble.exists ~domains (fun x -> x = 63) xs);
      Alcotest.(check bool) "exists false" false
        (Ensemble.exists ~domains (fun x -> x > 1000) xs))
    [ 1; 4 ]

exception Boom of int

let test_earliest_error_wins () =
  let xs = List.init 50 Fun.id in
  let f x = if x mod 13 = 12 then raise (Boom x) else x in
  List.iter
    (fun domains ->
      (match Ensemble.map ~domains f xs with
      | _ -> Alcotest.fail "expected an exception"
      | exception Boom x -> Alcotest.(check int) "earliest failure" 12 x);
      (* exists raises the earliest failure unless a witness precedes it *)
      (match Ensemble.exists ~domains (fun x -> f x > 40) xs with
      | _ -> Alcotest.fail "exists: expected an exception"
      | exception Boom x ->
          Alcotest.(check int) "exists: earliest failure" 12 x);
      Alcotest.(check bool) "exists: a witness before the failure wins" true
        (Ensemble.exists ~domains (fun x -> f x = 5) xs))
    [ 1; 4 ]

let test_fold_order () =
  let xs = List.init 30 Fun.id in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        "fold preserves input order" (List.rev xs)
        (Ensemble.fold ~domains
           ~f:(fun acc x -> x :: acc)
           ~init:[] Fun.id xs))
    [ 1; 4 ]

(* ---------- the persistent pool: combinators stay bit-identical to the
   sequential fold across repeated reuse of one pool ---------- *)

exception Prop_boom of int

(* one reusable oracle per combinator: the parallel result (or raised
   exception) must equal the sequential one on the same inputs *)
let outcome f = match f () with v -> Ok v | exception e -> Error e

let pooled_equals_sequential =
  QCheck.Test.make
    ~name:"pooled map/exists/fold = sequential (incl. errors)"
    ~count:40
    QCheck.(
      triple (list_of_size Gen.(int_range 0 60) small_int) (int_range 2 5)
        (int_range 2 30))
    (fun (xs, domains, modulus) ->
      (* [f] raises on a data-dependent subset, so some generated cases
         exercise the earliest-failure path and some the clean path *)
      let f x = if x mod modulus = modulus - 1 then raise (Prop_boom x) else x * x in
      let pred x = f x mod modulus = 0 in
      outcome (fun () -> Ensemble.map ~domains f xs)
      = outcome (fun () -> List.map f xs)
      && outcome (fun () -> Ensemble.exists ~domains pred xs)
         = outcome (fun () -> List.exists pred xs)
      && outcome (fun () ->
             Ensemble.fold ~domains ~f:(fun acc x -> acc + x) ~init:0 f xs)
         = outcome (fun () -> List.fold_left (fun acc x -> acc + f x) 0 xs))

let test_pool_reuse_no_stale_state () =
  (* interleave witnessing searches (which set their stop flag) with full
     maps on the same persistent pool: a stale stop or claim counter from
     a previous job would truncate a later map *)
  for round = 1 to 100 do
    let xs = List.init 64 (fun i -> i + round) in
    Alcotest.(check bool)
      "exists finds its witness" true
      (Ensemble.exists ~domains:4 (fun x -> x = round + 7) xs);
    Alcotest.(check (list int))
      (Printf.sprintf "round %d map complete" round)
      (List.map (fun x -> x * 2) xs)
      (Ensemble.map ~domains:4 (fun x -> x * 2) xs)
  done

let test_spawn_count_bounded () =
  (* hundreds of pooled jobs must reuse the same few workers: the
     spawn-per-call design spawned (domains-1) fresh domains per map *)
  for _ = 1 to 50 do
    ignore (Ensemble.map ~domains:4 succ (List.init 32 Fun.id))
  done;
  let s = Ensemble.stats () in
  Alcotest.(check bool)
    "at least the 50 jobs just dispatched" true
    (s.Ensemble.jobs >= 50);
  Alcotest.(check int)
    "one spawn per live worker, ever" s.Ensemble.pool_size s.Ensemble.spawned;
  (* nothing in the whole test binary asks for more than
     max (the ~domains:5 ceiling of the QCheck property above)
         (the configured default) *)
  let bound = max 5 (Ensemble.domain_count ()) - 1 in
  Alcotest.(check bool)
    (Printf.sprintf "spawned %d <= pool bound %d" s.Ensemble.spawned bound)
    true
    (s.Ensemble.spawned <= bound)

let suite =
  List.map QCheck_alcotest.to_alcotest [ pooled_equals_sequential ]
  @ [
    Alcotest.test_case "same seed, same digest" `Quick
      test_same_seed_same_digest;
    Alcotest.test_case "4 domains = 1 domain (Table 1 UDC rows)" `Slow
      test_parallel_equals_sequential;
    Alcotest.test_case "4 domains = 1 domain (E8 f-construction)" `Quick
      test_parallel_f_runs;
    Alcotest.test_case "exists sequential-equivalent" `Quick test_exists;
    Alcotest.test_case "earliest error wins" `Quick test_earliest_error_wins;
    Alcotest.test_case "fold preserves order" `Quick test_fold_order;
    Alcotest.test_case "pool reuse leaves no stale state" `Quick
      test_pool_reuse_no_stale_state;
    Alcotest.test_case "spawn count bounded by pool size" `Quick
      test_spawn_count_bounded;
  ]
