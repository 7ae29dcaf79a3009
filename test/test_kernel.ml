(* The bit-packed truth-table kernel: Bitvec algebra against a bool-array
   model, sound formula interning (the memo-soundness regression),
   differential agreement with the reference evaluator on generated
   systems, and bit-identical tables across domain counts. *)

open Epistemic

let alpha0 = Action_id.make ~owner:0 ~tag:0
let req = Message.Coord_request (alpha0, Fact.Set.empty)

(* ---------- Bitvec vs a bool-array model ---------- *)

let model_of_ticks len ticks =
  let a = Array.make len false in
  List.iter (fun t -> a.(((t mod len) + len) mod len) <- true) ticks;
  a

let bitvec_of_model a =
  let v = Bitvec.create (Array.length a) false in
  Array.iteri (fun i b -> if b then Bitvec.set v i true) a;
  v

let agrees model v =
  Array.length model = Bitvec.length v
  &&
  let ok = ref true in
  Array.iteri (fun i b -> if Bitvec.get v i <> b then ok := false) model;
  !ok

let suffix_fold op a =
  let out = Array.copy a in
  for i = Array.length a - 2 downto 0 do
    out.(i) <- op a.(i) out.(i + 1)
  done;
  out

let first_false_model a =
  let rec go i =
    if i >= Array.length a then None else if a.(i) then go (i + 1) else Some i
  in
  go 0

(* Lengths up to 200 cross the 63-bit word boundary several times, so the
   last-word masking and inter-word carries are both exercised. *)
let bitvec_model =
  QCheck.Test.make ~name:"bitvec ops match bool-array model" ~count:300
    QCheck.(triple (int_range 1 200) (list small_int) (list small_int))
    (fun (len, t1, t2) ->
      let ma = model_of_ticks len t1 and mb = model_of_ticks len t2 in
      let va = bitvec_of_model ma and vb = bitvec_of_model mb in
      let map2 f = Array.map2 f ma mb in
      agrees ma va
      && agrees (map2 ( && )) (Bitvec.logand va vb)
      && agrees (map2 ( || )) (Bitvec.logor va vb)
      && agrees (map2 (fun x y -> (not x) || y)) (Bitvec.implies va vb)
      && agrees (Array.map not ma) (Bitvec.lognot va)
      && agrees (suffix_fold ( && ) ma) (Bitvec.suffix_and va)
      && agrees (suffix_fold ( || ) ma) (Bitvec.suffix_or va)
      && first_false_model ma = Bitvec.first_false va
      && Bitvec.equal va (bitvec_of_model ma)
      && Bitvec.equal va vb = (ma = mb))

let bitvec_from_bit () =
  let check len t0 =
    let v = Bitvec.from_bit len t0 in
    let model =
      Array.init len (fun m -> match t0 with None -> false | Some t -> m >= t)
    in
    Alcotest.(check bool)
      (Printf.sprintf "from_bit len=%d" len)
      true (agrees model v)
  in
  List.iter
    (fun len ->
      check len None;
      List.iter
        (fun t -> check len (Some t))
        [ -3; 0; 1; len / 2; len - 1; len; len + 5 ])
    [ 1; 7; 63; 64; 130 ]

(* ---------- interning: the memo-soundness regression ---------- *)

(* The same set built in two insertion orders: semantically equal,
   structurally different AVL trees — the hazard that made structural
   memo keys unsound as identity. *)
let mk_set l = List.fold_left (fun s x -> Pid.Set.add x s) Pid.Set.empty l
let s_asc = mk_set [ 0; 1; 2 ]
let s_desc = mk_set [ 2; 1; 0 ]

let interning_canonicalizes () =
  Alcotest.(check bool) "trees differ structurally" false (s_asc = s_desc);
  let fa = Formula.Prim (Formula.At_least_crashed (s_asc, 1)) in
  let fb = Formula.Prim (Formula.At_least_crashed (s_desc, 1)) in
  Alcotest.(check bool) "not structurally equal" false (fa = fb);
  Alcotest.(check bool) "semantically equal" true (Formula.equal fa fb);
  Alcotest.(check bool)
    "interned to the same node" true
    (Formula.intern fa == Formula.intern fb);
  Alcotest.(check int) "same id" (Formula.id fa) (Formula.id fb);
  (* idempotent and physically stable *)
  let fa' = Formula.intern fa in
  Alcotest.(check bool) "idempotent" true (Formula.intern fa' == fa')

(* The intern keys must induce exactly the partition of the printed form:
   two formulas share an id (and an interned node) iff they print alike.
   Formulas are drawn from a small space, so the same content recurs, and
   every [Pid.Set]/[Fact.Set] payload — in [Dk]/[Ck]/[At_least_crashed]
   and in the [Gossip]/[Coord_request]/[Coord_ack] messages inside
   [Sent]/[Received] — is built in an insertion order drawn apart from
   the content, so equal sets recur with different tree shapes. *)
let shuffled order l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int order (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let subset shape universe = List.filter (fun _ -> Prng.int shape 2 = 0) universe

let pid_set_of ~shape ~order =
  List.fold_left
    (fun s p -> Pid.Set.add p s)
    Pid.Set.empty
    (shuffled order (subset shape [ 0; 1; 2; 3 ]))

let alpha1 = Action_id.make ~owner:1 ~tag:0

let fact_set_of ~shape ~order =
  List.fold_left
    (fun s f -> Fact.Set.add f s)
    Fact.Set.empty
    (shuffled order
       (subset shape
          Fact.
            [
              Inited alpha0;
              Inited alpha1;
              Did (1, alpha0);
              Crashed 0;
              Crashed 2;
            ]))

let msg_of ~shape ~order =
  let alpha = if Prng.int shape 2 = 0 then alpha0 else alpha1 in
  match Prng.int shape 4 with
  | 0 -> Message.Coord_request (alpha, fact_set_of ~shape ~order)
  | 1 -> Message.Coord_ack (alpha, fact_set_of ~shape ~order)
  | 2 -> Message.Gossip (pid_set_of ~shape ~order)
  | _ -> Message.Heartbeat (Prng.int shape 2)

let prim_of ~shape ~order =
  let pid () = Prng.int shape 3 in
  match Prng.int shape 7 with
  | 0 -> Formula.Sent (pid (), pid (), msg_of ~shape ~order)
  | 1 -> Formula.Received (pid (), pid (), msg_of ~shape ~order)
  | 2 -> Formula.Crashed (pid ())
  | 3 -> Formula.Did (pid (), alpha0)
  | 4 -> Formula.Inited alpha1
  | 5 -> Formula.Suspects (pid (), pid ())
  | _ -> Formula.At_least_crashed (pid_set_of ~shape ~order, Prng.int shape 2)

let rec formula_of ~shape ~order depth =
  let sub () = formula_of ~shape ~order (depth - 1) in
  if depth = 0 then
    match Prng.int shape 5 with
    | 0 -> Formula.True
    | 1 -> Formula.False
    | _ -> Formula.Prim (prim_of ~shape ~order)
  else
    match Prng.int shape 10 with
    | 0 -> Formula.Not (sub ())
    | 1 -> Formula.And (sub (), sub ())
    | 2 -> Formula.Or (sub (), sub ())
    | 3 -> Formula.Implies (sub (), sub ())
    | 4 -> Formula.Always (sub ())
    | 5 -> Formula.Eventually (sub ())
    | 6 -> Formula.K (Prng.int shape 3, sub ())
    | 7 -> Formula.Dk (pid_set_of ~shape ~order, sub ())
    | 8 -> Formula.Ck (pid_set_of ~shape ~order, sub ())
    | _ -> Formula.Prim (prim_of ~shape ~order)

let intern_partition =
  QCheck.Test.make ~name:"intern ids partition formulas as their printed form"
    ~count:200 QCheck.int64 (fun seed ->
      let prng = Prng.create seed in
      let fs =
        List.init 16 (fun _ ->
            (* few contents, each drawn in many insertion orders *)
            let shape = Prng.create (Int64.of_int (Prng.int prng 12)) in
            let order = Prng.create (Int64.of_int (Prng.int prng 1_000_000)) in
            formula_of ~shape ~order (Prng.int shape 3))
      in
      List.for_all
        (fun a ->
          Formula.to_string (Formula.intern a) = Formula.to_string a
          && List.for_all
               (fun b ->
                 let printed = Formula.to_string a = Formula.to_string b in
                 Bool.equal (Formula.id a = Formula.id b) printed
                 && Bool.equal (Formula.intern a == Formula.intern b) printed)
               fs)
        fs)

(* A compact exhaustively-enumerated system shared by the kernel tests. *)
let enum_envs =
  lazy
    (let cfg = Enumerate.config ~n:3 ~depth:6 in
     let cfg =
       {
         cfg with
         Enumerate.max_crashes = 1;
         init_plan = Init_plan.one ~owner:0 ~at:1;
         oracle_mode = Enumerate.Perfect_reports;
       }
     in
     let out = Enumerate.runs cfg (module Core.Nudc.P) in
     let sys = System.of_runs out.Enumerate.runs in
     (Checker.make sys, Checker.Reference.make sys))

(* A few simulator runs pooled into one system: irregular horizons,
   message loss, a crash — a different shape from the enumerated system. *)
let sim_envs =
  lazy
    (let run_of seed crash_at =
       let cfg =
         Helpers.config ~loss:0.3
           ~oracle:(Detector.Oracles.perfect ())
           ~faults:(Fault_plan.crash_at crash_at)
           ~init_plan:(Init_plan.one ~owner:0 ~at:1) ~max_ticks:40 ~n:3 ~seed
           ()
       in
       (Sim.execute_uniform cfg (module Core.Ack_udc.P)).Sim.run
     in
     let runs =
       [
         run_of 11L [];
         run_of 12L [ (1, 5) ];
         run_of 13L [ (2, 9) ];
         run_of 14L [ (0, 3) ];
       ]
     in
     let sys = System.of_runs runs in
     (Checker.make sys, Checker.Reference.make sys))

let memo_does_not_split () =
  let env, _ = Lazy.force enum_envs in
  let checks =
    [
      ( Formula.Prim (Formula.At_least_crashed (s_asc, 1)),
        Formula.Prim (Formula.At_least_crashed (s_desc, 1)) );
      ( Formula.Dk (s_asc, Formula.crashed 1),
        Formula.Dk (s_desc, Formula.crashed 1) );
      ( Formula.Ck (s_asc, Formula.inited alpha0),
        Formula.Ck (s_desc, Formula.inited alpha0) );
    ]
  in
  List.iter
    (fun (fa, fb) ->
      let va = Checker.valid env fa in
      let entries = Checker.memo_entries env in
      let vb = Checker.valid env fb in
      Alcotest.(check bool) "identical verdicts" va vb;
      Alcotest.(check int)
        "second build of the same set adds no memo entry" entries
        (Checker.memo_entries env);
      Alcotest.(check string)
        "identical tables" (Checker.table_digest env fa)
        (Checker.table_digest env fb))
    checks

(* ---------- differential: packed kernel ≡ reference oracle ---------- *)

let rand_pid prng n = Prng.int prng n

let rand_set prng n =
  let s =
    List.fold_left
      (fun acc q -> if Prng.int prng 2 = 0 then Pid.Set.add q acc else acc)
      Pid.Set.empty (Pid.all n)
  in
  if Pid.Set.is_empty s then Pid.Set.add (rand_pid prng n) s else s

let rand_prim prng n =
  match Prng.int prng 7 with
  | 0 -> Formula.Crashed (rand_pid prng n)
  | 1 -> Formula.Inited alpha0
  | 2 -> Formula.Did (rand_pid prng n, alpha0)
  | 3 -> Formula.Suspects (rand_pid prng n, rand_pid prng n)
  | 4 -> Formula.Sent (rand_pid prng n, rand_pid prng n, req)
  | 5 -> Formula.Received (rand_pid prng n, rand_pid prng n, req)
  | _ -> Formula.At_least_crashed (rand_set prng n, Prng.int prng 3)

let rec rand_formula prng n depth =
  if depth = 0 then
    match Prng.int prng 6 with
    | 0 -> Formula.True
    | 1 -> Formula.False
    | _ -> Formula.Prim (rand_prim prng n)
  else
    let sub () = rand_formula prng n (depth - 1) in
    match Prng.int prng 10 with
    | 0 -> Formula.Not (sub ())
    | 1 -> Formula.And (sub (), sub ())
    | 2 -> Formula.Or (sub (), sub ())
    | 3 -> Formula.Implies (sub (), sub ())
    | 4 -> Formula.Always (sub ())
    | 5 -> Formula.Eventually (sub ())
    | 6 -> Formula.K (rand_pid prng n, sub ())
    | 7 -> Formula.Ck (rand_set prng n, sub ())
    | 8 -> Formula.Dk (rand_set prng n, sub ())
    | _ -> Formula.Prim (rand_prim prng n)

let differential =
  QCheck.Test.make ~name:"packed kernel ≡ reference on generated formulas"
    ~count:60 QCheck.int64 (fun seed ->
      let prng = Prng.create seed in
      let env, renv =
        if Prng.int prng 2 = 0 then Lazy.force enum_envs
        else Lazy.force sim_envs
      in
      let sys = Checker.system env in
      let f = rand_formula prng (System.n sys) 3 in
      let ok = ref true in
      System.iter_points sys (fun ~run ~tick ->
          if
            Checker.holds env f ~run ~tick
            <> Checker.Reference.holds renv f ~run ~tick
          then ok := false);
      !ok
      && Checker.counterexample env f = Checker.Reference.counterexample renv f)

(* ---------- determinism: tables bit-identical across domains -------- *)

let determinism_under_domains () =
  let env, _ = Lazy.force enum_envs in
  let sys = Checker.system env in
  let g = Pid.Set.of_list (Pid.all (System.n sys)) in
  let fs =
    [
      Formula.inited alpha0;
      Formula.(K (1, inited alpha0));
      Formula.(Ck (g, inited alpha0));
      Formula.(Dk (g, crashed 2));
      Formula.(Always (Prim (At_least_crashed (g, 1)) ==> crashed 0
                       ||| crashed 1 ||| crashed 2));
      Formula.(Eventually (did 2 alpha0 ||| crashed 2));
    ]
  in
  (* a fresh env queried from a 4-domain pool must produce byte-identical
     tables to the sequential warm env *)
  let seq = List.map (fun f -> Checker.table_digest env f) fs in
  let par_env = Checker.make sys in
  let par =
    Ensemble.map ~domains:4 (fun f -> Checker.table_digest par_env f) fs
  in
  List.iter2
    (fun a b -> Alcotest.(check string) "digest equal" a b)
    seq par

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ bitvec_model; intern_partition; differential ]

let suite =
  [
    Alcotest.test_case "bitvec: from_bit shapes" `Quick bitvec_from_bit;
    Alcotest.test_case "interning: canonical across insertion orders" `Quick
      interning_canonicalizes;
    Alcotest.test_case "checker memo: no split, identical verdicts" `Quick
      memo_does_not_split;
    Alcotest.test_case "determinism: digests stable under 4 domains" `Quick
      determinism_under_domains;
  ]
  @ qsuite
