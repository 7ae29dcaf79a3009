(* The exhaustive enumerator: pinned systems, domain-count determinism,
   the differential against the plain reference, and trace rendering of
   enumerated runs. *)

let alpha0 = Action_id.make ~owner:0 ~tag:0

(* Trace rendering: matched pairs and loss marking. *)
let trace_rendering () =
  let req = Message.Coord_request (alpha0, Fact.Set.empty) in
  let mk specs =
    let hists =
      Array.init 2 (fun p ->
          List.fold_left
            (fun h (e, tick) -> History.append h e ~tick)
            History.empty
            (Option.value ~default:[] (List.assoc_opt p specs)))
    in
    Run.make ~n:2 ~horizon:10 hists
  in
  let run =
    mk
      [
        ( 0,
          [
            (Event.Send { dst = 1; msg = req }, 1);
            (Event.Send { dst = 1; msg = req }, 3);
          ] );
        (1, [ (Event.Recv { src = 0; msg = req }, 5) ]);
      ]
  in
  let rendered = Trace.to_string run in
  let contains needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  (* one matched pair, one lost send *)
  Alcotest.(check bool) "has a matched tag" true (contains "#1" rendered);
  let lost_count =
    List.length
      (List.filter (contains "(lost)") (String.split_on_char '\n' rendered))
  in
  Alcotest.(check int) "one lost send" 1 lost_count

(* ---------- the frontier-parallel enumerator ---------- *)

(* The determinism contract: the run set — digests of the canonically
   sorted runs — is bit-identical at every domain count, exhaustive or
   truncated. The frontier split never depends on the
   pool size, so this is exact equality, not set equality. *)
let parallel_determinism =
  QCheck.Test.make ~name:"enumerate: domains {1,2,4} give identical run sets"
    ~count:12 QCheck.int64 (fun seed ->
      let label, proto, cfg = Helpers.random_enum_setup seed in
      let out1 = Enumerate.runs ~domains:1 cfg proto in
      let d1 = Enumerate.digest out1.Enumerate.runs in
      List.iter
        (fun domains ->
          let out = Enumerate.runs ~domains cfg proto in
          if out.Enumerate.exhaustive <> out1.Enumerate.exhaustive then
            QCheck.Test.fail_reportf
              "%s: exhaustive flag differs at domains=%d" label domains;
          let d = Enumerate.digest out.Enumerate.runs in
          if not (String.equal d d1) then
            QCheck.Test.fail_reportf
              "%s: digest differs at domains=%d (%s vs %s)" label domains d d1)
        [ 2; 4 ];
      (* forced truncation: clamp the budget below what the full space
         needs and require the same (truncated) run set at every domain
         count — loud truncation must not cost determinism *)
      if out1.Enumerate.stats.Enumerate.nodes > 8 then begin
        let tiny =
          { cfg with Enumerate.max_nodes =
              out1.Enumerate.stats.Enumerate.nodes / 2 }
        in
        let t1 = Enumerate.runs ~domains:1 tiny proto in
        if t1.Enumerate.exhaustive then
          QCheck.Test.fail_reportf "%s: clamped budget still exhaustive" label;
        (match Enumerate.runs_exn ~domains:1 tiny proto with
        | exception Enumerate.Truncated _ -> ()
        | _ ->
            QCheck.Test.fail_reportf "%s: runs_exn did not raise on truncation"
              label);
        let td = Enumerate.digest t1.Enumerate.runs in
        List.iter
          (fun domains ->
            let t = Enumerate.runs ~domains tiny proto in
            if
              t.Enumerate.exhaustive
              || not (String.equal (Enumerate.digest t.Enumerate.runs) td)
            then
              QCheck.Test.fail_reportf
                "%s: truncated run set differs at domains=%d" label domains)
          [ 2; 4 ]
      end;
      true)

(* Differential oracle: the plain reference walks every path of the raw
   move grammar with no table and no sibling rule, so it shares neither
   the frontier split nor the dedup rule with the enumerator; the run
   sets must be equal exactly. Every drawn context runs under each
   oracle mode. *)
let reference_differential =
  QCheck.Test.make
    ~name:"enumerate: frontier run set = sequential reference" ~count:10
    QCheck.int64 (fun seed ->
      let label, proto, cfg = Helpers.random_enum_setup seed in
      List.iter
        (fun oracle_mode ->
          let cfg = { cfg with Enumerate.oracle_mode } in
          let out = Enumerate.runs ~domains:2 cfg proto in
          let ref_out = Enumerate.Reference.runs cfg proto in
          if
            not
              (String.equal
                 (Enumerate.digest out.Enumerate.runs)
                 (Enumerate.digest ref_out.Enumerate.runs))
          then
            QCheck.Test.fail_reportf
              "%s: frontier and reference run sets differ" label)
        Enumerate.
          [ No_oracle; Perfect_reports; Lying_reports (cfg.n - 1) ];
      true)

(* Four exhaustive systems the experiments check theorems over, pinned:
   run count, run-set digest at domains 1 and 2, and dedup hits. A
   change to the move grammar, the emission policy or the dedup rule
   moves one of these. A node budget far below E6 perfect's must be
   loud: [runs_exn] raises and [runs] reports a partial system, never a
   silent under-approximation. *)
let pinned_systems () =
  let system ~depth ~oracle_mode proto =
    ( {
        (Enumerate.config ~n:3 ~depth) with
        Enumerate.max_crashes = 2;
        init_plan = Init_plan.one ~owner:0 ~at:1;
        oracle_mode;
        max_nodes = 20_000_000;
      },
      proto )
  in
  let fip trust = Core.Fip.make ~trust_reports:trust (module Core.Ack_udc.P) in
  let e6_perfect =
    system ~depth:6 ~oracle_mode:Enumerate.Perfect_reports (fip true)
  in
  List.iter
    (fun (name, (cfg, proto), runs, digest, hits) ->
      List.iter
        (fun domains ->
          let out = Enumerate.runs_exn ~domains cfg proto in
          let what = Printf.sprintf "%s, domains %d" name domains in
          Alcotest.(check int) (what ^ ": runs") runs
            (List.length out.Enumerate.runs);
          Alcotest.(check string) (what ^ ": digest") digest
            (Enumerate.digest out.Enumerate.runs);
          Alcotest.(check int) (what ^ ": dedup hits") hits
            out.Enumerate.stats.Enumerate.dedup_hits)
        [ 1; 2 ])
    [
      ( "E7",
        system ~depth:7 ~oracle_mode:Enumerate.Perfect_reports (fip true),
        3613, "e4d445edff551913485b5b052422df67", 25 );
      ( "E6 lying",
        system ~depth:6 ~oracle_mode:(Enumerate.Lying_reports 1) (fip false),
        17862, "6968518fa7c0980e19512124e65c4df8", 959 );
      ( "E6 perfect", e6_perfect, 1174, "fdd4771bd2113c38184fcc3215434543",
        3 );
      ( "E14",
        system ~depth:8 ~oracle_mode:Enumerate.No_oracle
          (module Core.Nudc.P : Protocol.S),
        882, "83b0bd6869ada0794c252f8de3d48b13", 14 );
    ];
  let cfg, proto = e6_perfect in
  let tiny = { cfg with Enumerate.max_nodes = 10 } in
  Alcotest.(check bool) "E6 perfect, max_nodes 10: runs_exn raises" true
    (match Enumerate.runs_exn tiny proto with
    | exception Enumerate.Truncated _ -> true
    | _ -> false);
  Alcotest.(check bool) "E6 perfect, max_nodes 10: not exhaustive" false
    (Enumerate.runs tiny proto).Enumerate.exhaustive

(* The library applies [Enumerate.check] too: no system with no
   process, a negative horizon or crash budget, or no node budget. *)
let rejects_out_of_range () =
  let base = Enumerate.config ~n:2 ~depth:3 in
  let proto = (module Core.Nudc.P : Protocol.S) in
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  List.iter
    (fun (what, cfg) ->
      Alcotest.(check bool) (what ^ ": runs") true
        (raises (fun () -> Enumerate.runs cfg proto));
      Alcotest.(check bool) (what ^ ": runs_exn") true
        (raises (fun () -> Enumerate.runs_exn cfg proto));
      Alcotest.(check bool) (what ^ ": reference") true
        (raises (fun () -> Enumerate.Reference.runs cfg proto)))
    [
      ("n 0", { base with Enumerate.n = 0 });
      ("depth -1", { base with Enumerate.depth = -1 });
      ("crashes -1", { base with Enumerate.max_crashes = -1 });
      ("max_nodes 0", { base with Enumerate.max_nodes = 0 });
    ]

(* ---------- structural message matching in traces ---------- *)

(* FIFO discipline with retransmission: two sends of the same content on
   one channel, two receives — the first receive must pair with the
   first send, the second with the second. *)
let trace_fifo_matching () =
  let req = Message.Coord_request (alpha0, Fact.Set.empty) in
  let hists =
    [|
      List.fold_left
        (fun h (e, tick) -> History.append h e ~tick)
        History.empty
        [
          (Event.Send { dst = 1; msg = req }, 1);
          (Event.Send { dst = 1; msg = req }, 3);
        ];
      List.fold_left
        (fun h (e, tick) -> History.append h e ~tick)
        History.empty
        [
          (Event.Recv { src = 0; msg = req }, 4);
          (Event.Recv { src = 0; msg = req }, 6);
        ];
    |]
  in
  let run = Run.make ~n:2 ~horizon:8 hists in
  let send_ids, recv_ids = Trace.match_messages run in
  let get tbl k =
    match Hashtbl.find_opt tbl k with
    | Some id -> id
    | None -> Alcotest.fail "expected a match id"
  in
  Alcotest.(check int) "send@1 pairs with recv@4" (get send_ids (0, 1))
    (get recv_ids (1, 4));
  Alcotest.(check int) "send@3 pairs with recv@6" (get send_ids (0, 3))
    (get recv_ids (1, 6));
  Alcotest.(check bool) "the two pairs are distinct" true
    (get send_ids (0, 1) <> get send_ids (0, 3))

(* Two *distinct* messages on the same (src, dst) channel — same action,
   different piggybacked fact sets. Matching is structural, so each
   receive must pair with the send of its own content even though the
   channel, tick order and action coincide. *)
let trace_structural_keys () =
  let f = Fact.Set.add (Fact.Inited alpha0) Fact.Set.empty in
  let m_plain = Message.Coord_request (alpha0, Fact.Set.empty) in
  let m_rich = Message.Coord_request (alpha0, f) in
  let hists =
    [|
      List.fold_left
        (fun h (e, tick) -> History.append h e ~tick)
        History.empty
        [
          (Event.Send { dst = 1; msg = m_plain }, 1);
          (Event.Send { dst = 1; msg = m_rich }, 2);
        ];
      (* the rich copy arrives first: printed-form or channel-only keys
         would hand it the tick-1 plain send *)
      List.fold_left
        (fun h (e, tick) -> History.append h e ~tick)
        History.empty
        [ (Event.Recv { src = 0; msg = m_rich }, 4) ];
    |]
  in
  let run = Run.make ~n:2 ~horizon:6 hists in
  let send_ids, recv_ids = Trace.match_messages run in
  Alcotest.(check bool) "plain send unmatched" true
    (Option.is_none (Hashtbl.find_opt send_ids (0, 1)));
  (match (Hashtbl.find_opt send_ids (0, 2), Hashtbl.find_opt recv_ids (1, 4)) with
  | Some s, Some r -> Alcotest.(check int) "rich send pairs with rich recv" s r
  | _ -> Alcotest.fail "rich copy should be matched");
  (* and the rendering marks exactly one send as lost *)
  let rendered = Trace.to_string run in
  let lost =
    List.length
      (List.filter
         (fun line ->
           let nl = String.length "(lost)" and hl = String.length line in
           let rec go i =
             i + nl <= hl && (String.sub line i nl = "(lost)" || go (i + 1))
           in
           go 0)
         (String.split_on_char '\n' rendered))
  in
  Alcotest.(check int) "one lost send" 1 lost

(* ---------- canonical hashing ---------- *)

(* The property the FNV scheme exists for: structurally equal sets hash
   equal whatever insertion order built them. (The generic
   [Hashtbl.hash] walks the AVL tree shape, which is insertion-order
   dependent — the root cause of the duplicate-run bug this PR fixes.) *)
let hash_shape_independence =
  QCheck.Test.make ~name:"Pid.Set/Message hashing is shape-independent"
    ~count:200
    QCheck.(small_list small_nat)
    (fun xs ->
      let xs = List.map (fun x -> x mod 17) xs in
      let fwd =
        List.fold_left (fun s p -> Pid.Set.add p s) Pid.Set.empty xs
      in
      let bwd =
        List.fold_left (fun s p -> Pid.Set.add p s) Pid.Set.empty
          (List.rev xs)
      in
      let sorted =
        Pid.Set.of_list (List.sort_uniq Int.compare xs)
      in
      if Pid.Set.hash fwd <> Pid.Set.hash bwd then
        QCheck.Test.fail_reportf "Pid.Set.hash depends on insertion order";
      if Pid.Set.hash fwd <> Pid.Set.hash sorted then
        QCheck.Test.fail_reportf "Pid.Set.hash depends on construction";
      let mf = Message.Gossip fwd and mb = Message.Gossip bwd in
      if Message.hash mf <> Message.hash mb then
        QCheck.Test.fail_reportf "Message.hash depends on payload shape";
      true)

let suite =
  [
    Alcotest.test_case "E6, E7 and E14 systems pinned" `Quick pinned_systems;
    Alcotest.test_case "out-of-range configs raise" `Quick rejects_out_of_range;
    Alcotest.test_case "trace rendering" `Quick trace_rendering;
    Alcotest.test_case "trace: FIFO matching under retransmission" `Quick
      trace_fifo_matching;
    Alcotest.test_case "trace: structural channel keys" `Quick
      trace_structural_keys;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ parallel_determinism; reference_differential; hash_shape_independence ]
