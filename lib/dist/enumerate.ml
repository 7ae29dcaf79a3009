type oracle_mode = No_oracle | Perfect_reports | Lying_reports of Pid.t

type dedup = Timed | Untimed

type config = {
  n : int;
  depth : int;
  max_crashes : int;
  init_plan : Init_plan.t;
  oracle_mode : oracle_mode;
  max_nodes : int;
  dedup : dedup;
  frontier : int;
}

let config ~n ~depth =
  {
    n;
    depth;
    max_crashes = 0;
    init_plan = Init_plan.empty;
    oracle_mode = No_oracle;
    max_nodes = 2_000_000;
    dedup = Timed;
    frontier = 128;
  }

type stats = {
  nodes : int;
  dedup_hits : int;
  prefix_nodes : int;
  subtrees : int;
  truncated_subtrees : int;
  subtree_nodes : int array;
}

type outcome = { runs : Run.t list; exhaustive : bool; stats : stats }

exception Truncated of { nodes : int; max_nodes : int }

let () =
  Printexc.register_printer (function
    | Truncated { nodes; max_nodes } ->
        Some
          (Printf.sprintf
             "Enumerate.Truncated: exploration stopped after %d nodes \
              (max_nodes = %d) — the emitted run set is a truncation of the \
              system, not the system"
             nodes max_nodes)
    | _ -> None)

(* Search node. Per-history hashes are no longer maintained here: the
   flat {!History} representation carries exactly the incremental FNV
   fold this enumerator used to compute by hand (ticks mixed in iff
   [Timed]), so {!History.hash_events}/{!History.hash_timed_events} are
   O(1) lookups. [inflight_rev] is newest-first (appends are cons, not
   the quadratic [l @ [x]] of the original enumerator) and caches each
   message's hash alongside it. *)
type node = {
  step : int; (* next tick to fill, 1-based *)
  hists : History.t array;
  states : Protocol.t array;
  crashed : Pid.Set.t;
  inflight_rev : (Pid.t * Pid.t * Message.t * int) list; (* src, dst, msg, hash *)
  crashes_left : int;
  pending_inits : Init_plan.entry list;
}

(* One candidate move for one process at the current step. *)
type move =
  | M_init of Init_plan.entry
  | M_step
  | M_deliver of Pid.t * Message.t (* src, msg *)
  | M_crash
  | M_suspect of Report.t

let last_suspect h =
  let rec go i =
    if i < 0 then None
    else
      match History.get h i with
      | Event.Suspect r, _ -> Some r
      | _ -> go (i - 1)
  in
  go (History.length h - 1)

let moves_for cfg node p =
  if Pid.Set.mem p node.crashed then []
  else
    let crash = if node.crashes_left > 0 then [ M_crash ] else [] in
    match
      List.find_opt
        (fun e ->
          Pid.equal (Action_id.owner e.Init_plan.action) p
          && e.Init_plan.at <= node.step)
        node.pending_inits
    with
    | Some e ->
        (* initiation preempts protocol activity, but crashing stays
           possible: A1's failure independence means the adversary may
           crash a process before it ever initiates *)
        M_init e :: crash
    | None ->
        let deliveries =
          (* [inflight_rev] is newest-first; the fold reverses, so the
             moves come out in send order as before *)
          List.fold_left
            (fun acc (src, dst, msg, _) ->
              if Pid.equal dst p then M_deliver (src, msg) :: acc else acc)
            [] node.inflight_rev
        in
        let suspect =
          let offer r =
            let changed =
              match last_suspect node.hists.(p) with
              | Some prev -> not (Report.equal prev r)
              | None -> not (Pid.Set.is_empty (Report.suspects r))
            in
            if changed then [ M_suspect r ] else []
          in
          match cfg.oracle_mode with
          | No_oracle -> []
          | Perfect_reports -> offer (Report.std node.crashed)
          | Lying_reports victim ->
              (* accurate reports are always offered; a false suspicion of
                 the victim may additionally be inserted at any point *)
              offer (Report.std node.crashed)
              @ offer (Report.std (Pid.Set.add victim node.crashed))
        in
        let step =
          (* only offer a protocol step if it would produce an event *)
          let _, act = Protocol.step node.states.(p) ~now:node.step in
          match act with Protocol.No_op -> [] | _ -> [ M_step ]
        in
        step @ deliveries @ suspect @ crash

let apply node p move =
  let hists = Array.copy node.hists in
  let states = Array.copy node.states in
  let tick = node.step in
  let append e = hists.(p) <- History.append hists.(p) e ~tick in
  let node' = { node with hists; states; step = tick + 1 } in
  match move with
  | M_init e ->
      append (Event.Init e.Init_plan.action);
      states.(p) <- Protocol.on_init states.(p) e.Init_plan.action;
      {
        node' with
        pending_inits =
          List.filter
            (fun e' ->
              not (Action_id.equal e'.Init_plan.action e.Init_plan.action))
            node.pending_inits;
      }
  | M_step -> (
      let s', act = Protocol.step node.states.(p) ~now:tick in
      states.(p) <- s';
      match act with
      | Protocol.No_op -> node'
      | Protocol.Perform a ->
          append (Event.Do a);
          node'
      | Protocol.Send_to (dst, msg) ->
          append (Event.Send { dst; msg });
          if Pid.Set.mem dst node.crashed then node'
          else
            {
              node' with
              inflight_rev =
                (p, dst, msg, Message.hash msg) :: node.inflight_rev;
            })
  | M_deliver (src, msg) ->
      (* remove the *earliest* matching in-flight copy — the FIFO pick of
         the original in-order scan; [inflight_rev] is newest-first, so
         scan its reversal and flip back *)
      let rec remove_first acc = function
        | [] -> invalid_arg "Enumerate: delivery of absent message"
        | ((s, d, m, _) as x) :: rest ->
            if Pid.equal s src && Pid.equal d p && Message.equal m msg then
              List.rev_append acc rest
            else remove_first (x :: acc) rest
      in
      append (Event.Recv { src; msg });
      states.(p) <- Protocol.on_recv states.(p) ~now:tick ~src msg;
      {
        node' with
        inflight_rev = List.rev (remove_first [] (List.rev node.inflight_rev));
      }
  | M_crash ->
      append Event.Crash;
      {
        node' with
        crashed = Pid.Set.add p node.crashed;
        crashes_left = node.crashes_left - 1;
        inflight_rev =
          List.filter
            (fun (_, dst, _, _) -> not (Pid.equal dst p))
            node.inflight_rev;
      }
  | M_suspect r ->
      append (Event.Suspect r);
      states.(p) <- Protocol.on_suspect states.(p) r;
      node'

(* Node identity.

   Ticks are excluded from [Untimed] keys: local histories (hence
   protocol states and knowledge) are tick-insensitive, so nodes that
   differ only in when events landed generate tick-relabelled,
   knowledge-equivalent subtrees; merging them is a partial-order
   reduction.

   [step] is excluded from the key in *both* modes. Every move appends
   exactly one event (a protocol step is only offered when it produces
   one), so [step = 1 + Σ_p length hists.(p)] — it is derivable from the
   histories under either equality and can never separate two otherwise
   equal nodes. The original enumerator keyed on it anyway, which cost
   key bytes without merging or separating anything.

   [states] and [crashed] are likewise derivable (protocols are
   deterministic functions of the local history; crashed_p iff hists.(p)
   ends in [Crash]), so the key is: histories under the mode's equality,
   plus in-flight messages (order-sensitive, as in the original),
   crashes-left, and pending initiations.

   Keys are an FNV fingerprint (see {!Fnv}) resolved by structural
   equality on collision — replacing a digest of each node's serialised
   memory image, which (a) re-serialised every node in full, and (b)
   keyed equal-but-differently-shaped set payloads apart, so two
   structurally equal runs could both survive the "dedup" and be emitted
   twice. *)

let hist_equal mode a b =
  match mode with
  | Timed -> History.equal_timed a b
  | Untimed -> History.equal_events a b

let hists_equal mode a b =
  let n = Array.length a in
  Array.length b = n
  &&
  let rec go i = i >= n || (hist_equal mode a.(i) b.(i) && go (i + 1)) in
  go 0

let node_equal mode a b =
  a.crashes_left = b.crashes_left
  && List.equal
       (fun (s, d, m, _) (s', d', m', _) ->
         Pid.equal s s' && Pid.equal d d' && Message.equal m m')
       a.inflight_rev b.inflight_rev
  && List.equal
       (fun e e' -> Action_id.equal e.Init_plan.action e'.Init_plan.action)
       a.pending_inits b.pending_inits
  && hists_equal mode a.hists b.hists

(* The mode's per-history hash, O(1) from the flat representation. The
   values are identical to the hand-maintained fold this file used to
   carry: [History]'s incremental hashes use the same Fnv formulas. *)
let hist_hash mode h =
  match mode with
  | Timed -> History.hash_timed_events h
  | Untimed -> History.hash_events h

let hists_hash mode hists =
  Array.fold_left (fun acc h -> Fnv.mix acc (hist_hash mode h)) Fnv.seed hists

let node_fingerprint mode node =
  let acc = hists_hash mode node.hists in
  let acc =
    List.fold_left
      (fun acc (s, d, _, mh) ->
        Fnv.mix (Fnv.mix (Fnv.mix acc (Pid.hash s)) (Pid.hash d)) mh)
      acc node.inflight_rev
  in
  let acc =
    List.fold_left
      (fun acc e -> Fnv.mix acc (Action_id.hash e.Init_plan.action))
      acc node.pending_inits
  in
  Fnv.mix acc node.crashes_left

(* Fingerprint-bucketed structural tables. *)
let table_mem tbl mode fp node =
  match Hashtbl.find_opt tbl fp with
  | None -> false
  | Some bucket -> List.exists (node_equal mode node) bucket

let table_add tbl fp node =
  Hashtbl.replace tbl fp
    (node :: Option.value ~default:[] (Hashtbl.find_opt tbl fp))

(* Collected runs: the emission's fingerprint is the fold of the
   per-history hashes, so in [Untimed] mode runs are deduplicated by
   event content and the kept representative is the first emitted in the
   deterministic merge order (the original enumerator deduplicated
   emissions by *timed* key even in [Untimed] mode, so tick-relabelled
   variants of one untimed run could all be emitted). *)
type emission = { ehists : History.t array; rfp : int }

type collector = {
  mode : dedup;
  collected : (int, History.t array list) Hashtbl.t;
  mutable out_rev : emission list;
  mutable dups : int;
}

let collector mode =
  { mode; collected = Hashtbl.create 512; out_rev = []; dups = 0 }

let collect c (em : emission) =
  let bucket =
    Option.value ~default:[] (Hashtbl.find_opt c.collected em.rfp)
  in
  if List.exists (hists_equal c.mode em.ehists) bucket then
    c.dups <- c.dups + 1
  else begin
    Hashtbl.replace c.collected em.rfp (em.ehists :: bucket);
    c.out_rev <- em :: c.out_rev
  end

let emission_of_node mode node =
  { ehists = node.hists; rfp = hists_hash mode node.hists }

let all_moves cfg node =
  List.concat_map
    (fun p -> List.map (fun mv -> (p, mv)) (moves_for cfg node p))
    (Pid.all cfg.n)

(* Emission policy. A run may stop (idle to the horizon) exactly when no
   move is *owed*: crashes are never forced, deliveries can be withheld
   forever (losses), and failure-detector reports can be withheld (their
   absence only weakens the detector the run exhibits). Protocol steps
   and pending initiations are owed: correct processes take steps
   whenever their protocol has something to do, so a run is not
   admissible while one is available. Interior points of emitted runs are
   visited by the epistemic engine as (r, m), so proper prefixes need not
   be emitted separately. *)
let owed moves =
  List.exists
    (fun (_, mv) ->
      match mv with
      | M_step | M_init _ -> true
      | M_deliver _ | M_crash | M_suspect _ -> false)
    moves

let root_node cfg (proto : (module Protocol.S)) =
  {
    step = 1;
    hists = Array.make cfg.n History.empty;
    states = Array.init cfg.n (fun p -> Protocol.make proto ~n:cfg.n ~me:p);
    crashed = Pid.Set.empty;
    inflight_rev = [];
    crashes_left = cfg.max_crashes;
    pending_inits = Init_plan.entries cfg.init_plan;
  }

(* One independent subtree, explored depth-first under a node budget.
   Per-subtree tables are sound: in [Timed] mode every event carries a
   distinct global tick, so a node's timed state determines its whole
   ancestor chain and distinct frontier nodes root *disjoint* subtrees —
   a global visited table could not have merged anything across them. In
   [Untimed] mode subtrees can re-derive tick-relabelled states of each
   other; those meet again at the merge, where runs are deduplicated by
   untimed content. *)
type subtree_result = {
  emissions : emission list; (* in DFS emission order *)
  sub_nodes : int;
  sub_hits : int;
  sub_truncated : bool;
}

let explore_subtree cfg root ~budget =
  let mode = cfg.dedup in
  let visited = Hashtbl.create 1024 in
  let c = collector mode in
  let nodes = ref 0 in
  let hits = ref 0 in
  let truncated = ref false in
  let rec go node =
    if !truncated then ()
    else if node.step > cfg.depth then collect c (emission_of_node mode node)
    else if !nodes >= budget then truncated := true
    else begin
      incr nodes;
      let fp = node_fingerprint mode node in
      if table_mem visited mode fp node then incr hits
      else begin
        table_add visited fp node;
        let moves = all_moves cfg node in
        if not (owed moves) then collect c (emission_of_node mode node);
        List.iter (fun (p, mv) -> go (apply node p mv)) moves
      end
    end
  in
  go root;
  {
    emissions = List.rev c.out_rev;
    sub_nodes = !nodes;
    sub_hits = !hits + c.dups;
    sub_truncated = !truncated;
  }

(* Phase 1: breadth-first expansion of the shared prefix, deduplicating
   within each level (every move appends exactly one event, so equal
   nodes — under either mode's equality — have equal event counts and
   can only meet within a level). Stops when a level is at least
   [cfg.frontier] wide; the constant is part of the configuration and
   *not* derived from the domain count, so the decomposition — hence the
   emitted run set — is identical for every pool size. *)
let bfs_prefix cfg c root =
  let mode = cfg.dedup in
  let nodes = ref 0 in
  let hits = ref 0 in
  let truncated = ref false in
  let expand_level level =
    let seen = Hashtbl.create 512 in
    let next_rev = ref [] in
    List.iter
      (fun node ->
        if !truncated then ()
        else if node.step > cfg.depth then collect c (emission_of_node mode node)
        else if !nodes >= cfg.max_nodes then truncated := true
        else begin
          incr nodes;
          let moves = all_moves cfg node in
          if not (owed moves) then collect c (emission_of_node mode node);
          List.iter
            (fun (p, mv) ->
              let child = apply node p mv in
              let fp = node_fingerprint mode child in
              if table_mem seen mode fp child then incr hits
              else begin
                table_add seen fp child;
                next_rev := child :: !next_rev
              end)
            moves
        end)
      level;
    List.rev !next_rev
  in
  let rec grow level =
    if !truncated || level = [] then []
    else if List.length level >= cfg.frontier then level
    else grow (expand_level level)
  in
  let frontier = grow [ root ] in
  (frontier, !nodes, !hits, !truncated)

let compare_timed (e, t) (e', t') =
  match Int.compare t t' with 0 -> Event.compare e e' | c -> c

let compare_emissions a b =
  let n = Array.length a.ehists in
  let rec go i =
    if i >= n then 0
    else
      match
        List.compare compare_timed
          (History.timed_events a.ehists.(i))
          (History.timed_events b.ehists.(i))
      with
      | 0 -> go (i + 1)
      | c -> c
  in
  go 0

let runs ?domains cfg (proto : (module Protocol.S)) =
  let c = collector cfg.dedup in
  let root = root_node cfg proto in
  let frontier, prefix_nodes, prefix_hits, prefix_truncated =
    bfs_prefix cfg c root
  in
  let subtrees = Array.of_list frontier in
  let nsub = Array.length subtrees in
  let results =
    if prefix_truncated || nsub = 0 then [||]
    else begin
      (* deterministic per-subtree budget slices of what the prefix left *)
      let remaining = max 0 (cfg.max_nodes - prefix_nodes) in
      let budgets =
        Array.init nsub (fun i ->
            (remaining / nsub) + if i < remaining mod nsub then 1 else 0)
      in
      Ensemble.map_array ?domains
        (fun i -> explore_subtree cfg subtrees.(i) ~budget:budgets.(i))
        (Array.init nsub Fun.id)
    end
  in
  (* Merge per-subtree run sets in subtree order — sequential and
     deterministic, so the kept representative of each run is the same
     whatever the pool size. *)
  Array.iter (fun r -> List.iter (collect c) r.emissions) results;
  let truncated_subtrees =
    Array.fold_left
      (fun acc r -> if r.sub_truncated then acc + 1 else acc)
      0 results
  in
  let nodes =
    Array.fold_left (fun acc r -> acc + r.sub_nodes) prefix_nodes results
  in
  let dedup_hits =
    Array.fold_left (fun acc r -> acc + r.sub_hits) (prefix_hits + c.dups)
      results
  in
  let sorted = List.sort compare_emissions (List.rev c.out_rev) in
  let runs =
    List.map
      (fun em -> Run.make ~n:cfg.n ~horizon:cfg.depth (Array.copy em.ehists))
      sorted
  in
  {
    runs;
    exhaustive = not (prefix_truncated || truncated_subtrees > 0);
    stats =
      {
        nodes;
        dedup_hits;
        prefix_nodes;
        subtrees = nsub;
        truncated_subtrees;
        subtree_nodes = Array.map (fun r -> r.sub_nodes) results;
      };
  }

let runs_exn ?domains cfg proto =
  let o = runs ?domains cfg proto in
  if not o.exhaustive then
    raise (Truncated { nodes = o.stats.nodes; max_nodes = cfg.max_nodes });
  o

let digest runs =
  (* canonical printed form, not the memory image: the digest must agree
     for structurally equal run lists whatever the in-memory shape of
     their set payloads *)
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string buf (string_of_int (Run.n r));
      Buffer.add_char buf '/';
      Buffer.add_string buf (string_of_int (Run.horizon r));
      List.iter
        (fun p ->
          Buffer.add_char buf '|';
          List.iter
            (fun (e, t) ->
              Buffer.add_string buf (string_of_int t);
              Buffer.add_char buf ':';
              Buffer.add_string buf (Format.asprintf "%a" Event.pp e);
              Buffer.add_char buf ';')
            (History.timed_events (Run.history r p)))
        (Pid.all (Run.n r));
      Buffer.add_char buf '\n')
    runs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>nodes explored: %d (prefix %d, %d subtree%s%s)@,\
     dedup hits: %d (%.1f%% of visits)@]"
    s.nodes s.prefix_nodes s.subtrees
    (if s.subtrees = 1 then "" else "s")
    (if s.truncated_subtrees > 0 then
       Printf.sprintf ", %d truncated" s.truncated_subtrees
     else "")
    s.dedup_hits
    (if s.nodes + s.dedup_hits = 0 then 0.0
     else
       100.0 *. float_of_int s.dedup_hits
       /. float_of_int (s.nodes + s.dedup_hits))

(* The original single-table sequential depth-first enumerator, kept as a
   differential oracle for the tests (precedent: [Checker.Reference]).
   Shares the move grammar and the structural keys; differs in search
   order and in using one global visited table. In [Timed] mode its run
   set must match the frontier enumerator's exactly. *)
module Reference = struct
  let runs cfg (proto : (module Protocol.S)) =
    let mode = cfg.dedup in
    let visited = Hashtbl.create 4096 in
    let c = collector mode in
    let nodes = ref 0 in
    let hits = ref 0 in
    let truncated = ref false in
    let rec go node =
      if !truncated then ()
      else if node.step > cfg.depth then collect c (emission_of_node mode node)
      else if !nodes >= cfg.max_nodes then truncated := true
      else begin
        incr nodes;
        let fp = node_fingerprint mode node in
        if table_mem visited mode fp node then incr hits
        else begin
          table_add visited fp node;
          let moves = all_moves cfg node in
          if not (owed moves) then collect c (emission_of_node mode node);
          List.iter (fun (p, mv) -> go (apply node p mv)) moves
        end
      end
    in
    go (root_node cfg proto);
    let sorted = List.sort compare_emissions (List.rev c.out_rev) in
    {
      runs =
        List.map
          (fun em ->
            Run.make ~n:cfg.n ~horizon:cfg.depth (Array.copy em.ehists))
          sorted;
      exhaustive = not !truncated;
      stats =
        {
          nodes = !nodes;
          dedup_hits = !hits + c.dups;
          prefix_nodes = !nodes;
          subtrees = 1;
          truncated_subtrees = (if !truncated then 1 else 0);
          subtree_nodes = [||];
        };
    }
end
