type oracle_mode = No_oracle | Perfect_reports | Lying_reports of Pid.t

type config = {
  n : int;
  depth : int;
  max_crashes : int;
  init_plan : Init_plan.t;
  oracle_mode : oracle_mode;
  max_nodes : int;
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
    frontier = 128;
  }

let check cfg =
  match
    List.find_opt
      (fun (_, v, least) -> v < least)
      [
        ("-n", cfg.n, 1);
        ("--depth", cfg.depth, 0);
        ("--crashes", cfg.max_crashes, 0);
        ("--max-nodes", cfg.max_nodes, 1);
      ]
  with
  | Some (flag, v, least) -> Error (Printf.sprintf "%s %d < %d" flag v least)
  | None -> Ok ()

let check_exn cfg =
  match check cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Enumerate: " ^ e)

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

(* Search node. [inflight_rev] is newest-first, so a send is a cons. *)
type node = {
  step : int; (* next tick to fill, 1-based *)
  hists : History.t array;
  states : Protocol.t array;
  crashed : Pid.Set.t;
  inflight_rev : (Pid.t * Pid.t * Message.t) list; (* src, dst, msg *)
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
      match History.event h i with
      | Event.Suspect r -> Some r
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
            (fun acc (src, dst, msg) ->
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
          else { node' with inflight_rev = (p, dst, msg) :: node.inflight_rev })
  | M_deliver (src, msg) ->
      (* remove the *earliest* matching in-flight copy — the FIFO pick of
         the original in-order scan; [inflight_rev] is newest-first, so
         scan its reversal and flip back *)
      let rec remove_first acc = function
        | [] -> invalid_arg "Enumerate: delivery of absent message"
        | ((s, d, m) as x) :: rest ->
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
            (fun (_, dst, _) -> not (Pid.equal dst p))
            node.inflight_rev;
      }
  | M_suspect r ->
      append (Event.Suspect r);
      states.(p) <- Protocol.on_suspect states.(p) r;
      node'

let all_moves cfg node =
  List.concat_map
    (fun p -> List.map (fun mv -> (p, mv)) (moves_for cfg node p))
    (Pid.all cfg.n)

(* The sibling rule. Every move appends exactly one event at the node's
   tick, so a node's timed histories determine its whole ancestor chain,
   and two nodes are equal only if they are children of one parent by
   moves that append the same event at the same process. That is this
   equality: in practice a second in-flight copy of one message, or a
   [Lying_reports] report equal to the accurate one. Such a move leads to
   the node its earlier sibling already leads to, so the search skips it
   and counts a dedup hit; no node is ever met twice, so no visited table
   is needed. *)
let same_move (p, a) (q, b) =
  Pid.equal p q
  &&
  match (a, b) with
  | M_init e, M_init e' ->
      Action_id.equal e.Init_plan.action e'.Init_plan.action
  | M_step, M_step | M_crash, M_crash -> true
  | M_deliver (s, m), M_deliver (s', m') -> Pid.equal s s' && Message.equal m m'
  | M_suspect r, M_suspect r' -> Report.equal r r'
  | (M_init _ | M_step | M_deliver _ | M_crash | M_suspect _), _ -> false

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

(* The counters of one search phase: the shared prefix, or one subtree.
   [emitted] holds each emitted run's histories, newest first. *)
type phase = {
  mutable nodes : int;
  mutable hits : int;
  mutable truncated : bool;
  mutable emitted : History.t array list;
}

let phase () = { nodes = 0; hits = 0; truncated = false; emitted = [] }

(* Visits one node under a node budget: emits it if it is a leaf or may
   stop here, and returns one child per move that no earlier sibling
   already made. *)
let expand cfg ph ~budget node =
  if ph.truncated then []
  else if node.step > cfg.depth then begin
    ph.emitted <- node.hists :: ph.emitted;
    []
  end
  else if ph.nodes >= budget then begin
    ph.truncated <- true;
    []
  end
  else begin
    ph.nodes <- ph.nodes + 1;
    let rec distinct = function
      | [] -> []
      | m :: rest ->
          let rest' = List.filter (fun m' -> not (same_move m m')) rest in
          ph.hits <- ph.hits + List.length rest - List.length rest';
          m :: distinct rest'
    in
    let moves = distinct (all_moves cfg node) in
    if not (owed moves) then ph.emitted <- node.hists :: ph.emitted;
    List.map (fun (p, mv) -> apply node p mv) moves
  end

(* Phase 1: breadth-first expansion of the shared prefix until a level
   is at least [cfg.frontier] wide. The constant is part of the
   configuration and *not* derived from the domain count, so the
   decomposition — hence the node counts — is identical for every pool
   size. *)
let bfs_prefix cfg ph root =
  let rec grow level =
    if ph.truncated || level = [] then []
    else if List.length level >= cfg.frontier then level
    else grow (List.concat_map (expand cfg ph ~budget:cfg.max_nodes) level)
  in
  grow [ root ]

(* Phase 2: one frontier node's subtree, depth-first. Distinct frontier
   nodes have distinct timed histories, hence root disjoint subtrees. *)
let explore_subtree cfg root ~budget =
  let ph = phase () in
  let rec go node = List.iter go (expand cfg ph ~budget node) in
  go root;
  ph

let compare_timed (e, t) (e', t') =
  match Int.compare t t' with 0 -> Event.compare e e' | c -> c

let compare_emissions a b =
  let n = Array.length a in
  let rec go i =
    if i >= n then 0
    else
      match
        List.compare compare_timed
          (History.timed_events a.(i))
          (History.timed_events b.(i))
      with
      | 0 -> go (i + 1)
      | c -> c
  in
  go 0

let make_runs cfg emitted =
  List.map
    (fun hists -> Run.make ~n:cfg.n ~horizon:cfg.depth (Array.copy hists))
    emitted

let runs ?domains cfg (proto : (module Protocol.S)) =
  check_exn cfg;
  let prefix = phase () in
  let subtrees = Array.of_list (bfs_prefix cfg prefix (root_node cfg proto)) in
  let nsub = Array.length subtrees in
  let results =
    if prefix.truncated || nsub = 0 then [||]
    else begin
      (* deterministic per-subtree budget slices of what the prefix left *)
      let remaining = max 0 (cfg.max_nodes - prefix.nodes) in
      let budgets =
        Array.init nsub (fun i ->
            (remaining / nsub) + if i < remaining mod nsub then 1 else 0)
      in
      Ensemble.map_array ?domains
        (fun i -> explore_subtree cfg subtrees.(i) ~budget:budgets.(i))
        (Array.init nsub Fun.id)
    end
  in
  (* No run is emitted twice, so the canonical sort alone fixes the
     order, whatever the pool size. *)
  let emitted =
    Array.fold_left (fun acc r -> r.emitted @ acc) prefix.emitted results
  in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 results in
  let truncated_subtrees = sum (fun r -> if r.truncated then 1 else 0) in
  {
    runs = make_runs cfg (List.sort compare_emissions emitted);
    exhaustive = not (prefix.truncated || truncated_subtrees > 0);
    stats =
      {
        nodes = prefix.nodes + sum (fun r -> r.nodes);
        dedup_hits = prefix.hits + sum (fun r -> r.hits);
        prefix_nodes = prefix.nodes;
        subtrees = nsub;
        truncated_subtrees;
        subtree_nodes = Array.map (fun r -> r.nodes) results;
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

let pp_stats ppf (s : stats) =
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

(* The plain definition: every path of the raw move grammar, with no
   table and no sibling rule, then the canonical sort with equal
   neighbours dropped. *)
module Reference = struct
  let runs cfg (proto : (module Protocol.S)) =
    check_exn cfg;
    let nodes = ref 0 and truncated = ref false and emitted = ref [] in
    let rec go node =
      if !truncated then ()
      else if node.step > cfg.depth then emitted := node.hists :: !emitted
      else if !nodes >= cfg.max_nodes then truncated := true
      else begin
        incr nodes;
        let moves = all_moves cfg node in
        if not (owed moves) then emitted := node.hists :: !emitted;
        List.iter (fun (p, mv) -> go (apply node p mv)) moves
      end
    in
    go (root_node cfg proto);
    let sorted = List.sort compare_emissions !emitted in
    let distinct =
      List.rev
        (List.fold_left
           (fun acc h ->
             match acc with
             | prev :: _ when compare_emissions prev h = 0 -> acc
             | _ -> h :: acc)
           [] sorted)
    in
    {
      runs = make_runs cfg distinct;
      exhaustive = not !truncated;
      stats =
        {
          nodes = !nodes;
          dedup_hits = List.length sorted - List.length distinct;
          prefix_nodes = !nodes;
          subtrees = 0;
          truncated_subtrees = 0;
          subtree_nodes = [||];
        };
    }
end
