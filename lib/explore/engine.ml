type move = Silence of Pid.t * Pid.t | Deviate of int * Decision.t

let pp_move ppf = function
  | Silence (src, dst) -> Format.fprintf ppf "silence %d->%d" src dst
  | Deviate (i, d) -> Format.fprintf ppf "%a@@%d" Decision.pp d i

type node = {
  silences : (Pid.t * Pid.t) list; (* ascending by (src, dst) *)
  devs : (int * Decision.t) list; (* ascending by decision index *)
}

let root = { silences = []; devs = [] }

let moves node =
  List.map (fun l -> Silence (fst l, snd l)) node.silences
  @ List.map (fun (i, d) -> Deviate (i, d)) node.devs

let depth_of node = List.length node.silences + List.length node.devs

let pp_node ppf node =
  match moves node with
  | [] -> Format.pp_print_string ppf "(default schedule)"
  | ms ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
        pp_move ppf ms

type mode = Bfs | Dpor | Fuzz

let mode_to_string = function Bfs -> "bfs" | Dpor -> "dpor" | Fuzz -> "fuzz"

type options = {
  mode : mode;
  depth : int;
  window : int;
  domains : int option;
  max_runs : int;
  crash_points : int;
  pick_points : int;
  branch_silences : bool;
  seen_cache : bool;
  mutants : int;
}

let default_options =
  {
    mode = Bfs;
    depth = 4;
    window = 600;
    domains = None;
    max_runs = 20_000;
    crash_points = 8;
    pick_points = 6;
    branch_silences = true;
    seen_cache = true;
    mutants = 16;
  }

(* Suspicion branch points per process, and the fewest ticks between two
   of them in bfs mode (dpor spaces them by dependence instead). *)
let suspect_points = 2
let suspect_stride = 3

(* Runs evaluated per {!Ensemble} wave. The witness and every counter
   are independent of it: waves partition the frontier in order and each
   is merged in frontier order, so the first violating node of the BFS
   prefix wins for every wave size, and counting stops at the witness. *)
let chunk = 1024

type stats = {
  explored : int;
  depth_reached : int;
  states : int;
  distinct : int;
  seen_hits : int;
  pruned : int;
}

type witness = {
  node : node;
  trace : Decision.t list;
  result : Sim.result;
  violation : string;
}

type outcome = Violation of witness * stats | Exhausted of stats | Budget of stats

(* Candidate extensions of a node, derived from the journal of its own run.
   Canonical move order keeps the search over combinations rather than
   permutations: silences (which act from tick 0 and so commute with
   everything) are added first, in ascending link order; indexed deviations
   are added in ascending decision-index order — a persistent sleep set:
   once a branch point is passed, no descendant re-branches on it. Each
   family is pruned:
   - silences only for links that carried an undropped send in the window;
   - crash deviations only where the victim's history changed since its
     previous crash query (crashing a silent process later is equivalent),
     capped per victim;
   - pick deviations only for alternatives with a distinct content key
     (delivering an identical message commutes);
   - suspicion deviations capped per process and spaced by ticks, only
     when the problem lets the explorer play the detector.
   In dpor mode the journal's happens-before relation ({!Hb}) tightens the
   crash, suspicion and pick families further — see each family below for
   the equivalence argument — and the suppressed branch points are counted
   so the reduction is observable. Returns (moves, branch points pruned by
   dpor). *)
let children problem opts node (journal : Decision.entry array) =
  let dpor = opts.mode = Dpor in
  let pruned = ref 0 in
  let last_dev = List.fold_left (fun _ (i, _) -> i) (-1) node.devs in
  let limit = min opts.window (Array.length journal) in
  let out = ref [] in
  let emit m = out := m :: !out in
  if opts.branch_silences && node.devs = [] then begin
    let last_sil =
      match List.rev node.silences with l :: _ -> Some l | [] -> None
    in
    let seen = Hashtbl.create 8 in
    for i = 0 to limit - 1 do
      match (journal.(i).Decision.query, journal.(i).Decision.taken) with
      | Decision.Q_drop { src; dst }, Decision.Drop false ->
          let link = (src, dst) in
          if
            (not (Hashtbl.mem seen link))
            && match last_sil with None -> true | Some l -> compare l link < 0
          then begin
            Hashtbl.add seen link ();
            emit (Silence (src, dst))
          end
      | _ -> ()
    done
  end;
  (let last_events = Hashtbl.create 8 and count = Hashtbl.create 8 in
   (* dpor: last *kept* crash point per victim, as (index, events) *)
   let last_kept = Hashtbl.create 8 in
   for i = 0 to limit - 1 do
     match (journal.(i).Decision.query, journal.(i).Decision.taken) with
     | Decision.Q_crash { pid; events }, Decision.Crash false ->
         let fresh =
           match Hashtbl.find_opt last_events pid with
           | Some e -> e <> events
           | None -> true
         in
         Hashtbl.replace last_events pid events;
         if fresh && i > last_dev then begin
           let c = Option.value ~default:0 (Hashtbl.find_opt count pid) in
           if c < opts.crash_points then begin
             (* dpor refinement: a crash point whose whole event delta
                since the previous kept point is passive receipts
                commutes with it — the victim's trailing receives are
                the only difference between the two runs, and a crashed
                process's unacted-on receipts are invisible to every
                property. Points where the victim sent, initiated,
                performed or reported remain dependent and are kept. *)
             let keep =
               (not dpor)
               ||
               match Hashtbl.find_opt last_kept pid with
               | None -> true
               | Some (i0, e0) ->
                   events - e0
                   > Hb.receives_between journal ~dst:pid ~lo:i0 ~hi:i
             in
             if keep then begin
               Hashtbl.replace count pid (c + 1);
               Hashtbl.replace last_kept pid (i, events);
               emit (Deviate (i, Decision.Crash true))
             end
             else incr pruned
           end
         end
     | _ -> ()
   done);
  if problem.Problem.adversarial_oracle then begin
    let count = Hashtbl.create 8 and last_tick = Hashtbl.create 8 in
    let last_kept = Hashtbl.create 8 in
    for i = 0 to limit - 1 do
      match (journal.(i).Decision.query, journal.(i).Decision.taken) with
      | Decision.Q_suspect { pid; arity }, Decision.Suspect 0
        when i > last_dev ->
          (* bfs spaces suspicion points by wall ticks; dpor spaces them
             by dependence — two injection points with nothing touching
             the process between them commute (the report lands before
             the same next event either way) *)
          let spaced =
            if dpor then
              match Hashtbl.find_opt last_kept pid with
              | None -> true
              | Some i0 -> Hb.touches_between journal ~pid ~lo:i0 ~hi:i
            else
              match Hashtbl.find_opt last_tick pid with
              | Some t -> journal.(i).Decision.tick >= t + suspect_stride
              | None -> true
          in
          let c = Option.value ~default:0 (Hashtbl.find_opt count pid) in
          if c < suspect_points then begin
            if spaced then begin
              Hashtbl.replace last_tick pid journal.(i).Decision.tick;
              Hashtbl.replace last_kept pid i;
              Hashtbl.replace count pid (c + 1);
              for q = 0 to arity - 2 do
                if q <> pid then emit (Deviate (i, Decision.Suspect (q + 1)))
              done
            end
            else if dpor then incr pruned
          end
      | _ -> ()
    done
  end;
  (let points = ref 0 in
   (* dpor: last kept pick point per destination, as (index, sorted
      keys) *)
   let last_kept = Hashtbl.create 8 in
   for i = 0 to limit - 1 do
     match (journal.(i).Decision.query, journal.(i).Decision.taken) with
     | Decision.Q_pick { dst; keys }, Decision.Pick k
       when i > last_dev && Array.length keys > 1 && !points < opts.pick_points
       ->
         (* dpor refinement: a pick point whose alternative set is the
            same as the destination's previous kept point, with nothing
            touching the destination in between, offers the same
            reorderings — branching there again explores permutations
            of commuting deliveries *)
         let sorted () =
           let s = Array.copy keys in
           Array.sort compare s;
           s
         in
         let keep =
           (not dpor)
           ||
           match Hashtbl.find_opt last_kept dst with
           | None -> true
           | Some (i0, keys0) ->
               keys0 <> sorted ()
               || Hb.touches_between journal ~pid:dst ~lo:i0 ~hi:i
         in
         if keep then begin
           incr points;
           if dpor then Hashtbl.replace last_kept dst (i, sorted ());
           let seen = ref [ keys.(k) ] in
           Array.iteri
             (fun j key ->
               if j <> k && not (List.mem key !seen) then begin
                 seen := key :: !seen;
                 emit (Deviate (i, Decision.Pick j))
               end)
             keys
         end
         else incr pruned
     | _ -> ()
   done);
  (List.rev !out, !pruned)

(* Search nodes accumulate their moves newest-first (a cons per child
   instead of the quadratic [l @ [x]] tail-append); [seal] reverses into
   the public ascending-order {!node} exactly once, when the node is
   evaluated. *)
type snode = {
  rev_silences : (Pid.t * Pid.t) list;
  rev_devs : (int * Decision.t) list;
}

let snode_root = { rev_silences = []; rev_devs = [] }

let seal s =
  { silences = List.rev s.rev_silences; devs = List.rev s.rev_devs }

let extend s = function
  | Silence (src, dst) -> { s with rev_silences = (src, dst) :: s.rev_silences }
  | Deviate (i, d) -> { s with rev_devs = (i, d) :: s.rev_devs }

(* Everything the sequential merge needs from one run, computed in the
   parallel phase, plus the number of decisions the run made (each is one
   visited decision-prefix state). A violating node carries its verdict
   and recorded trace, so the merge never re-executes. An interior node
   carries its run (the seen-cache key), its candidate extensions and the
   dpor prune count. A leaf — a node at the depth bound, which is never
   extended — carries nothing else: it has no subtree for the seen cache
   to cut, and nothing reads its journal, so it runs without one. Only a
   violating leaf runs again, recording, for its witness trace; the same
   plan, silences and config make the same run. *)
type verdict =
  | Violating of { desc : string; trace : Decision.t list; result : Sim.result }
  | Leaf
  | Interior of { run : Run.t; moves : move list; pruned : int }

type eval_out = { decisions : int; verdict : verdict }

let eval problem opts snode =
  let node = seal snode in
  let leaf = depth_of node >= opts.depth in
  let run ~record =
    Problem.run problem ~record ~plan:node.devs ~silence:node.silences
  in
  let result, source = run ~record:(not leaf) in
  let verdict =
    match Problem.violation problem result with
    | Some desc ->
        let result, source =
          if leaf then run ~record:true else (result, source)
        in
        Violating { desc; trace = Decision.trace source; result }
    | None when leaf -> Leaf
    | None ->
        let moves, pruned =
          children problem opts node (Decision.journal source)
        in
        Interior { run = result.Sim.run; moves; pruned }
  in
  { decisions = Decision.count source; verdict }

let violating e = match e.verdict with Violating _ -> true | _ -> false

(* tail-recursive: BFS frontiers reach hundreds of thousands of nodes at
   depth >= 2, where the naive recursion overflowed the stack *)
let split_at k l =
  let rec go k acc = function
    | rest when k <= 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (k - 1) (x :: acc) rest
  in
  go k [] l

type counters = {
  mutable explored : int;
  mutable states : int;
  mutable seen_hits : int;
  mutable pruned : int;
}

let fresh_counters () = { explored = 0; states = 0; seen_hits = 0; pruned = 0 }

let snapshot c ~seen ~depth =
  {
    explored = c.explored;
    depth_reached = depth;
    states = c.states;
    distinct = (match seen with Some s -> Seen.distinct s | None -> 0);
    seen_hits = c.seen_hits;
    pruned = c.pruned;
  }

(* Breadth-first by move count, one work-stealing wave per [chunk]-sized
   frontier slice: the whole slice is one {!Ensemble.map_until} job whose
   items are claimed from a shared atomic counter (no lock-step chunk
   barriers — an idle domain steals the next node instead of waiting out
   the slice), stopping early at the first violating node in frontier
   order. The merge — counting, seen-cache cuts, child generation — runs
   sequentially over the returned prefix, which is exactly why every
   counter and the witness are bit-identical at every domain count:
   [explored] counts to the witness node inclusive and no further,
   independent of how far past it the steal counter ran. *)
let bfs_search ~options problem =
  let seen = if options.seen_cache then Some (Seen.create ()) else None in
  let c = fresh_counters () in
  let stats depth = snapshot c ~seen ~depth in
  let rec level frontier kids_acc =
    match frontier with
    | [] -> `Done (List.concat (List.rev kids_acc))
    | _ when options.max_runs - c.explored <= 0 -> `Budget
    | _ ->
        let now, rest =
          split_at (min chunk (options.max_runs - c.explored)) frontier
        in
        let now = Array.of_list now in
        let evals, _ =
          Ensemble.map_until ?domains:options.domains ~stop_on:violating
            (fun snode -> eval problem options snode)
            now
        in
        let hit = ref None in
        let kids = ref [] in
        let i = ref 0 in
        while !hit = None && !i < Array.length evals do
          let e = evals.(!i) in
          c.explored <- c.explored + 1;
          c.states <- c.states + e.decisions;
          (match e.verdict with
          | Violating { desc; trace; result } ->
              hit := Some (now.(!i), desc, trace, result)
          | Leaf -> ()
          | Interior { run; moves; pruned } ->
              let cut =
                match seen with
                | Some s -> Seen.check_add s run
                | None -> false
              in
              if cut then c.seen_hits <- c.seen_hits + 1
              else begin
                c.pruned <- c.pruned + pruned;
                kids := List.map (extend now.(!i)) moves :: !kids
              end);
          incr i
        done;
        (match !hit with
        | Some w -> `Found w
        | None -> level rest (List.rev_append !kids kids_acc))
  in
  let rec go depth frontier =
    match level frontier [] with
    | `Found (snode, desc, trace, result) ->
        let node = seal snode in
        ( Violation ({ node; trace; result; violation = desc }, stats depth),
          stats depth )
    | `Budget -> (Budget (stats depth), stats depth)
    | `Done [] -> (Exhausted (stats depth), stats depth)
    | `Done kids -> go (depth + 1) kids
  in
  go 0 [ snode_root ]

(* Coverage-guided fuzzing for depths the bounded search cannot reach: no
   move sets, no depth bound — deterministic seeded mutations of recorded
   traces, executed tolerantly (a mutation that derails the schedule
   degrades to the scripted defaults), with a mutant joining the corpus
   iff its effective trace reaches a decision-prefix state no earlier run
   reached. All randomness comes from {!Prng} streams keyed on the
   problem seed, the round and the mutant index, and mutants are merged
   sequentially in generation order, so the hunt is reproducible and
   domain-count-independent end to end. *)
let mutate prng (trace : Decision.t array) =
  let arr = Array.copy trace in
  let len = Array.length arr in
  if len > 0 then begin
    let npoints = 1 + Prng.int prng 2 in
    for _ = 1 to npoints do
      let j = Prng.int prng len in
      arr.(j) <-
        (match arr.(j) with
        | Decision.Deliver b -> Decision.Deliver (not b)
        | Decision.Drop b -> Decision.Drop (not b)
        | Decision.Crash b -> Decision.Crash (not b)
        | Decision.Suspect 0 -> Decision.Suspect 1
        | Decision.Suspect _ -> Decision.Suspect 0
        | Decision.Pick 0 -> Decision.Pick 1
        | Decision.Pick _ -> Decision.Pick 0
        | Decision.Order a ->
            let b = Array.copy a in
            let n = Array.length b in
            if n >= 2 then begin
              let x = Prng.int prng n and y = Prng.int prng n in
              let t = b.(x) in
              b.(x) <- b.(y);
              b.(y) <- t
            end;
            Decision.Order b)
    done
  end;
  Array.to_list arr

(* One mutant's execution, computed in the parallel phase: its verdict,
   its run and its effective trace — the witness trace on a violation,
   the corpus candidate otherwise — so the merge never re-executes. *)
type mutant = {
  m_violation : string option;
  m_result : Sim.result;
  m_effective : Decision.t list;
  m_decisions : int;
}

let fuzz ?(options = default_options) problem =
  (* without a mutant per parent a wave is empty, and every round would
     re-queue the same parents forever *)
  if options.mutants < 1 then invalid_arg "Engine.fuzz: mutants must be >= 1";
  let seen = Seen.create () in
  let c = fresh_counters () in
  let rounds = ref 0 in
  let stats () = snapshot c ~seen:(Some seen) ~depth:!rounds in
  let seed0 =
    Fnv.mix Fnv.seed
      (Int64.to_int problem.Problem.config.Sim.seed land max_int)
  in
  let eval_trace trace =
    let result, source = Problem.run_guided problem ~trace in
    {
      m_violation = Problem.violation problem result;
      m_result = result;
      m_effective = Decision.trace source;
      m_decisions = Decision.count source;
    }
  in
  (* the corpus holds effective traces; a queue so parents rotate through
     the mutation window round-robin but are never forgotten by the
     coverage map *)
  let corpus = Queue.create () in
  let witness = ref None in
  let budget_left () = options.max_runs - c.explored in
  (* seed the corpus with the scripted default run *)
  (let result0, source0 = Problem.run problem ~plan:[] ~silence:[] in
   c.explored <- c.explored + 1;
   c.states <- c.states + Decision.count source0;
   match Problem.violation problem result0 with
   | Some desc ->
       witness :=
         Some
           {
             node = root;
             trace = Decision.trace source0;
             result = result0;
             violation = desc;
           }
   | None ->
       ignore (Seen.check_add seen result0.Sim.run);
       let t0 = Decision.trace source0 in
       ignore (Seen.mark_prefixes seen t0);
       Queue.add (Array.of_list t0) corpus);
  while !witness = None && budget_left () > 0 && not (Queue.is_empty corpus) do
    incr rounds;
    (* one wave: every corpus parent contributes [mutants] deterministic
       mutants, capped by the wave size and the remaining budget *)
    let wave_cap = max 1 (min chunk (budget_left ())) in
    let batch = ref [] in
    let count = ref 0 in
    let parents = Queue.length corpus in
    (let pi = ref 0 in
     while !count < wave_cap && !pi < parents do
       let parent = Queue.pop corpus in
       Queue.add parent corpus;
       let per = min options.mutants (wave_cap - !count) in
       for m = 1 to per do
         let key = Fnv.mix (Fnv.mix (Fnv.mix seed0 !rounds) !pi) m in
         let prng = Prng.create (Int64.of_int key) in
         batch := mutate prng parent :: !batch;
         incr count
       done;
       incr pi
     done);
    let batch = Array.of_list (List.rev !batch) in
    let evals, _ =
      Ensemble.map_until ?domains:options.domains
        ~stop_on:(fun m -> Option.is_some m.m_violation)
        eval_trace batch
    in
    let i = ref 0 in
    while !witness = None && !i < Array.length evals do
      let m = evals.(!i) in
      c.explored <- c.explored + 1;
      c.states <- c.states + m.m_decisions;
      (match m.m_violation with
      | Some desc ->
          witness :=
            Some
              {
                node = root;
                trace = m.m_effective;
                result = m.m_result;
                violation = desc;
              }
      | None ->
          if Seen.check_add seen m.m_result.Sim.run then
            c.seen_hits <- c.seen_hits + 1
          else if Seen.mark_prefixes seen m.m_effective > 0 then
            Queue.add (Array.of_list m.m_effective) corpus);
      incr i
    done
  done;
  match !witness with
  | Some w -> (Violation (w, stats ()), stats ())
  | None -> (Budget (stats ()), stats ())

let search ?(options = default_options) problem =
  match options.mode with
  | Fuzz -> fuzz ~options problem
  | Bfs | Dpor -> bfs_search ~options problem
