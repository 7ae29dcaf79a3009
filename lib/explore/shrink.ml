type shrunk = {
  node : Engine.node;
  max_ticks : int;
  trace : Decision.t list;
  result : Sim.result;
  violation : string;
  decisions : int;
}

(* The re-run's violation, with the run and the decision source that
   drove it *)
let violating problem (result, source) =
  Option.map
    (fun desc -> (desc, result, source))
    (Problem.violation problem result)

let violates problem (node : Engine.node) ~max_ticks =
  violating problem
    (Problem.run problem ~max_ticks ~plan:node.Engine.devs
       ~silence:node.Engine.silences)

(* Greedily drop moves one at a time until no single removal preserves the
   violation ("drop fewer messages, crash fewer processes"). *)
let remove_moves problem ~max_ticks node =
  let without_sil l (node : Engine.node) =
    { node with Engine.silences = List.filter (fun x -> x <> l) node.silences }
  in
  let without_dev d (node : Engine.node) =
    { node with Engine.devs = List.filter (fun x -> x <> d) node.devs }
  in
  let rec fix (node : Engine.node) =
    let candidates =
      List.map (fun l -> without_sil l node) node.Engine.silences
      @ List.map (fun d -> without_dev d node) node.Engine.devs
    in
    match
      List.find_opt (fun c -> violates problem c ~max_ticks <> None) candidates
    with
    | Some smaller -> fix smaller
    | None -> node
  in
  fix node

(* For each crash deviation, try to postpone it ("crash later"): re-run the
   schedule without that crash, scan the resulting journal for later crash
   queries on the same victim, and keep the latest one that still violates. *)
let crash_later problem ~max_ticks (node : Engine.node) =
  let _, source =
    Problem.run problem ~max_ticks ~plan:node.Engine.devs
      ~silence:node.Engine.silences
  in
  let journal = Decision.journal source in
  let pid_of i =
    if i >= Array.length journal then None
    else
      match journal.(i).Decision.query with
      | Decision.Q_crash { pid; _ } -> Some pid
      | _ -> None
  in
  let postpone (node : Engine.node) (i, d) pid =
    let without =
      { node with Engine.devs = List.filter (fun x -> x <> (i, d)) node.devs }
    in
    let _, src =
      Problem.run problem ~max_ticks ~plan:without.Engine.devs
        ~silence:without.Engine.silences
    in
    let laters = ref [] in
    Array.iteri
      (fun j e ->
        match e.Decision.query with
        | Decision.Q_crash { pid = p; _ } when p = pid && j > i ->
            laters := j :: !laters
        | _ -> ())
      (Decision.journal src);
    (* [laters] is descending: try the latest crash point first *)
    List.find_map
      (fun j ->
        let devs =
          List.sort
            (fun (a, _) (b, _) -> compare a b)
            ((j, d) :: without.Engine.devs)
        in
        let cand = { without with Engine.devs = devs } in
        match violates problem cand ~max_ticks with
        | Some _ -> Some cand
        | None -> None)
      !laters
  in
  List.fold_left
    (fun node (i, d) ->
      match d with
      | Decision.Crash true -> (
          match pid_of i with
          | None -> node
          | Some pid -> (
              match postpone node (i, d) pid with
              | Some better -> better
              | None -> node))
      | _ -> node)
    node node.Engine.devs

(* The earliest horizon that is still an honest witness: every decisive
   event of the violating run (init, do, crash) must have happened, so the
   truncation cannot manufacture a violation out of a benign schedule. *)
let decisive_floor run =
  let floor_tick = ref 1 in
  let bump = function
    | Some t -> if t + 1 > !floor_tick then floor_tick := t + 1
    | None -> ()
  in
  let pids = List.init (Run.n run) Fun.id in
  List.iter
    (fun (alpha, t) ->
      bump (Some t);
      List.iter (fun p -> bump (Run.do_tick run p alpha)) pids)
    (Run.initiated run);
  List.iter (fun p -> bump (Run.crash_tick run p)) pids;
  !floor_tick

(* Binary-search the smallest still-violating horizon in
   [decisive_floor, max_ticks] ("shorten the run") and package the
   violating run there. [check ~max_ticks] re-runs the witness at a
   horizon; the bisection keeps the run [check] last confirmed, so the
   packaged horizon is one that violates, [max_ticks] at worst. *)
let finish ~node check ~max_ticks =
  match check ~max_ticks with
  | None -> invalid_arg "Shrink: witness does not violate"
  | Some ((_, full, _) as hit) ->
      let rec bisect lo hi hit =
        if lo >= hi then (hi, hit)
        else
          let mid = (lo + hi) / 2 in
          match check ~max_ticks:mid with
          | Some h -> bisect lo mid h
          | None -> bisect (mid + 1) hi hit
      in
      let max_ticks, (violation, result, source) =
        bisect (decisive_floor full.Sim.run) max_ticks hit
      in
      let trace = Decision.trace source in
      {
        node;
        max_ticks;
        trace;
        result;
        violation;
        decisions = List.length trace;
      }

let minimize problem (w : Engine.witness) =
  let max_ticks = problem.Problem.config.Sim.max_ticks in
  let node = remove_moves problem ~max_ticks w.Engine.node in
  let node = crash_later problem ~max_ticks node in
  let node = remove_moves problem ~max_ticks node in
  finish ~node (violates problem node) ~max_ticks

(* Trace-level minimization for fuzz witnesses, which carry no move set
   (their node is {!Engine.root}). The trace is executed tolerantly
   ({!Problem.run_guided}), so every candidate is a legal schedule; each
   check re-records, so the final trace is the effective sequence and
   replays strictly. *)
let violates_trace problem trace ~max_ticks =
  violating problem (Problem.run_guided problem ~max_ticks ~trace)

(* Greedily revert mutated decisions to the scripted defaults while the
   violation persists — the trace analogue of [remove_moves]. One pass in
   index order suffices for a fixpoint check per position; reverting a
   position never re-perturbs an earlier one. *)
let revert_defaults problem ~max_ticks trace =
  let default = function
    | Decision.Deliver _ -> Some (Decision.Deliver true)
    | Decision.Drop _ -> Some (Decision.Drop false)
    | Decision.Crash _ -> Some (Decision.Crash false)
    | Decision.Suspect _ -> Some (Decision.Suspect 0)
    | Decision.Pick _ -> Some (Decision.Pick 0)
    | Decision.Order _ -> None (* identity order is journal-dependent *)
  in
  let arr = Array.of_list trace in
  Array.iteri
    (fun i d ->
      match default d with
      | Some d' when d' <> d ->
          let saved = arr.(i) in
          arr.(i) <- d';
          if violates_trace problem (Array.to_list arr) ~max_ticks = None then
            arr.(i) <- saved
      | _ -> ())
    arr;
  Array.to_list arr

let minimize_trace problem (w : Engine.witness) =
  let max_ticks = problem.Problem.config.Sim.max_ticks in
  let trace = revert_defaults problem ~max_ticks w.Engine.trace in
  finish ~node:Engine.root (violates_trace problem trace) ~max_ticks
