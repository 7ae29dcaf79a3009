type counts = {
  sends : int;
  recvs : int;
  dos : int;
  inits : int;
  crashes : int;
  suspects : int;
}

type t = {
  run : Run.t;
  first_dos : (int * int * int, int) Hashtbl.t; (* p,owner,tag *)
  first_inits : (int * int, int) Hashtbl.t; (* owner,tag *)
  initiated : (Action_id.t * int) list;
  all_actions : Action_id.t list;
  performers : (int * int, Pid.t list) Hashtbl.t; (* owner,tag -> pids asc *)
  decisions : int option array;
  suspicions : (int * Pid.Set.t) array array;
  all_suspicions : (int * Pid.Set.t) array array;
  gossip : (int * Pid.Set.t) array array;
  gen_reports : (int * Pid.Set.t * int) array array;
  counts : counts;
}

let action_key a = (Action_id.owner a, Action_id.tag a)

let build r =
  let n = Run.n r in
  let first_dos = Hashtbl.create 16 in
  let first_inits = Hashtbl.create 16 in
  let performers = Hashtbl.create 16 in
  let action_set = ref Action_id.Set.empty in
  let decisions = Array.make n None in
  let sends = ref 0
  and recvs = ref 0
  and dos = ref 0
  and inits = ref 0
  and crashes = ref 0
  and suspects = ref 0 in
  let first tbl key tick =
    if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key tick
  in
  let initiated_rev = ref [] in
  let susp_rev = Array.make n [] in
  let all_susp_rev = Array.make n [] in
  let gossip_rev = Array.make n [] in
  let gossip_cur = Array.make n Pid.Set.empty in
  let gen_rev = Array.make n [] in
  for p = 0 to n - 1 do
    let gossip_grow tick s =
      let cur' = Pid.Set.union gossip_cur.(p) s in
      if not (Pid.Set.equal cur' gossip_cur.(p)) then begin
        gossip_rev.(p) <- (tick, cur') :: gossip_rev.(p);
        gossip_cur.(p) <- cur'
      end
    in
    History.iter
      (fun e ~tick ->
        match e with
        | Event.Send _ -> incr sends
        | Event.Recv { msg; _ } -> (
            incr recvs;
            match msg with
            | Message.Gossip s -> gossip_grow tick s
            | _ -> ())
        | Event.Do a ->
            incr dos;
            let key = action_key a in
            first first_dos (p, fst key, snd key) tick;
            action_set := Action_id.Set.add a !action_set;
            (match Hashtbl.find_opt performers key with
            | Some (q :: _) when Pid.equal q p -> () (* repeated Do by p *)
            | Some ps -> Hashtbl.replace performers key (p :: ps)
            | None -> Hashtbl.add performers key [ p ]);
            if decisions.(p) = None then decisions.(p) <- Some (Action_id.tag a)
        | Event.Init a ->
            incr inits;
            (* owner-only, matching the Inited primitive: a (malformed)
               init at a non-owner still shows up in [initiated] *)
            if Pid.equal p (Action_id.owner a) then
              first first_inits (action_key a) tick;
            action_set := Action_id.Set.add a !action_set;
            initiated_rev := (a, tick) :: !initiated_rev
        | Event.Crash -> incr crashes
        | Event.Suspect rep ->
            incr suspects;
            let s = Report.suspects_in ~n rep in
            all_susp_rev.(p) <- (tick, s) :: all_susp_rev.(p);
            (match rep with
            | Report.Gen (gs, k) -> gen_rev.(p) <- (tick, gs, k) :: gen_rev.(p)
            | Report.Std std ->
                susp_rev.(p) <- (tick, s) :: susp_rev.(p);
                gossip_grow tick std
            | Report.Correct_set _ -> susp_rev.(p) <- (tick, s) :: susp_rev.(p)))
      (Run.history r p)
  done;
  Hashtbl.filter_map_inplace (fun _ ps -> Some (List.rev ps)) performers;
  {
    run = r;
    first_dos;
    first_inits;
    initiated = List.rev !initiated_rev;
    all_actions = Action_id.Set.elements !action_set;
    performers;
    decisions;
    suspicions = Array.map (fun l -> Array.of_list (List.rev l)) susp_rev;
    all_suspicions =
      Array.map (fun l -> Array.of_list (List.rev l)) all_susp_rev;
    gossip = Array.map (fun l -> Array.of_list (List.rev l)) gossip_rev;
    gen_reports = Array.map (fun l -> Array.of_list (List.rev l)) gen_rev;
    counts =
      {
        sends = !sends;
        recvs = !recvs;
        dos = !dos;
        inits = !inits;
        crashes = !crashes;
        suspects = !suspects;
      };
  }

(* One index per run: memoized on the run's physical identity, weakly (the
   cache entry dies with the run), behind a mutex so that the parallel
   ensemble engine can index runs from several domains at once. The index
   is built outside the lock — worst case two domains race to build the
   same index and one copy is dropped. *)
module Cache = Ephemeron.K1.Make (struct
  type nonrec t = Run.t

  let equal = ( == )

  (* Entries are keyed by physical identity, so a hash collision between
     distinct runs only lengthens one bucket's chain — it can never alias
     two runs. The hash reads two O(1) fields (length and last tick) of at
     most 16 histories, so a lookup never walks the events. *)
  let hash r =
    let acc = ref (Fnv.mix Fnv.seed (Run.horizon r)) in
    for p = 0 to min (Run.n r) 16 - 1 do
      let h = Run.history r p in
      acc := Fnv.mix !acc (History.length h);
      acc := Fnv.mix !acc (Option.value ~default:(-1) (History.last_tick h))
    done;
    !acc
end)

let cache : t Cache.t = Cache.create 64
let cache_lock = Mutex.create ()

let of_run r =
  match Mutex.protect cache_lock (fun () -> Cache.find_opt cache r) with
  | Some idx -> idx
  | None ->
      let idx = build r in
      Mutex.protect cache_lock (fun () ->
          match Cache.find_opt cache r with
          | Some existing -> existing
          | None ->
              Cache.add cache r idx;
              idx)

(* A scan of the sealed history, not a table: see [first_send] in the
   interface. *)
let first_event t p matches =
  if p < 0 || p >= Run.n t.run then None
  else
    let h = Run.history t.run p in
    let len = History.length h in
    let rec go i =
      if i >= len then None
      else if matches (History.event h i) then Some (History.tick h i)
      else go (i + 1)
    in
    go 0

let first_send t ~src ~dst msg =
  first_event t src (function
    | Event.Send { dst = d; msg = m } -> Pid.equal d dst && Message.equal m msg
    | _ -> false)

let first_recv t ~dst ~src msg =
  first_event t dst (function
    | Event.Recv { src = s; msg = m } -> Pid.equal s src && Message.equal m msg
    | _ -> false)

let crash_tick t p = Run.crash_tick t.run p
let first_do t p a = Hashtbl.find_opt t.first_dos (p, Action_id.owner a, Action_id.tag a)
let first_init t a = Hashtbl.find_opt t.first_inits (action_key a)
let initiated t = t.initiated
let all_actions t = t.all_actions

let performers t a =
  Option.value ~default:[] (Hashtbl.find_opt t.performers (action_key a))

let decision t p = t.decisions.(p)
let suspicions t p = t.suspicions.(p)
let all_suspicions t p = t.all_suspicions.(p)
let gossip_suspicions t p = t.gossip.(p)
let gen_reports t p = t.gen_reports.(p)

let suspects_at changes m =
  (* greatest change point with tick <= m *)
  let lo = ref 0 and hi = ref (Array.length changes) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst changes.(mid) <= m then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then Pid.Set.empty else snd changes.(!lo - 1)

let final_suspects t p = suspects_at t.suspicions.(p) (Run.horizon t.run)

let counts t = t.counts
