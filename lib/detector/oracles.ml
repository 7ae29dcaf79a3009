let immune_candidate view =
  let correct =
    Pid.Set.complement view.Oracle.n view.Oracle.planned_faulty
  in
  Pid.Set.min_elt_opt correct

let perfect ?(lag = 0) () =
  let seen = Hashtbl.create 8 in
  (* pid -> tick the oracle first saw it crashed *)
  let poll _p (view : Oracle.view) =
    Pid.Set.iter
      (fun q ->
        if not (Hashtbl.mem seen q) then Hashtbl.add seen q view.now)
      view.crashed;
    let s =
      Pid.Set.filter
        (fun q ->
          match Hashtbl.find_opt seen q with
          | Some t0 -> view.now - t0 >= lag
          | None -> false)
        view.crashed
    in
    if Pid.Set.is_empty s then None else Some (Report.std s)
  in
  { Oracle.name = "perfect"; poll }

(* False suspicions are sticky: each process holds a wrong set that is
   resampled only occasionally. Churning a fresh random set on every poll
   would flood histories with suspect events (each report change costs the
   process a scheduling slot) without making the detector any "stronger". *)
let strong ~seed () =
  let false_rate = 0.15 in
  let prng = Prng.create seed in
  let sticky = Hashtbl.create 8 in
  (* pid -> current false-suspicion set *)
  let resample p (view : Oracle.view) =
    let immune = immune_candidate view in
    let candidates =
      List.filter
        (fun q ->
          (not (Pid.Set.mem q view.crashed))
          && Some q <> immune
          && not (Pid.equal q p))
        (Pid.all view.n)
    in
    let s =
      Pid.Set.of_list
        (List.filter (fun _ -> Prng.bool prng false_rate) candidates)
    in
    Hashtbl.replace sticky p s;
    s
  in
  let poll p (view : Oracle.view) =
    let falses =
      match Hashtbl.find_opt sticky p with
      | Some s when not (Prng.bool prng 0.02) -> s
      | _ -> resample p view
    in
    let s = Pid.Set.union view.crashed falses in
    if Pid.Set.is_empty s then None else Some (Report.std s)
  in
  { Oracle.name = "strong"; poll }

let witness view q =
  (* first planned-correct process scanning upwards from q+1 *)
  let n = view.Oracle.n in
  let rec find i =
    if i > n then None
    else
      let c = (q + i) mod n in
      if Pid.Set.mem c view.planned_faulty then find (i + 1) else Some c
  in
  find 1

let weak () =
  let poll p (view : Oracle.view) =
    let s =
      Pid.Set.filter (fun q -> witness view q = Some p) view.crashed
    in
    if Pid.Set.is_empty s then None else Some (Report.std s)
  in
  { Oracle.name = "weak"; poll }

(* reports in odd windows of 6 ticks, retracts in even ones *)
let in_report_window now = now / 6 mod 2 = 1

let impermanent_strong () =
  let poll _p (view : Oracle.view) =
    if Pid.Set.is_empty view.crashed then None
    else if in_report_window view.now then
      Some (Report.std view.crashed)
    else Some (Report.std Pid.Set.empty)
  in
  { Oracle.name = "impermanent-strong"; poll }

let impermanent_weak () =
  let poll p (view : Oracle.view) =
    let s =
      Pid.Set.filter (fun q -> witness view q = Some p) view.crashed
    in
    if Pid.Set.is_empty s then None
    else if in_report_window view.now then Some (Report.std s)
    else Some (Report.std Pid.Set.empty)
  in
  { Oracle.name = "impermanent-weak"; poll }

let eventually_perfect ~stabilize_at ?(chaos_rate = 0.2) ~seed () =
  let prng = Prng.create seed in
  let sticky = Hashtbl.create 8 in
  let poll p (view : Oracle.view) =
    if view.now >= stabilize_at then
      if Pid.Set.is_empty view.crashed then None
      else Some (Report.std view.crashed)
    else
      (* chaos phase: a sticky arbitrary suspicion set, resampled rarely *)
      let s =
        match Hashtbl.find_opt sticky p with
        | Some s when not (Prng.bool prng 0.05) -> s
        | _ ->
            let s =
              if Prng.bool prng chaos_rate then
                Pid.Set.of_list
                  (List.filter
                     (fun q -> (not (Pid.equal q p)) && Prng.bool prng 0.3)
                     (Pid.all view.n))
              else Pid.Set.empty
            in
            Hashtbl.replace sticky p s;
            s
      in
      if Pid.Set.is_empty s then None else Some (Report.std s)
  in
  { Oracle.name = "eventually-perfect"; poll }

let eventually_weak ~stabilize_at ~seed () =
  let chaos_rate = 0.2 in
  let prng = Prng.create seed in
  let sticky = Hashtbl.create 8 in
  let poll p (view : Oracle.view) =
    if view.now >= stabilize_at then
      let s =
        Pid.Set.filter (fun q -> witness view q = Some p) view.crashed
      in
      (* an explicit empty report retracts any chaos-phase suspicions *)
      Some (Report.std s)
    else
      let immune = immune_candidate view in
      let s =
        match Hashtbl.find_opt sticky p with
        | Some s when not (Prng.bool prng 0.05) -> s
        | _ ->
            let s =
              if Prng.bool prng chaos_rate then
                Pid.Set.of_list
                  (List.filter
                     (fun q ->
                       (not (Pid.equal q p))
                       && Some q <> immune
                       && Prng.bool prng 0.3)
                     (Pid.all view.n))
              else Pid.Set.empty
            in
            Hashtbl.replace sticky p s;
            s
      in
      if Pid.Set.is_empty s then None else Some (Report.std s)
  in
  { Oracle.name = "eventually-weak"; poll }

let gen_exact () =
  let poll _p (view : Oracle.view) =
    let s = view.planned_faulty in
    let k = Pid.Set.cardinal (Pid.Set.inter view.crashed s) in
    Some (Report.gen s k)
  in
  { Oracle.name = "gen-exact"; poll }

let gen_component ~components () =
  let poll _p (view : Oracle.view) =
    let s =
      List.fold_left
        (fun acc comp ->
          if Pid.Set.is_empty (Pid.Set.inter comp view.planned_faulty) then acc
          else Pid.Set.union acc comp)
        Pid.Set.empty components
    in
    let k = Pid.Set.cardinal (Pid.Set.inter view.crashed s) in
    Some (Report.gen s k)
  in
  { Oracle.name = "gen-component"; poll }

(* Lexicographically next size-t subset of {0..n-1}, as a sorted list. *)
let rec subsets n t =
  if t = 0 then [ [] ]
  else if n < t then []
  else
    List.map (fun s -> (n - 1) :: s) (subsets (n - 1) (t - 1)) @ subsets (n - 1) t

let trivial_cycling ~t () =
  let state = Hashtbl.create 8 in
  (* pid -> (poll count, subset index) *)
  let all_subsets = ref None in
  let poll p (view : Oracle.view) =
    let subs =
      match !all_subsets with
      | Some s -> s
      | None ->
          let s = Array.of_list (subsets view.n t) in
          all_subsets := Some s;
          s
    in
    let polls, idx =
      Option.value ~default:(0, 0) (Hashtbl.find_opt state p)
    in
    if polls mod 4 <> 0 then (
      Hashtbl.replace state p (polls + 1, idx);
      None)
    else (
      Hashtbl.replace state p (polls + 1, (idx + 1) mod Array.length subs);
      Some (Report.gen (Pid.Set.of_list subs.(idx)) 0))
  in
  { Oracle.name = Printf.sprintf "trivial-cycling(t=%d)" t; poll }

let lying ~victims ~from =
  let poll _p (view : Oracle.view) =
    if view.now >= from then Some (Report.std (Pid.Set.union view.crashed victims))
    else if Pid.Set.is_empty view.crashed then None
    else Some (Report.std view.crashed)
  in
  { Oracle.name = "lying"; poll }

let accumulate (base : Oracle.t) =
  let acc = Hashtbl.create 8 in
  (* pid -> accumulated standard suspicions *)
  let poll p (view : Oracle.view) =
    match base.Oracle.poll p view with
    | None -> None
    | Some (Report.Gen _ as r) -> Some r
    | Some ((Report.Std _ | Report.Correct_set _) as r) ->
        let s = Report.suspects_in ~n:view.n r in
        let prev = Option.value ~default:Pid.Set.empty (Hashtbl.find_opt acc p) in
        let u = Pid.Set.union prev s in
        Hashtbl.replace acc p u;
        Some (Report.std u)
  in
  { Oracle.name = base.Oracle.name ^ "+accumulate"; poll }

let g_standard (base : Oracle.t) =
  let poll p (view : Oracle.view) =
    match base.Oracle.poll p view with
    | Some (Report.Std s) ->
        (* render the same information in the complement form: "the
           processes in Proc - S are correct" *)
        Some (Report.correct_set (Pid.Set.complement view.n s))
    | other -> other
  in
  { Oracle.name = base.Oracle.name ^ "+g-standard"; poll }
