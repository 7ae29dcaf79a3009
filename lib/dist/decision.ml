type t =
  | Order of int array
  | Deliver of bool
  | Pick of int
  | Drop of bool
  | Crash of bool
  | Suspect of int

let equal a b =
  match (a, b) with
  | Order x, Order y -> x = y
  | Deliver x, Deliver y | Drop x, Drop y | Crash x, Crash y -> Bool.equal x y
  | Pick x, Pick y | Suspect x, Suspect y -> Int.equal x y
  | _ -> false

let pp ppf = function
  | Order a ->
      Format.fprintf ppf "order(%s)"
        (String.concat "." (Array.to_list (Array.map string_of_int a)))
  | Deliver b -> Format.fprintf ppf "deliver(%b)" b
  | Pick k -> Format.fprintf ppf "pick(%d)" k
  | Drop b -> Format.fprintf ppf "drop(%b)" b
  | Crash b -> Format.fprintf ppf "crash(%b)" b
  | Suspect k -> Format.fprintf ppf "suspect(%d)" k

(* Seeded FNV hash, consistent with [equal]; the explorer folds it over
   trace prefixes to fingerprint decision-prefix states. Constructor tags
   keep [Deliver true] and [Drop true] apart. *)
let hash d =
  match d with
  | Order a -> Array.fold_left Fnv.mix (Fnv.mix Fnv.seed 1) a
  | Deliver b -> Fnv.mix (Fnv.mix Fnv.seed 2) (Bool.to_int b)
  | Pick k -> Fnv.mix (Fnv.mix Fnv.seed 3) k
  | Drop b -> Fnv.mix (Fnv.mix Fnv.seed 4) (Bool.to_int b)
  | Crash b -> Fnv.mix (Fnv.mix Fnv.seed 5) (Bool.to_int b)
  | Suspect k -> Fnv.mix (Fnv.mix Fnv.seed 6) k

let bit b = if b then "1" else "0"

let decision_to_string = function
  | Order a ->
      "O" ^ String.concat "." (Array.to_list (Array.map string_of_int a))
  | Deliver b -> "D" ^ bit b
  | Pick k -> "P" ^ string_of_int k
  | Drop b -> "X" ^ bit b
  | Crash b -> "C" ^ bit b
  | Suspect k -> "S" ^ string_of_int k

let trace_to_string tr = String.concat ";" (List.map decision_to_string tr)

let decision_of_string s =
  let payload () = String.sub s 1 (String.length s - 1) in
  let bool_payload k =
    match payload () with
    | "1" -> Ok (k true)
    | "0" -> Ok (k false)
    | p -> Error (Printf.sprintf "expected 0/1 after %c, got %S" s.[0] p)
  in
  let int_payload k =
    match int_of_string_opt (payload ()) with
    | Some i when i >= 0 -> Ok (k i)
    | _ -> Error (Printf.sprintf "expected an index after %c in %S" s.[0] s)
  in
  if String.length s < 2 then Error (Printf.sprintf "truncated decision %S" s)
  else
    match s.[0] with
    | 'O' -> (
        let parts = String.split_on_char '.' (payload ()) in
        let ints = List.map int_of_string_opt parts in
        if List.exists Option.is_none ints then
          Error (Printf.sprintf "bad permutation in %S" s)
        else Ok (Order (Array.of_list (List.map Option.get ints))))
    | 'D' -> bool_payload (fun b -> Deliver b)
    | 'P' -> int_payload (fun k -> Pick k)
    | 'X' -> bool_payload (fun b -> Drop b)
    | 'C' -> bool_payload (fun b -> Crash b)
    | 'S' -> int_payload (fun k -> Suspect k)
    | c -> Error (Printf.sprintf "unknown decision kind %C" c)

let trace_of_string s =
  let items =
    List.filter (fun x -> x <> "") (String.split_on_char ';' (String.trim s))
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match decision_of_string x with
        | Ok d -> go (d :: acc) rest
        | Error e -> Error e)
  in
  go [] items

type query =
  | Q_order of { n : int }
  | Q_deliver of { dst : Pid.t; backlog : int }
  | Q_pick of { dst : Pid.t; keys : int array }
  | Q_drop of { src : Pid.t; dst : Pid.t }
  | Q_crash of { pid : Pid.t; events : int }
  | Q_suspect of { pid : Pid.t; arity : int }

type entry = { tick : int; query : query; taken : t }

exception Divergence of string

(* A scripted source reads its plan with a cursor: decisions are made in
   index order, so the plan is sorted by index once and [planned] pops
   entries up to the current index. The silenced links are few (the
   explorer's depth bounds them), so a list beats a table. *)
type scripted = {
  mutable plan : (int * t) list; (* ascending, unique indices *)
  mutable silenced : (Pid.t * Pid.t) list;
}

type mode =
  | Random of { prng : Prng.t; chan : Prng.t }
  | Scripted of scripted
  | Replay of { mutable rest : t list }
  | Guided of { mutable rest : t list; mutable diverged : bool }

type source = {
  mode : mode;
  record : bool;
  mutable made : int;
  mutable entries : entry list; (* newest first *)
}

let random ?(record = false) ~seed () =
  let prng = Prng.create seed in
  let chan = Prng.split prng in
  { mode = Random { prng; chan }; record; made = 0; entries = [] }

let scripted ?(record = true) ?(plan = []) ?(silence = []) () =
  (* a stable sort keeps a repeated index's entries in plan order, and
     the later one wins, as a table's replace would have it *)
  let rec later = function
    | (i, _) :: ((j, _) :: _ as rest) when i = j -> later rest
    | e :: rest -> e :: later rest
    | [] -> []
  in
  let plan =
    later (List.stable_sort (fun (i, _) (j, _) -> Int.compare i j) plan)
  in
  {
    mode = Scripted { plan; silenced = silence };
    record;
    made = 0;
    entries = [];
  }

let replay tr =
  { mode = Replay { rest = tr }; record = true; made = 0; entries = [] }

let guided tr =
  {
    mode = Guided { rest = tr; diverged = false };
    record = true;
    made = 0;
    entries = [];
  }

let count s = s.made
let trace s = List.rev_map (fun e -> e.taken) s.entries
let journal s = Array.of_list (List.rev s.entries)

(* Every query tests [s.record] before it builds the entry, so a
   non-recording source only counts. *)
let commit s ~tick query taken =
  s.entries <- { tick; query; taken } :: s.entries;
  s.made <- s.made + 1

(* The plan entry at the current index, if any. Entries below it were
   never asked for (a negative index, or one a silenced link answered)
   and are dropped. *)
let rec planned sc ~made =
  match sc.plan with
  | (i, d) :: rest when i <= made ->
      sc.plan <- rest;
      if i = made then Some d else planned sc ~made
  | _ -> None

let rec silenced ~src ~dst = function
  | (s, d) :: rest ->
      (Pid.equal s src && Pid.equal d dst) || silenced ~src ~dst rest
  | [] -> false

(* Pop the next recorded decision for a replaying source. [Replay] raises
   on a kind mismatch or an exhausted trace; [Guided] switches permanently
   to the defaults instead. [accept] returns [None] to reject. *)
let replayed s ~kind ~(accept : t -> 'a option) : 'a option option =
  (* outer None: not a replaying source; inner None: diverged *)
  match s.mode with
  | Replay r -> (
      match r.rest with
      | [] ->
          raise
            (Divergence
               (Printf.sprintf "trace exhausted at decision #%d (%s)" s.made
                  kind))
      | d :: rest -> (
          match accept d with
          | Some v ->
              r.rest <- rest;
              Some (Some v)
          | None ->
              raise
                (Divergence
                   (Format.asprintf
                      "decision #%d: trace has %a where the run asks for %s"
                      s.made pp d kind))))
  | Guided g ->
      if g.diverged then Some None
      else (
        match g.rest with
        | [] ->
            g.diverged <- true;
            Some None
        | d :: rest -> (
            match accept d with
            | Some v ->
                g.rest <- rest;
                Some (Some v)
            | None ->
                g.diverged <- true;
                Some None))
  | Random _ | Scripted _ -> None

let order s ~tick a =
  let n = Array.length a in
  let identity () = Array.iteri (fun i _ -> a.(i) <- i) a in
  (match s.mode with
  | Random { prng; _ } -> Prng.shuffle prng a
  | Scripted sc -> (
      identity ();
      match planned sc ~made:s.made with
      | Some (Order p) when Array.length p = n -> Array.blit p 0 a 0 n
      | _ -> ())
  | Replay _ | Guided _ -> (
      let accept = function
        | Order p when Array.length p = n -> Some p
        | _ -> None
      in
      match replayed s ~kind:"order" ~accept with
      | Some (Some p) -> Array.blit p 0 a 0 n
      | Some None | None -> identity ()));
  (* recording sources pay for the trace copy; the random fast path —
     the sharded engine's per-tick shuffle — must not *)
  if s.record then commit s ~tick (Q_order { n }) (Order (Array.copy a))
  else s.made <- s.made + 1

let deliver s ~tick ~dst ~backlog ~p =
  let taken =
    match s.mode with
    | Random { prng; _ } -> Prng.bool prng p
    | Scripted sc -> (
        match planned sc ~made:s.made with Some (Deliver b) -> b | _ -> true)
    | Replay _ | Guided _ -> (
        let accept = function Deliver b -> Some b | _ -> None in
        match replayed s ~kind:"deliver" ~accept with
        | Some (Some b) -> b
        | Some None | None -> true)
  in
  if s.record then commit s ~tick (Q_deliver { dst; backlog }) (Deliver taken)
  else s.made <- s.made + 1;
  taken

let pick s ~tick ~dst ~keys ~arity =
  let clamp k = if k >= 0 && k < arity then k else 0 in
  let taken =
    match s.mode with
    | Random { prng; _ } -> Prng.int prng arity
    | Scripted sc -> (
        match planned sc ~made:s.made with Some (Pick k) -> clamp k | _ -> 0)
    | Replay _ | Guided _ -> (
        let accept = function
          | Pick k when k >= 0 && k < arity -> Some k
          | _ -> None
        in
        match replayed s ~kind:"pick" ~accept with
        | Some (Some k) -> k
        | Some None | None -> 0)
  in
  if s.record then
    commit s ~tick (Q_pick { dst; keys = keys () }) (Pick taken)
  else s.made <- s.made + 1;
  taken

let drop s ~tick ~src ~dst ~rate =
  let taken =
    match s.mode with
    | Random { chan; _ } -> Prng.bool chan rate
    | Scripted sc -> (
        if silenced ~src ~dst sc.silenced then true
        else
          match planned sc ~made:s.made with
          | Some (Drop b) ->
              if b then sc.silenced <- (src, dst) :: sc.silenced;
              b
          | _ -> false)
    | Replay _ | Guided _ -> (
        let accept = function Drop b -> Some b | _ -> None in
        match replayed s ~kind:"drop" ~accept with
        | Some (Some b) -> b
        | Some None | None -> false)
  in
  if s.record then commit s ~tick (Q_drop { src; dst }) (Drop taken)
  else s.made <- s.made + 1;
  taken

let crash s ~tick ~pid ~events =
  let taken =
    match s.mode with
    | Random _ -> false
    | Scripted sc -> (
        match planned sc ~made:s.made with Some (Crash b) -> b | _ -> false)
    | Replay _ | Guided _ -> (
        let accept = function Crash b -> Some b | _ -> None in
        match replayed s ~kind:"crash" ~accept with
        | Some (Some b) -> b
        | Some None | None -> false)
  in
  if s.record then commit s ~tick (Q_crash { pid; events }) (Crash taken)
  else s.made <- s.made + 1;
  taken

let suspect s ~tick ~pid ~arity =
  let clamp k = if k >= 0 && k < arity then k else 0 in
  let taken =
    match s.mode with
    | Random _ -> 0
    | Scripted sc -> (
        match planned sc ~made:s.made with
        | Some (Suspect k) -> clamp k
        | _ -> 0)
    | Replay _ | Guided _ -> (
        let accept = function
          | Suspect k when k >= 0 && k < arity -> Some k
          | _ -> None
        in
        match replayed s ~kind:"suspect" ~accept with
        | Some (Some k) -> k
        | Some None | None -> 0)
  in
  if s.record then commit s ~tick (Q_suspect { pid; arity }) (Suspect taken)
  else s.made <- s.made + 1;
  taken
