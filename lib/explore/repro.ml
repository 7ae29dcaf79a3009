type t = {
  problem : Problem.t;
  moves : string list;
  violation : string;
  digest : string;
  trace : Decision.t list;
}

let goal_to_string = function
  | Sim.All_alive_performed -> "performed"
  | Sim.All_alive_decided -> "decided"
  | Sim.Run_to_max -> "max"

let goal_of_string = function
  | "performed" -> Ok Sim.All_alive_performed
  | "decided" -> Ok Sim.All_alive_decided
  | "max" -> Ok Sim.Run_to_max
  | s -> Error (Printf.sprintf "unknown goal %S" s)

let of_shrunk (problem : Problem.t) (s : Shrink.shrunk) =
  let problem =
    { problem with Problem.config = { problem.Problem.config with Sim.max_ticks = s.Shrink.max_ticks } }
  in
  let moves =
    List.map
      (Format.asprintf "%a" Engine.pp_move)
      (Engine.moves s.Shrink.node)
  in
  {
    problem;
    moves;
    violation = s.Shrink.violation;
    digest = Run.digest s.Shrink.result.Sim.run;
    trace = s.Shrink.trace;
  }

(* Version 2 is the structural [Run.digest]; version 1, the unversioned
   files written before it, digested the runs' memory image. *)
let digest_version = 2

let to_string t =
  let cfg = t.problem.Problem.config in
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "# udc explore counterexample";
  line "# replay with: udc explore --replay <this file>";
  line "problem: %s" t.problem.Problem.name;
  line "protocol: %s" t.problem.Problem.protocol_label;
  line "property: %s" (Property.to_string t.problem.Problem.property);
  line "n: %d" cfg.Sim.n;
  line "seed: %Ld" cfg.Sim.seed;
  line "max-ticks: %d" cfg.Sim.max_ticks;
  line "max-consecutive-drops: %d" cfg.Sim.max_consecutive_drops;
  line "max-delay: %d" cfg.Sim.max_delay;
  line "drain-margin: %d" cfg.Sim.drain_margin;
  line "goal: %s" (goal_to_string cfg.Sim.goal);
  line "crash-budget: %d" cfg.Sim.crash_budget;
  (* ADD bounds are config-driven (they consume no decisions), so a
     replay needs them; the field is omitted for non-ADD configs and
     ignored by older readers *)
  (match cfg.Sim.add with
  | Some { Channel.window; bound } -> line "add: %d/%d" window bound
  | None -> ());
  line "adversarial-oracle: %b" t.problem.Problem.adversarial_oracle;
  List.iter
    (fun { Init_plan.action; at } ->
      line "init: %d.%d@%d" (Action_id.owner action) (Action_id.tag action) at)
    (Init_plan.entries cfg.Sim.init_plan);
  List.iter (fun m -> line "# move: %s" m) t.moves;
  line "violation: %s" t.violation;
  line "digest-version: %d" digest_version;
  line "digest: %s" t.digest;
  line "trace: %s" (Decision.trace_to_string t.trace);
  Buffer.contents b

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let ( let* ) = Result.bind

let field fields key =
  match List.assoc_opt key fields with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "repro file: missing field %S" key)

let int_field fields key =
  let* v = field fields key in
  match int_of_string_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "repro file: field %S is not an integer" key)

let parse_init s =
  match String.split_on_char '@' s with
  | [ act; at ] -> (
      match
        (String.split_on_char '.' act, int_of_string_opt (String.trim at))
      with
      | [ owner; tag ], Some at -> (
          match (int_of_string_opt owner, int_of_string_opt tag) with
          | Some owner, Some tag when tag >= 0 ->
              Ok { Init_plan.action = Action_id.make ~owner ~tag; at }
          | _ -> Error (Printf.sprintf "repro file: bad init entry %S" s))
      | _ -> Error (Printf.sprintf "repro file: bad init entry %S" s))
  | _ -> Error (Printf.sprintf "repro file: bad init entry %S" s)

let of_string text =
  let lines = String.split_on_char '\n' text in
  let fields, inits =
    List.fold_left
      (fun ((fields, inits) as acc) line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then acc
        else
          match String.index_opt line ':' with
          | None -> acc
          | Some i ->
              let key = String.trim (String.sub line 0 i) in
              let v =
                String.trim
                  (String.sub line (i + 1) (String.length line - i - 1))
              in
              if key = "init" then (fields, v :: inits)
              else ((key, v) :: fields, inits))
      ([], []) lines
  in
  let inits = List.rev inits in
  let* () =
    match List.assoc_opt "digest-version" fields with
    | Some v when v = string_of_int digest_version -> Ok ()
    | found ->
        Error
          (Printf.sprintf
             "repro file: %s: the file predates the structural run digest; \
              regenerate it by re-running the search"
             (match found with
             | None -> "no digest-version field"
             | Some v ->
                 Printf.sprintf "digest-version %S, not %d" v digest_version))
  in
  let* name = field fields "problem" in
  let* protocol_label = field fields "protocol" in
  let* prop_s = field fields "property" in
  let* property = Property.of_string prop_s in
  let* n = int_field fields "n" in
  let* () =
    Result.map_error (( ^ ) "repro file: ") (Property.check property ~n)
  in
  let* seed_s = field fields "seed" in
  let* seed =
    match Int64.of_string_opt seed_s with
    | Some s -> Ok s
    | None -> Error "repro file: bad seed"
  in
  let* max_ticks = int_field fields "max-ticks" in
  let* max_consecutive_drops = int_field fields "max-consecutive-drops" in
  let* max_delay = int_field fields "max-delay" in
  let* drain_margin = int_field fields "drain-margin" in
  let* goal_s = field fields "goal" in
  let* goal = goal_of_string goal_s in
  let* crash_budget = int_field fields "crash-budget" in
  let* add =
    match List.assoc_opt "add" fields with
    | None -> Ok None
    | Some v -> (
        match String.split_on_char '/' v with
        | [ w; b ] -> (
            match (int_of_string_opt w, int_of_string_opt b) with
            | Some window, Some bound when window >= 1 && bound >= 1 ->
                Ok (Some { Channel.window; bound })
            | _ -> Error (Printf.sprintf "repro file: bad add field %S" v))
        | _ -> Error (Printf.sprintf "repro file: bad add field %S" v))
  in
  let* adv_s = field fields "adversarial-oracle" in
  let* adversarial_oracle =
    match bool_of_string_opt adv_s with
    | Some b -> Ok b
    | None -> Error "repro file: bad adversarial-oracle"
  in
  let* entries =
    List.fold_left
      (fun acc s ->
        let* acc = acc in
        let* e = parse_init s in
        Ok (e :: acc))
      (Ok []) inits
  in
  let init_plan = Init_plan.of_entries (List.rev entries) in
  let* violation = field fields "violation" in
  let* digest = field fields "digest" in
  let* () =
    let hex = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false in
    if String.length digest = 32 && String.for_all hex digest then Ok ()
    else
      Error
        (Printf.sprintf
           "repro file: digest %S is not 32 lowercase hex characters" digest)
  in
  let* trace_s = field fields "trace" in
  let* trace = Decision.trace_of_string trace_s in
  let config =
    {
      (Sim.config ~n ~seed) with
      Sim.max_ticks;
      max_consecutive_drops;
      max_delay;
      drain_margin;
      goal;
      crash_budget;
      add;
      init_plan;
    }
  in
  let* () =
    match Sim.validate config with
    | () -> Ok ()
    | exception Invalid_argument e -> Error ("repro file: " ^ e)
  in
  let* protocol = Protocols.instantiate protocol_label ~n in
  let problem =
    Problem.make ~name ~adversarial_oracle ~config ~protocol ~protocol_label
      property
  in
  let moves =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        let prefix = "# move: " in
        if String.length line > String.length prefix
           && String.sub line 0 (String.length prefix) = prefix
        then
          Some
            (String.sub line (String.length prefix)
               (String.length line - String.length prefix))
        else None)
      lines
  in
  Ok { problem; moves; violation; digest; trace }

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error e -> Error e

let replay t =
  match Problem.replay t.problem ~trace:t.trace with
  | exception Decision.Divergence msg ->
      Error (Printf.sprintf "replay diverged: %s" msg)
  | result ->
      let d = Run.digest result.Sim.run in
      if d <> t.digest then
        Error
          (Printf.sprintf "digest mismatch: recorded %s, replayed %s" t.digest
             d)
      else (
        match Problem.violation t.problem result with
        | Some desc -> Ok (result, desc)
        | None -> Error "replayed run no longer violates the property")
