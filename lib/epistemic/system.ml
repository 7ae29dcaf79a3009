type t = {
  runs : Run.t array;
  indexes : Run_index.t array;
  n : int;
  class_ids : int array array array; (* [p].[run].[tick] *)
  class_members : (int * int) array array array;
      (* [p].[class] -> points, (run, tick) ascending *)
}

(* Events are interned through [Event.compare], which is canonical over
   set-valued payloads (structurally different but equal sets compare
   equal). Keying by the printed form [Format.asprintf "%a" Event.pp]
   worked only as long as the pretty-printer happened to be injective —
   a property nothing enforced; [compare] is injective by definition. *)
module Event_map = Map.Make (struct
  type t = Event.t

  let compare = Event.compare
end)

let of_runs run_list =
  let runs = Array.of_list run_list in
  if Array.length runs = 0 then invalid_arg "System.of_runs: empty system";
  let n = Run.n runs.(0) in
  Array.iter
    (fun r -> if Run.n r <> n then invalid_arg "System.of_runs: mixed arity")
    runs;
  let indexes = Array.map Run_index.of_run runs in
  let event_ids = ref Event_map.empty in
  let next_event_id = ref 0 in
  let intern_event e =
    match Event_map.find_opt e !event_ids with
    | Some id -> id
    | None ->
        let id = !next_event_id in
        incr next_event_id;
        event_ids := Event_map.add e id !event_ids;
        id
  in
  let class_ids = Array.init n (fun _ -> Array.make (Array.length runs) [||]) in
  (* class ids are dense per process, so member accumulation is an
     int-indexed growable array of cons lists — one array read and one
     write per point, where a hashtable paid a hash + probe per point *)
  let members : (int * int) list array array =
    Array.init n (fun _ -> Array.make 256 [])
  in
  let member_add p c pt =
    let a = members.(p) in
    let cap = Array.length a in
    if c >= cap then begin
      let a' = Array.make (max (2 * cap) (c + 1)) [] in
      Array.blit a 0 a' 0 cap;
      members.(p) <- a'
    end;
    members.(p).(c) <- pt :: members.(p).(c)
  in
  let counts = Array.make n 0 in
  (* Per-process trie over event sequences: extending class [c] with event
     [e] yields a unique class id, so ids are exact (no hashing of whole
     histories involved). *)
  let tries : (int * int, int) Hashtbl.t array =
    Array.init n (fun _ -> Hashtbl.create 256)
  in
  let fresh p =
    let id = counts.(p) in
    counts.(p) <- id + 1;
    id
  in
  for p = 0 to n - 1 do
    ignore (fresh p) (* class 0 = empty history *)
  done;
  Array.iteri
    (fun ri run ->
      let horizon = Run.horizon run in
      for p = 0 to n - 1 do
        let ids = Array.make (horizon + 1) 0 in
        let h = Run.history run p in
        let len = History.length h in
        let cls = ref 0 in
        let cursor = ref 0 in
        for tick = 0 to horizon do
          (if !cursor < len && History.tick h !cursor = tick then begin
             let eid = intern_event (History.event h !cursor) in
             let key = (!cls, eid) in
             let next =
               match Hashtbl.find_opt tries.(p) key with
               | Some c -> c
               | None ->
                   let c = fresh p in
                   Hashtbl.add tries.(p) key c;
                   c
             in
             cls := next;
             incr cursor
           end);
          ids.(tick) <- !cls;
          member_add p !cls (ri, tick)
        done;
        class_ids.(p).(ri) <- ids
      done)
    runs;
  let class_members =
    (* the per-class lists were consed run-major, ticks ascending, so
       reversing restores ascending point order *)
    Array.init n (fun p ->
        Array.init counts.(p) (fun c ->
            Array.of_list (List.rev members.(p).(c))))
  in
  { runs; indexes; n; class_ids; class_members }

let run_count t = Array.length t.runs
let run t i = t.runs.(i)
let index t i = t.indexes.(i)
let n t = t.n
let horizon t i = Run.horizon t.runs.(i)
let class_id t p ~run ~tick = t.class_ids.(p).(run).(tick)
let class_count t p = Array.length t.class_members.(p)
let class_points t p c = t.class_members.(p).(c)

let iter_points t f =
  Array.iteri
    (fun ri r ->
      for tick = 0 to Run.horizon r do
        f ~run:ri ~tick
      done)
    t.runs

let point_count t =
  Array.fold_left (fun acc r -> acc + Run.horizon r + 1) 0 t.runs

let runs_with_faulty t s =
  let out = ref [] in
  Array.iteri
    (fun ri r -> if Pid.Set.equal (Run.faulty r) s then out := ri :: !out)
    t.runs;
  List.rev !out
