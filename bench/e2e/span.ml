(* In-memory spans recorded around calls into the library's public API.

   Recording is off by default, so the set-up and timed e2e reps pay one
   branch per wrapped call; the traced pass switches it on. A span keeps
   its parent, so a layer's self time is its duration minus the part of
   that interval its child spans cover. Minor words are read per domain:
   the traced pass runs at domains = 1, so every allocation of a wrapped
   call lands on the recording domain. *)

type t = {
  id : int;
  parent : int;  (** 0 for the root span *)
  name : string;
  start : float;
  stop : float;
  minor_words : float;
}

let enabled = ref false
let recorded : t list ref = ref []
let next_id = ref 0
let current = ref 0

let with_ name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id and parent = !current in
    current := id;
    let m0 = Gc.minor_words () in
    let start = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        let m1 = Gc.minor_words () in
        current := parent;
        recorded :=
          { id; parent; name; start; stop; minor_words = m1 -. m0 }
          :: !recorded)
  end

(* [collect name f] runs [f] under a root span with recording on and
   returns its result with the spans it produced, in start order. *)
let collect name f =
  enabled := true;
  recorded := [];
  current := 0;
  let v =
    Fun.protect (fun () -> with_ name f) ~finally:(fun () -> enabled := false)
  in
  (v, List.sort (fun a b -> compare a.id b.id) !recorded)

let duration s = s.stop -. s.start

type layer = {
  self_s : float;
  total_s : float;
  minor : float;
  durations : float list;
}

let no_layer = { self_s = 0.; total_s = 0.; minor = 0.; durations = [] }

(* Per-name aggregates of one rep's spans. *)
let summarise spans =
  let children = Hashtbl.create 64 in
  let covered id = Option.value ~default:0. (Hashtbl.find_opt children id) in
  List.iter
    (fun s ->
      Hashtbl.replace children s.parent (covered s.parent +. duration s))
    spans;
  let layers = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let l =
        Option.value ~default:no_layer (Hashtbl.find_opt layers s.name)
      in
      Hashtbl.replace layers s.name
        {
          self_s = l.self_s +. duration s -. covered s.id;
          total_s = l.total_s +. duration s;
          minor = l.minor +. s.minor_words;
          durations = duration s :: l.durations;
        })
    spans;
  fun name -> Option.value ~default:no_layer (Hashtbl.find_opt layers name)

let to_jsonl oc ~workload ~rep spans =
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"workload\":%S,\"rep\":%d,\"span\":%d,\"parent\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f,\"minor_words\":%.0f}\n"
        workload rep s.id s.parent s.name s.start s.stop s.minor_words)
    spans
