(* Channels are keyed structurally: keying by the printed form
   ([Format.asprintf "%a" Message.pp]) would cross-match any two distinct
   messages whose renderings collide — matching must not depend on
   pretty-printer injectivity. *)
module Channel_map = Map.Make (struct
  type t = Pid.t * Pid.t * Message.t

  let compare (s, d, m) (s', d', m') =
    match Pid.compare s s' with
    | 0 -> ( match Pid.compare d d' with 0 -> Message.compare m m' | c -> c)
    | c -> c
end)

(* Pair each receive with the earliest unmatched send of the same
   (src, dst, content): the same FIFO discipline as the R3 checker. *)
let match_messages run =
  let n = Run.n run in
  (* (src,dst,msg) -> (tick, id option ref) list; accumulated newest
     first (cons, not the quadratic [l @ [x]]), reversed once when
     sealed *)
  let sends = ref Channel_map.empty in
  List.iter
    (fun p ->
      History.iter
        (fun e ~tick ->
          match e with
          | Event.Send { dst; msg } ->
              sends :=
                Channel_map.update (p, dst, msg)
                  (fun prev ->
                    Some ((tick, ref None) :: Option.value ~default:[] prev))
                  !sends
          | _ -> ())
        (Run.history run p))
    (Pid.all n);
  let sends = Channel_map.map List.rev !sends in
  let counter = ref 0 in
  (* send side lookup: (p, tick) -> id; recv side: (q, tick) -> id *)
  let send_ids = Hashtbl.create 64 and recv_ids = Hashtbl.create 64 in
  List.iter
    (fun q ->
      History.iter
        (fun e ~tick ->
          match e with
          | Event.Recv { src; msg } -> (
              match Channel_map.find_opt (src, q, msg) sends with
              | None -> ()
              | Some entries -> (
                  match
                    List.find_opt
                      (fun (st, id) -> Option.is_none !id && st <= tick)
                      entries
                  with
                  | None -> ()
                  | Some (st, id) ->
                      incr counter;
                      id := Some !counter;
                      Hashtbl.replace send_ids (src, st) !counter;
                      Hashtbl.replace recv_ids (q, tick) !counter))
          | _ -> ())
        (Run.history run q))
    (Pid.all n);
  (send_ids, recv_ids)

let cell_width = 24

let pp ppf run =
  let n = Run.n run in
  let send_ids, recv_ids = match_messages run in
  let describe p e ~tick =
    match e with
    | Event.Send { dst; msg } -> (
        let txt = Format.asprintf "%a" Message.pp msg in
        match Hashtbl.find_opt send_ids (p, tick) with
        | Some id -> Printf.sprintf "%s #%d ->%s" txt id (Pid.to_string dst)
        | None -> Printf.sprintf "%s ->%s (lost)" txt (Pid.to_string dst))
    | Event.Recv { src; msg } -> (
        let txt = Format.asprintf "%a" Message.pp msg in
        match Hashtbl.find_opt recv_ids (p, tick) with
        | Some id -> Printf.sprintf "%s #%d <-%s" txt id (Pid.to_string src)
        | None -> Printf.sprintf "%s <-%s" txt (Pid.to_string src))
    | e -> Format.asprintf "%a" Event.pp e
  in
  let clip s =
    if String.length s <= cell_width then s
    else String.sub s 0 (cell_width - 1) ^ "~"
  in
  (* events per (tick, pid) *)
  let cells = Hashtbl.create 64 in
  let ticks = ref [] in
  List.iter
    (fun p ->
      History.iter
        (fun e ~tick ->
          Hashtbl.replace cells (tick, p) (describe p e ~tick);
          ticks := tick :: !ticks)
        (Run.history run p))
    (Pid.all n);
  let ticks = List.sort_uniq Int.compare !ticks in
  Format.fprintf ppf "%6s" "tick";
  List.iter
    (fun p -> Format.fprintf ppf " | %-*s" cell_width (Pid.to_string p))
    (Pid.all n);
  Format.pp_print_newline ppf ();
  Format.fprintf ppf "%s" (String.make (6 + (n * (cell_width + 3))) '-');
  Format.pp_print_newline ppf ();
  List.iter
    (fun tick ->
      Format.fprintf ppf "%6d" tick;
      List.iter
        (fun p ->
          let cell =
            Option.value ~default:"" (Hashtbl.find_opt cells (tick, p))
          in
          Format.fprintf ppf " | %-*s" cell_width (clip cell))
        (Pid.all n);
      Format.pp_print_newline ppf ())
    ticks

let to_string run = Format.asprintf "%a" pp run
