type entry = { action : Action_id.t; at : int }
type t = entry list

let empty = []

let of_entries l =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if Hashtbl.mem seen e.action then
        invalid_arg "Init_plan: action initiated twice";
      Hashtbl.add seen e.action ())
    l;
  List.sort (fun a b -> Int.compare a.at b.at) l

let entries t = t
let one ~owner ~at = [ { action = Action_id.make ~owner ~tag:0; at } ]

let staggered ~n ~actions_per_process ~spacing =
  let entries =
    List.concat_map
      (fun tag ->
        List.map
          (fun owner ->
            {
              action = Action_id.make ~owner ~tag;
              at = 1 + (((tag * n) + owner) * spacing);
            })
          (Pid.all n))
      (List.init actions_per_process (fun i -> i))
  in
  of_entries entries

let pp ppf t =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf e -> Format.fprintf ppf "%a@%d" Action_id.pp e.action e.at))
    t
