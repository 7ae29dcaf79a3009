type t = { owner : Pid.t; tag : int }

let make ~owner ~tag =
  assert (tag >= 0);
  { owner; tag }

let owner t = t.owner
let tag t = t.tag
let equal a b = Pid.equal a.owner b.owner && Int.equal a.tag b.tag

let compare a b =
  match Pid.compare a.owner b.owner with
  | 0 -> Int.compare a.tag b.tag
  | c -> c

let hash t = Fnv.mix (Fnv.mix Fnv.seed (Pid.hash t.owner)) t.tag
let pp ppf t = Format.fprintf ppf "a%d.%d" t.owner t.tag
let to_string t = "a" ^ string_of_int t.owner ^ "." ^ string_of_int t.tag

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
