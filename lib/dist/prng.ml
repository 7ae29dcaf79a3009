type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = seed }

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let seed = next_int64 t in
  (* A second mix decorrelates the child stream from the parent's. *)
  { state = mix64 seed }

(* Shard 0 keeps the root seed untouched so a one-shard simulation draws
   the exact stream the unsharded simulator would; other shards get a
   stream keyed by (seed, shard) through the same mixing discipline as
   [split]. *)
let shard_seed seed shard =
  if shard = 0 then seed
  else
    mix64
      (Int64.add
         (Int64.logxor seed (mix64 (Int64.of_int shard)))
         (Int64.mul golden_gamma (Int64.of_int shard)))

let int t bound =
  assert (bound > 0);
  let x = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  x mod bound

let float t =
  let x = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  x /. 9007199254740992.0 (* 2^53 *)

let bool t p = float t < p

let shuffle t a =
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
