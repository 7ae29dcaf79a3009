(* Verdict accounting: every check is one attempt, a false one (or an
   exception escaping a rep) one failure. *)

type t = { mutable attempted : int; mutable failed : int }

let create () = { attempted = 0; failed = 0 }

let fail t what =
  t.attempted <- t.attempted + 1;
  t.failed <- t.failed + 1;
  prerr_endline ("e2e: check failed: " ^ what)

let expect t what ok =
  if ok then t.attempted <- t.attempted + 1 else fail t what

let equal_int t what ~expected got =
  expect t (Printf.sprintf "%s: expected %d, got %d" what expected got)
    (expected = got)

let equal_string t what ~expected got =
  expect t (Printf.sprintf "%s: expected %S, got %S" what expected got)
    (String.equal expected got)
