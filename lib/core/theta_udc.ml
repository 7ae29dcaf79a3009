module P = Ack_quorum.Make (struct
  let name = "theta-udc"

  type det = Pid.Set.t (* the *current* report, not its history *)

  let initial = Pid.Set.empty

  let on_suspect ~n det r =
    match r with
    | Report.Std _ | Report.Correct_set _ -> Report.suspects_in ~n r
    | Report.Gen _ -> det

  (* The quorum rule: everyone currently unsuspected has acknowledged. *)
  let ready ~n ~me det ~acked = Ack_quorum.covered ~n ~me ~acked det
  let stop_after_perform = false
end)
