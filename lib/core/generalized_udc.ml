let make ~t:bound =
  (module Ack_quorum.Make (struct
    let name = Printf.sprintf "generalized-udc(t=%d)" bound

    type det = (Pid.Set.t * int) list (* all generalized reports, ever *)

    let initial = []

    let on_suspect ~n det r =
      match r with
      | Report.Gen (s, k) -> (s, k) :: det
      | Report.Std _ | Report.Correct_set _ ->
          (* a (g-)standard report "S faulty" is the generalized (S, |S|) *)
          let s = Report.suspects_in ~n r in
          (s, Pid.Set.cardinal s) :: det

    (* Conditions (a)-(d) of the Proposition 4.1 protocol. *)
    let ready ~n ~me det ~acked =
      List.exists
        (fun (s, k) ->
          k <= Pid.Set.cardinal s
          && n - Pid.Set.cardinal s > min bound (n - 1) - k
          && Ack_quorum.covered ~n ~me ~acked s)
        det

    let stop_after_perform = false
  end) : Protocol.S)
