(* Every peer has acknowledged or has been suspected at some time ("says
   or has said"). *)
module Rule = struct
  let name = "ack-udc"

  type det = Pid.Set.t (* everyone ever suspected *)

  let initial = Pid.Set.empty

  let on_suspect ~n det r =
    match r with
    | Report.Std _ | Report.Correct_set _ ->
        Pid.Set.union det (Report.suspects_in ~n r)
    | Report.Gen _ -> det

  let ready ~n ~me det ~acked = Ack_quorum.covered ~n ~me ~acked det
  let stop_after_perform = false
end

module P = Ack_quorum.Make (Rule)

module Quiet = Ack_quorum.Make (struct
  include Rule

  let name = "ack-udc-quiet"

  (* footnote 11: with strong accuracy, retransmission may stop once
     alpha is performed - everyone unaccounted-for has really crashed *)
  let stop_after_perform = true
end)
