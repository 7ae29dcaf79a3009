type t =
  | Dc1
  | Dc2
  | Dc3
  | Udc
  | Nudc
  | Expect of Core.Adversary.expectation
  | Detector of Detector.Spec.cls
  | Epistemic_dc2
  | Kset of int

let to_string = function
  | Dc1 -> "dc1"
  | Dc2 -> "dc2"
  | Dc3 -> "dc3"
  | Udc -> "udc"
  | Nudc -> "nudc"
  | Expect Core.Adversary.Udc_violated -> "expect-udc-violated"
  | Expect Core.Adversary.Dc1_violated -> "expect-dc1-violated"
  | Detector cls -> "detector:" ^ Detector.Spec.cls_name cls
  | Epistemic_dc2 -> "epistemic-dc2"
  | Kset k -> Printf.sprintf "kset:%d" k

let all =
  [
    Dc1;
    Dc2;
    Dc3;
    Udc;
    Nudc;
    Expect Core.Adversary.Udc_violated;
    Expect Core.Adversary.Dc1_violated;
    Detector Detector.Spec.Perfect;
    Detector Detector.Spec.Strong;
    Detector Detector.Spec.Weak;
    Detector Detector.Spec.Eventually_perfect;
    Detector Detector.Spec.Eventually_strong;
    Detector Detector.Spec.Impermanent_strong;
    Detector Detector.Spec.Impermanent_weak;
    Epistemic_dc2;
    Kset 2;
  ]

(* "kset:K" and "detector:strong-K" carry an integer parameter, so they
   are parsed by prefix instead of by membership in the finite [all]
   list. *)
let parse_param s ~prefix k =
  let pl = String.length prefix in
  if String.length s > pl && String.sub s 0 pl = prefix then
    match int_of_string_opt (String.sub s pl (String.length s - pl)) with
    | Some i when i >= 1 -> Some (k i)
    | _ -> None
  else None

let of_string s =
  match List.find_opt (fun p -> to_string p = s) all with
  | Some p -> Ok p
  | None -> (
      let parametric =
        match parse_param s ~prefix:"kset:" (fun k -> Kset k) with
        | Some _ as p -> p
        | None -> (
            match
              if String.length s > 9 && String.sub s 0 9 = "detector:" then
                Detector.Spec.cls_of_string
                  (String.sub s 9 (String.length s - 9))
              else None
            with
            | Some cls -> Some (Detector cls)
            | None -> None)
      in
      match parametric with
      | Some p -> Ok p
      | None ->
          Error
            (Printf.sprintf
               "unknown property %S (expected one of: %s | kset:K | \
                detector:strong-K)"
               s
               (String.concat " | " (List.map to_string all))))

let check_k ~k ~n =
  if k < 1 || k > n - 1 then
    Error (Printf.sprintf "%d outside [1, %d]" k (n - 1))
  else Ok ()

let check t ~n =
  match t with
  | Kset k ->
      Result.map_error
        (fun e -> Printf.sprintf "property %s: k %s" (to_string t) e)
        (check_k ~k ~n)
  | _ -> Ok ()

let of_violation = function Ok () -> None | Error e -> Some e

(* The epistemic route: check the DC2 validity statement on the packed
   checker over the single-run system; a counterexample point is a
   violation witness. Heavier than the direct run predicate, but it
   exercises exactly the checker the enumerated systems use. *)
let epistemic_dc2 run =
  match Run.initiated run with
  | [] -> None
  | initiated ->
      let env = Epistemic.Checker.make (Epistemic.System.of_runs [ run ]) in
      List.find_map
        (fun (alpha, _) ->
          let f = Core.Spec.dc2_formula ~n:(Run.n run) alpha in
          match Epistemic.Checker.counterexample env f with
          | Some (_, tick) ->
              Some
                (Format.asprintf
                   "epistemic DC2 counterexample for %s at tick %d"
                   (Action_id.to_string alpha) tick)
          | None -> None)
        initiated

let violation t run =
  match t with
  | Dc1 -> of_violation (Core.Spec.dc1 run)
  | Dc2 -> of_violation (Core.Spec.dc2 run)
  | Dc3 -> of_violation (Core.Spec.dc3 run)
  | Udc -> of_violation (Core.Spec.udc run)
  | Nudc -> of_violation (Core.Spec.nudc run)
  | Expect e -> (
      match Core.Adversary.check_expectation e run with
      | Ok desc -> Some desc
      | Error _ -> None)
  | Detector cls -> of_violation (Detector.Spec.satisfies cls run)
  | Epistemic_dc2 -> epistemic_dc2 run
  | Kset k -> (
      (* safety only — agreement degree and validity; termination is
         scored separately by the classification grids, since bounded
         lossy runs routinely time out without violating k-set safety *)
      match Consensus.Spec.k_agreement ~k run with
      | Error _ as e -> of_violation e
      | Ok () ->
          of_violation
            (Consensus.Spec.validity
               ~proposals:(Array.init (Run.n run) Fun.id)
               run))
