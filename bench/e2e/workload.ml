(* What every workload provides to the harness in [e2e.ml], and the
   measuring helpers they share. *)

module type S = sig
  val name : string

  (** Self-time metrics of the named layers of a traced rep. *)
  val partition : string list

  (** The metric for the rest: an untraced rep's wall time minus the
      named layers' self times. *)
  val remainder : string

  type input
  type outcome

  (** Build the inputs for [--seed]. *)
  val input : seed:int -> input

  (** One untraced rep: the user path, end to end. *)
  val rep : domains:int -> input -> outcome

  (** Pins at seed 0, invariants at every seed; [reference] is the first
      rep's outcome in this process. *)
  val check : Check.t -> seed:int -> reference:outcome -> outcome -> unit

  (** One traced rep at domains = 1: its per-layer metrics and spans. *)
  val traced :
    Check.t ->
    seed:int ->
    input ->
    reference:outcome ->
    (string * float) list * Span.t list

  (** Once per traced pass, after the traced reps: micro-benchmarks,
      extra runs and metrics derived from the traced medians ([layer]). *)
  val probes : input -> layer:(string -> float) -> (string * float) list
end

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let sorted xs = Array.of_list (List.sort compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* Mean wall time of one call over [calls] calls, in microseconds. *)
let mean_us ~calls f =
  let t0 = now () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  (now () -. t0) /. float_of_int calls *. 1e6

let mwords w = w /. 1e6

let ok_exn what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what e)

let history_events run =
  List.fold_left
    (fun acc p -> acc + History.length (Run.history run p))
    0
    (Pid.all (Run.n run))

(* Per-call cost of the random decision source's per-slot queries, in
   nanoseconds; the source is advanced by every call, as in the kernel. *)
let decision_call_ns () =
  let src = Decision.random ~seed:1L () in
  let ns f = mean_us ~calls:1_000_000 f *. 1e3 in
  ( ns (fun () -> Decision.deliver src ~tick:1 ~dst:0 ~backlog:1 ~p:0.5),
    ns (fun () -> Decision.drop src ~tick:1 ~src:0 ~dst:1 ~rate:0.3) )

(* [Decision.order] shuffles a slot array in place, so its cost scales
   with the array: it is priced at the size the kernel passes. *)
let order_call_ns ~size =
  let src = Decision.random ~seed:1L () in
  let a = Array.init size Fun.id in
  let calls = max 100 (1_000_000 / size) in
  mean_us ~calls (fun () -> Decision.order src ~tick:1 a) *. 1e3

(* Share of an engine's time spent in decision draws: one order per tick
   and source, priced at the kernel's slot-array size, and every other
   draw (deliver, pick, drop) at the dearer of deliver/drop. *)
let decision_metrics ~draws ~orders ~order_size ~engine_s =
  let deliver, drop = decision_call_ns () in
  let draw_ns = Float.max deliver drop in
  let order_ns = order_call_ns ~size:order_size in
  let spent =
    (((draws -. orders) *. draw_ns) +. (orders *. order_ns)) *. 1e-9
  in
  [
    ("decision.deliver_ns", deliver);
    ("decision.drop_ns", drop);
    ("decision.order_ns", order_ns);
    ("decision.draw_ns", draw_ns);
    ("decision.share", spent /. engine_s);
  ]
