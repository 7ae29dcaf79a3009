type schedule = [ `History_length | `Round_robin ]

let subset_of_index ~n l =
  List.fold_left
    (fun acc i -> if l land (1 lsl i) <> 0 then Pid.Set.add i acc else acc)
    Pid.Set.empty (Pid.all n)

(* Shared skeleton of f and f': stretch the original events onto even ticks
   (dropping failure-detector events), insert a constructed report on each
   odd tick while the process is alive. [report p m] produces the new
   failure-detector event content from the knowledge at (r, m). *)
let transform env ~run:ri ~report =
  let sys = Epistemic.Checker.system env in
  let r = Epistemic.System.run sys ri in
  let n = Run.n r in
  let horizon = Run.horizon r in
  let transform_process p =
    let h = Run.history r p in
    let len = History.length h in
    let crash_tick = Run.crash_tick r p in
    let alive_at m =
      match crash_tick with None -> true | Some tc -> tc > m
    in
    (* a linear build: O(1)-amortized Builder appends, not the
       copy-per-append functional [History.append] *)
    let b = History.Builder.fresh () in
    let cursor = ref 0 in
    for m = 0 to horizon do
      (* odd tick 2m+1: constructed report, while alive at m *)
      if alive_at m then
        History.Builder.append b
          (Event.Suspect (report p m))
          ~tick:((2 * m) + 1);
      (* skip failure-detector events of the original run *)
      while
        !cursor < len && Event.is_failure_detector (History.event h !cursor)
      do
        incr cursor
      done;
      (* even tick 2m+2: the original event of tick m+1, if any *)
      if !cursor < len && History.tick h !cursor = m + 1 then begin
        History.Builder.append b (History.event h !cursor) ~tick:((2 * m) + 2);
        incr cursor
      end
    done;
    History.Builder.seal b
  in
  Run.make ~n
    ~horizon:((2 * horizon) + 2)
    (Array.init n transform_process)

let f_run env ~run =
  transform env ~run ~report:(fun p m ->
      Report.std (Epistemic.Checker.knows_crashed env p ~run ~tick:m))

let f_system env =
  let sys = Epistemic.Checker.system env in
  List.init (Epistemic.System.run_count sys) (fun ri -> f_run env ~run:ri)

let f'_run ?(schedule = `Round_robin) env ~run:ri =
  let sys = Epistemic.Checker.system env in
  let r = Epistemic.System.run sys ri in
  let n = Run.n r in
  let two_n = 1 lsl n in
  let report p m =
    let l =
      match schedule with
      | `Round_robin -> (m + p) mod two_n
      | `History_length ->
          History.length (Run.history_at r p (m + 1)) mod two_n
    in
    let s = subset_of_index ~n l in
    let k = Epistemic.Checker.max_known_crashed env p s ~run:ri ~tick:m in
    Report.gen s k
  in
  transform env ~run:ri ~report
