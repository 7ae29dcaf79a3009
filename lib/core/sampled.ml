let env ~mk_config ~protocol ~runs =
  let seeds = List.init runs (fun i -> Int64.of_int ((i * 6700417) + 97)) in
  let runs_list =
    Ensemble.map
      (fun seed -> (Sim.execute_uniform (mk_config seed) protocol).Sim.run)
      seeds
  in
  Epistemic.Checker.make (Epistemic.System.of_runs runs_list)

type overclaim = {
  reports : int;
  false_suspicions : int;
  runs_complete : int;
  runs_total : int;
}

let f_overclaim ?domains env =
  let sys = Epistemic.Checker.system env in
  let audit ri =
    let fr = Simulate_fd.f_run env ~run:ri in
    let fidx = Run_index.of_run fr in
    (* audit every constructed suspicion against the ground truth *)
    let reports = ref 0 and false_suspicions = ref 0 in
    List.iter
      (fun p ->
        History.iter
          (fun e ~tick ->
            match e with
            | Event.Suspect r ->
                Pid.Set.iter
                  (fun q ->
                    incr reports;
                    if not (Run.crashed_by fr q tick) then
                      incr false_suspicions)
                  (Report.suspects r)
            | _ -> ())
          (Run.history fr p))
      (Pid.all (Run.n fr));
    let complete =
      Pid.Set.for_all
        (fun q ->
          Pid.Set.for_all
            (fun p -> Pid.Set.mem q (Run_index.final_suspects fidx p))
            (Run.correct fr))
        (Run.faulty fr)
    in
    (!reports, !false_suspicions, complete)
  in
  (* one audit per run of the system, on the domain pool; the shared
     checker env is domain-safe, and the map-then-sequential-fold shape
     keeps the record bit-identical at every domain count *)
  Ensemble.fold ?domains
    ~f:(fun acc (reports, false_susp, complete) ->
      {
        reports = acc.reports + reports;
        false_suspicions = acc.false_suspicions + false_susp;
        runs_complete = (acc.runs_complete + if complete then 1 else 0);
        runs_total = acc.runs_total + 1;
      })
    ~init:{ reports = 0; false_suspicions = 0; runs_complete = 0; runs_total = 0 }
    audit
    (List.init (Epistemic.System.run_count sys) Fun.id)
