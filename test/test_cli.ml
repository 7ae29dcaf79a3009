(* The exit-code contract of the driver, exercised through the real
   binary: 0 = outcome matches --expect, 1 = outcome contradicts it (or
   a repro fails to reproduce), 2 = usage/configuration error. The
   explore search and replay paths, the classify path and the scale,
   enumerate, simulate and scenarios flags honour it. *)

(* resolve relative to the test executable so the path holds under both
   `dune runtest` (cwd _build/default/test) and `dune exec` (cwd root) *)
let cli =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/udc_cli.exe"

(* exit code and standard error of one run *)
let run_capture args =
  let err = Filename.temp_file "udc_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove err with Sys_error _ -> ())
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s >/dev/null 2>%s" (Filename.quote cli)
          (String.concat " " args) (Filename.quote err)
      in
      match Unix.system cmd with
      | Unix.WEXITED c ->
          (c, In_channel.with_open_text err In_channel.input_all)
      | Unix.WSIGNALED s | Unix.WSTOPPED s ->
          Alcotest.failf "cli killed by signal %d" s)

let run args = fst (run_capture args)

(* standard output of one run *)
let run_stdout args =
  let out = Filename.temp_file "udc_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      ignore
        (Unix.system
           (Printf.sprintf "%s %s >%s 2>/dev/null" (Filename.quote cli)
              (String.concat " " args) (Filename.quote out)));
      In_channel.with_open_text out In_channel.input_all)

let check_exit what expected args =
  Alcotest.(check int) what expected (run args)

let read path = In_channel.with_open_text path In_channel.input_all

let write path text =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text)

(* [text] with the value of every [key: value] line replaced *)
let with_field text key value =
  let prefix = key ^ ":" in
  String.split_on_char '\n' text
  |> List.map (fun line ->
         if String.starts_with ~prefix line then prefix ^ " " ^ value else line)
  |> String.concat "\n"

(* [text] without its [key: value] lines *)
let without_field text key =
  let prefix = key ^ ":" in
  String.split_on_char '\n' text
  |> List.filter (fun line -> not (String.starts_with ~prefix line))
  |> String.concat "\n"

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* [cmd] with the flags of [small], except the one a case replaces by
   its out-of-range value, must exit 2 with a message naming that flag *)
let rejects_bounds cmd ~small cases =
  List.iter
    (fun (flag, bad) ->
      let code, err =
        run_capture
          (cmd
          @ List.concat_map
              (fun (f, v) -> if f = flag then [] else [ f; v ])
              small
          @ bad)
      in
      let what = List.hd cmd ^ ": " ^ String.concat " " bad in
      Alcotest.(check int) what 2 code;
      Alcotest.(check bool) (what ^ ", message names it") true
        (contains err flag))
    cases

(* a tiny search that reliably finds a k-set violation: the adversary
   plays the detector, so two suspicions split the min rule *)
let kset_search extra =
  [
    "explore"; "--protocol"; "kset"; "--property"; "kset:1";
    "--adversarial-oracle"; "-n"; "3"; "--max-ticks"; "16"; "--depth"; "6";
  ]
  @ extra

let expect_contract () =
  let repro = Filename.temp_file "udc_kset" ".repro" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove repro with Sys_error _ -> ())
    (fun () ->
      (* search path *)
      check_exit "search: violation found, --expect violation" 0
        (kset_search [ "--expect"; "violation"; "--out"; repro ]);
      check_exit "search: violation found, --expect none" 1
        (kset_search [ "--expect"; "none" ]);
      (* replay path honours --expect the same way *)
      check_exit "replay: --expect violation" 0
        [ "explore"; "--replay"; repro; "--expect"; "violation" ];
      check_exit "replay: --expect none" 1
        [ "explore"; "--replay"; repro; "--expect"; "none" ];
      (* a tampered digest is an outcome mismatch (1), not usage (2) *)
      write repro
        (with_field (read repro) "digest" "00000000000000000000000000000000");
      check_exit "replay: tampered digest" 1
        [ "explore"; "--replay"; repro ]);
  (* --expect none certifies only a space the search exhausted: a stop
     on the run budget is a mismatch (1) naming --max-runs, and fuzz,
     which never exhausts a space, is a usage error (2) before any run.
     Both exited 0. *)
  let clean extra =
    [
      "explore"; "--protocol"; "reliable"; "--property"; "udc"; "-n"; "4";
      "--expect"; "none";
    ]
    @ extra
  in
  check_exit "clean space exhausted at depth 2" 0 (clean [ "--depth"; "2" ]);
  let code, err = run_capture (clean [ "--depth"; "3"; "--max-runs"; "50" ]) in
  Alcotest.(check int) "budget stop, --expect none" 1 code;
  Alcotest.(check bool) "budget stop names --max-runs" true
    (contains err "--max-runs");
  let fuzz = clean [ "--depth"; "3"; "--mode"; "fuzz"; "--max-runs"; "50" ] in
  check_exit "fuzz, --expect none" 2 fuzz;
  Alcotest.(check string) "fuzz, --expect none runs nothing" ""
    (run_stdout fuzz);
  (* two processes decide at most two values, so kset:2 at n = 2 holds
     on every run: the search exhausted 119 runs and certified it (0) *)
  let vacuous =
    [
      "explore"; "--property"; "kset:2"; "--protocol"; "kset"; "-n"; "2";
      "--depth"; "2"; "--max-ticks"; "30"; "--adversarial-oracle";
      "--expect"; "none";
    ]
  in
  let code, err = run_capture vacuous in
  Alcotest.(check int) "vacuous kset:2 at n = 2" 2 code;
  Alcotest.(check bool) "vacuous kset:2, message names it" true
    (contains err "kset:2");
  Alcotest.(check string) "vacuous kset:2 runs nothing" ""
    (run_stdout vacuous);
  (* usage errors are 2 on both subcommands *)
  check_exit "explore: bad channel" 2
    (kset_search [ "--channel"; "bogus" ]);
  (* a bound that admits no run must not certify a space it never
     searched: a small clean search with one bound out of range *)
  rejects_bounds
    [
      "explore"; "--protocol"; "reliable"; "--property"; "udc"; "--expect";
      "none";
    ]
    ~small:[ ("-n", "3"); ("--max-ticks", "40"); ("--depth", "1") ]
    [
      ("-n", [ "-n"; "0" ]);
      ("--max-ticks", [ "--max-ticks=-5" ]);
      ("--depth", [ "--depth=-1" ]);
      ("--window", [ "--window=-1" ]);
      ("--max-runs", [ "--max-runs=0" ]);
      ("--crash-budget", [ "--crash-budget=-1" ]);
    ];
  (* the confined clique needs n/2 <= t <= n - 2: outside it the
     scenario escaped as an uncaught exception (exit 125) *)
  rejects_bounds
    [ "explore"; "--scenario"; "confined"; "--expect"; "violation" ]
    ~small:[ ("--depth", "1") ]
    [
      ("-t", [ "-n"; "4"; "-t"; "1" ]);
      ("-t", [ "-n"; "4"; "-t"; "3" ]);
      ("-t", [ "-n"; "4"; "-t"; "9" ]);
      ("-t", [ "-n"; "3" ]);
    ];
  (* a negative threshold waits for more acknowledgements than there are
     processes: the search reported a vacuous violation (exit 0) *)
  List.iter
    (fun bad ->
      let code, err =
        run_capture
          [
            "explore"; "--protocol"; bad; "--property"; "udc"; "-n"; "4";
            "--depth"; "1"; "--expect"; "violation";
          ]
      in
      let what = "explore: --protocol " ^ bad in
      Alcotest.(check int) what 2 code;
      Alcotest.(check bool) (what ^ ", message names the form") true
        (contains err "majority:T | gen:T"))
    [ "majority:-1"; "gen:-1" ];
  check_exit "classify: bad regime" 2
    [ "classify"; "--regime"; "bogus" ];
  check_exit "classify: bad problem" 2
    [ "classify"; "--problem"; "bogus" ]

(* A malformed repro file is a usage error (2), never an uncaught
   exception, nor a witness gone stale (1): each case edits one field of
   a real witness. *)
let malformed_repro () =
  let repro = Filename.temp_file "udc_solo" ".repro" in
  let bad = Filename.temp_file "udc_bad" ".repro" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ repro; bad ])
    (fun () ->
      check_exit "solo witness found" 0
        [
          "explore"; "--scenario"; "solo"; "-n"; "4"; "--depth"; "2";
          "--expect"; "violation"; "--out"; repro;
        ];
      let text = read repro in
      let rejects what edited =
        write bad edited;
        let code, err = run_capture [ "explore"; "--replay"; bad ] in
        Alcotest.(check int) what 2 code;
        Alcotest.(check bool)
          (what ^ ", no uncaught exception")
          false
          (contains err "uncaught exception");
        err
      in
      List.iter
        (fun (key, value) ->
          ignore
            (rejects
               (Printf.sprintf "%s: %s" key value)
               (with_field text key value)))
        [
          ("n", "-1");
          ("max-consecutive-drops", "-1");
          ("n", "0");
          ("crash-budget", "-1");
          ("init", "0.-1@1");
          ("init", "9.0@1");
          ("digest", String.make 31 'a');
          ("protocol", "majority:-1");
          ("property", "kset:4");
        ];
      (* a file from before the structural digest says to regenerate it *)
      List.iter
        (fun (what, edited) ->
          Alcotest.(check bool)
            (what ^ ", says to regenerate")
            true
            (contains (rejects what edited) "regenerate"))
        [
          ("no digest-version", without_field text "digest-version");
          ("digest-version: 1", with_field text "digest-version" "1");
        ])

let classify_expect () =
  let cell extra =
    [
      "classify"; "--problem"; "kset"; "--backend"; "gossip"; "--regime";
      "reliable"; "-n"; "3"; "--crashes"; "0"; "--runs"; "2"; "--max-ticks";
      "120"; "-k"; "1";
    ]
    @ extra
  in
  (* crash-free reliable cell: consensus on the min, so k=1 is attained *)
  check_exit "kset --expect attained" 0 (cell [ "--expect"; "attained" ]);
  check_exit "kset --expect violated" 1 (cell [ "--expect"; "violated" ]);
  check_exit "kset --expect bogus" 2 (cell [ "--expect"; "bogus" ]);
  (* an expectation no outcome can match is rejected before any run, so
     no outcome is printed; a class that does not exist used to run the
     whole ensemble and exit 1 as a mismatch *)
  Alcotest.(check string) "kset --expect bogus runs nothing" ""
    (run_stdout (cell [ "--expect"; "bogus" ]));
  let detector extra =
    [
      "classify"; "--backend"; "gossip"; "--regime"; "reliable"; "-n"; "3";
      "--crashes"; "0"; "--runs"; "2"; "--max-ticks"; "120";
    ]
    @ extra
  in
  check_exit "detector --expect perfect" 0 (detector [ "--expect"; "perfect" ]);
  check_exit "detector --expect none" 1 (detector [ "--expect"; "none" ]);
  List.iter
    (fun bad ->
      let args = detector [ "--expect"; bad ] in
      check_exit ("detector --expect " ^ bad) 2 args;
      Alcotest.(check string)
        ("detector --expect " ^ bad ^ " runs nothing")
        "" (run_stdout args))
    [ "perfekt"; "perfect+strnog"; "strong-0" ]

(* the value of [text]'s first [key: value] line *)
let field text key =
  let prefix = key ^ ": " in
  List.find_map
    (fun line ->
      if String.starts_with ~prefix line then
        Some
          (String.sub line (String.length prefix)
             (String.length line - String.length prefix))
      else None)
    (String.split_on_char '\n' text)

(* Each search's shrunk witness, pinned by its repro file's horizon and
   run digest: a shrinker change that moves every witness the same way
   still replays, so only a pin catches it. The fuzz k-set search is a
   trace-level witness (its node is the root); the two classify cells
   go through the certificate search. *)
let pinned_witnesses () =
  let repro = Filename.temp_file "udc_pin" ".repro" in
  let explore args = ("explore" :: args) @ [ "--expect"; "violation" ] in
  let kset_lb =
    [
      "--protocol"; "kset"; "--property"; "kset:1"; "--adversarial-oracle";
      "-n"; "3"; "--max-ticks"; "16";
    ]
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove repro with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun (args, max_ticks, digest) ->
          let what = String.concat " " args in
          check_exit what 0 (args @ [ "--out"; repro ]);
          let text = read repro in
          Alcotest.(check (option string))
            (what ^ ": max-ticks") (Some max_ticks) (field text "max-ticks");
          Alcotest.(check (option string))
            (what ^ ": digest") (Some digest) (field text "digest"))
        [
          ( explore [ "--scenario"; "solo"; "-n"; "4"; "--depth"; "2" ],
            "4",
            "11f8ff9ce352f0f2c0a1981a75baf862" );
          ( explore
              [
                "--scenario"; "solo"; "-n"; "4"; "--mode"; "fuzz";
                "--max-runs"; "4000";
              ],
            "4",
            "11f8ff9ce352f0f2c0a1981a75baf862" );
          ( explore
              [
                "--scenario"; "confined"; "-n"; "4"; "-t"; "2"; "--depth"; "3";
              ],
            "14",
            "7624f17afb44e382bf9592e26b430531" );
          ( explore (kset_lb @ [ "--depth"; "6" ]),
            "7",
            "025f9ef96a43a38abd2cacd0e2c2253e" );
          ( explore (kset_lb @ [ "--mode"; "fuzz"; "--max-runs"; "3000" ]),
            "14",
            "1a0c5e66c1d371473775b62622c466d4" );
          (* no crash, and a suspicion timeline inside (S,2) *)
          ( explore
              [
                "--protocol"; "kset"; "--property"; "kset:2";
                "--adversarial-oracle"; "--crash-budget"; "0"; "-n"; "5";
                "--depth"; "4"; "--max-ticks"; "60";
              ],
            "16",
            "9031758c8c8feaac336eb5d04ee9985d" );
          ( [
              "classify"; "-b"; "phi"; "-r"; "lossy"; "--runs"; "8";
              "--max-ticks"; "200"; "--certify";
            ],
            "32",
            "b1b9cd3883d8b2a2ad6b21e65f8d861d" );
          ( [
              "classify"; "--problem"; "kset"; "-b"; "gossip"; "-r"; "add";
              "-k"; "1"; "-n"; "3"; "--crashes"; "1"; "--runs"; "2";
              "--max-ticks"; "120"; "--certify";
            ],
            "9",
            "3a43508043d356b6952c13b102d1abe5" );
        ])

(* [udc scale] bounds: each input either escaped as an uncaught
   exception (exit 125) or scored runs that ran no tick or monitored no
   pair (exit 0). A small valid estimate with one flag replaced. *)
let scale_bounds () =
  rejects_bounds [ "scale" ]
    ~small:[ ("-n", "50"); ("--runs", "2"); ("--ticks", "40") ]
    [
      ("--backend", [ "--backend"; "bogus" ]);
      ("--shards", [ "--shards"; "0" ]);
      ("-n", [ "-n"; "0" ]);
      ("--faults", [ "--faults"; "100" ]);
      ("--faults", [ "--faults=-1" ]);
      ("--runs", [ "--runs=-1" ]);
      ("--committee", [ "--committee=-2" ]);
      ("--degree", [ "--degree=-1" ]);
      ("--ticks", [ "--ticks"; "0" ]);
      ("--ticks", [ "--ticks=-3" ]);
      ("--degree", [ "--degree"; "0" ]);
      ("-n", [ "-n"; "1" ]);
      ("--runs", [ "--runs"; "0" ]);
    ]

(* [udc enumerate] bounds: a zero-process or negative-depth system was
   certified with exit 0, a negative crash budget enumerated anyway, and
   a node budget below one was reported as truncation (exit 3). *)
let enumerate_bounds () =
  rejects_bounds [ "enumerate" ]
    ~small:[ ("-n", "2"); ("--depth", "4") ]
    [
      ("-n", [ "-n"; "0" ]);
      ("--depth", [ "--depth=-1" ]);
      ("--crashes", [ "--crashes=-1" ]);
      ("--max-nodes", [ "--max-nodes"; "0" ]);
      ("--max-nodes", [ "--max-nodes=-5" ]);
    ]

(* [udc classify] bounds, for both problems: each input either escaped
   as an uncaught exception (exit 125) or printed an assignment that
   held vacuously, over no run, no tick, no peer or no correct process,
   or a k-set bound k >= n that n processes attain on every run. *)
let classify_bounds () =
  let small = [ ("--runs", "2"); ("--max-ticks", "60") ] in
  let backend = [ "-b"; "gossip"; "-r"; "reliable" ] in
  rejects_bounds ("classify" :: backend) ~small
    [
      ("-n", [ "-n"; "0" ]);
      ("-n", [ "-n"; "1" ]);
      ("--crashes", [ "--crashes"; "9" ]);
      ("--crashes", [ "--crashes=-1" ]);
      ("--crashes", [ "-n"; "5"; "--crashes"; "5" ]);
      ("--runs", [ "--runs=-1" ]);
      ("--runs", [ "--runs"; "0" ]);
      ("--max-ticks", [ "--max-ticks"; "0" ]);
      ("--max-ticks", [ "--max-ticks=-5" ]);
    ];
  rejects_bounds
    ([ "classify"; "--problem"; "kset" ] @ backend)
    ~small
    [
      ("-n", [ "-n"; "0" ]);
      ("--crashes", [ "--crashes=-1" ]);
      ("--runs", [ "--runs"; "0" ]);
      ("--max-ticks", [ "--max-ticks"; "0" ]);
      ("-k", [ "-k"; "0" ]);
      ("-k", [ "-k"; "5" ]);
      ("-k", [ "-n"; "4"; "--crashes"; "1"; "-k"; "4" ]);
    ];
  (* an eventually-timely GST outside the run: with G >= the horizon
     losses never stop, with G <= 1 no message is ever lost; either way
     the cell printed an eventually-timely assignment with exit 0 *)
  let gst_cases =
    [
      ("--gst", [ "--gst"; "60" ]);
      ("--gst", [ "--gst"; "500" ]);
      ("--gst", [ "--gst"; "1" ]);
      ("--gst", [ "--gst=-50" ]);
    ]
  in
  let timely = [ "-b"; "gossip"; "-r"; "eventually-timely" ] in
  rejects_bounds ("classify" :: timely) ~small gst_cases;
  rejects_bounds
    ([ "classify"; "--problem"; "kset" ] @ timely)
    ~small gst_cases;
  (* other regimes ignore --gst *)
  check_exit "lossy ignores --gst" 0
    ([ "classify"; "-b"; "gossip"; "-r"; "lossy"; "--gst"; "500" ]
    @ List.concat_map (fun (f, v) -> [ f; v ]) small)

(* [udc simulate] bounds, on the default flags: each input escaped as
   an uncaught exception (exit 125), or ran a protocol waiting for more
   acknowledgements than there are processes (exit 0). A threshold that
   is not an integer is a parse error (exit 124) naming the form. *)
let simulate_bounds () =
  rejects_bounds [ "simulate" ] ~small:[]
    [
      ("-n", [ "-n"; "0" ]);
      ("--crashes", [ "--crashes"; "9" ]);
      ("--crashes", [ "--crashes=-1" ]);
      ("--actions", [ "--actions=-2" ]);
      ("--loss", [ "--loss"; "2" ]);
      ("--loss", [ "--loss=-0.5" ]);
      ("--loss", [ "--loss"; "nan" ]);
      ("--protocol", [ "-p"; "majority:-1" ]);
      ("--protocol", [ "-p"; "gen:-1" ]);
    ];
  List.iter
    (fun (bad, form) ->
      let code, err = run_capture [ "simulate"; "-p"; bad ] in
      let what = "simulate: -p " ^ bad in
      Alcotest.(check int) what 124 code;
      Alcotest.(check bool) (what ^ ", message names " ^ form) true
        (contains err form))
    [ ("majority:abc", "majority:T"); ("gen:x", "gen:T") ]

(* [udc scenarios] builds the confined clique at t = n/2, which needs
   n >= 4: below that it escaped as an uncaught exception (exit 125). *)
let scenarios_bounds () =
  rejects_bounds [ "scenarios" ] ~small:[]
    [ ("-n", [ "-n"; "0" ]); ("-n", [ "-n"; "3" ]) ]

let suite =
  [
    Alcotest.test_case "explore --expect exit codes (search and replay)"
      `Slow expect_contract;
    Alcotest.test_case "scale: out-of-range flags exit 2" `Quick scale_bounds;
    Alcotest.test_case "enumerate: out-of-range flags exit 2" `Quick
      enumerate_bounds;
    Alcotest.test_case "classify: out-of-range flags exit 2" `Quick
      classify_bounds;
    Alcotest.test_case "simulate: out-of-range flags exit 2" `Quick
      simulate_bounds;
    Alcotest.test_case "scenarios: -n below 4 exits 2" `Quick
      scenarios_bounds;
    Alcotest.test_case "explore --replay: malformed repro exits 2" `Slow
      malformed_repro;
    Alcotest.test_case "classify --expect exit codes" `Slow classify_expect;
    Alcotest.test_case "shrunk witnesses pinned" `Quick pinned_witnesses;
  ]
