(* Semantic outcomes at seed 0, checked only there. No Run.digest value
   and no explorer count is pinned: a digest re-pin or a pruning gain
   must not trip the benchmark. *)

(* Per cell, in [Classify_grid.cells] order (phi, swim, gossip, each under
   reliable, lossy, eventually-timely, add): the assignment, the rates in
   [Explore.Classify.classes] order, reports and false suspicions. *)
let classify =
  [
    ("eventually-strong", [ 5; 7; 19; 26; 28; 30 ], 345, 77);
    ("eventually-strong", [ 0; 0; 0; 0; 20; 30 ], 865, 444);
    ("eventually-strong", [ 0; 0; 0; 0; 15; 30 ], 790, 459);
    ("eventually-strong", [ 0; 0; 0; 0; 17; 30 ], 863, 490);
    ("perfect", [ 30; 30; 30; 30; 30; 30 ], 189, 0);
    ("none", [ 0; 0; 0; 4; 1; 18 ], 418, 286);
    ("eventually-strong", [ 0; 0; 0; 5; 18; 30 ], 469, 306);
    ("none", [ 0; 0; 0; 2; 0; 10 ], 448, 348);
    ("perfect", [ 30; 30; 30; 30; 30; 30 ], 181, 0);
    ("perfect", [ 30; 30; 30; 30; 30; 30 ], 178, 0);
    ("perfect", [ 30; 30; 30; 30; 30; 30 ], 170, 0);
    ("perfect", [ 30; 30; 30; 30; 30; 30 ], 173, 0);
  ]

(* k = 2 grid, same cell order: attained, terminated, (S,2) timeline,
   KS1, KS2. *)
let kset =
  [
    [ 30; 30; 13; 30; 30 ];
    [ 30; 30; 0; 30; 30 ];
    [ 30; 30; 0; 30; 30 ];
    [ 30; 30; 0; 30; 30 ];
    [ 30; 30; 30; 30; 30 ];
    [ 30; 30; 0; 30; 30 ];
    [ 30; 30; 0; 30; 30 ];
    [ 30; 30; 0; 30; 30 ];
    [ 30; 30; 30; 30; 30 ];
    [ 30; 30; 30; 30; 30 ];
    [ 30; 30; 30; 30; 30 ];
    [ 30; 30; 30; 30; 30 ];
  ]

(* [Scale_ring.intervals] order: completeness, strong, weak, eventual strong,
   eventual weak, P, S, evP, evS, UDC uniformity, UDC termination, S2,
   S3. *)
let scale_successes = [ 2; 1; 2; 2; 2; 1; 2; 2; 2; 1; 1; 2; 2 ]

(* Detection latency and false suspicions per run: samples, mean, p50,
   p99, max. *)
let scale_dists = [ [ 32.; 60.625; 61.; 70.; 70. ]; [ 2.; 0.5; 0.; 1.; 1. ] ]
let knowledge_digest = "e4d445edff551913485b5b052422df67"
let knowledge_runs = 3613
let knowledge_points = 28904
let knowledge_antecedent_points = 2205
