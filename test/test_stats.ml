(* Descriptive statistics, histograms and inequality measures. *)

let feq = Alcotest.(check (float 1e-9))

let test_mean_median () =
  feq "mean" 2.5 (Descriptive.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  feq "median odd" 2.0 (Descriptive.median [| 3.0; 1.0; 2.0 |]);
  feq "median even" 2.5 (Descriptive.median [| 4.0; 1.0; 2.0; 3.0 |]);
  feq "median int" 2.5 (Descriptive.median_int [| 4; 1; 2; 3 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Descriptive.mean: empty input")
    (fun () -> ignore (Descriptive.mean [||]))

let test_stddev () =
  feq "constant" 0.0 (Descriptive.stddev [| 5.0; 5.0; 5.0 |]);
  (* population stddev of 1..5 is sqrt(2) *)
  feq "1..5" (sqrt 2.0) (Descriptive.stddev [| 1.0; 2.0; 3.0; 4.0; 5.0 |])

let test_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  feq "p0" 10.0 (Descriptive.percentile xs 0.0);
  feq "p50" 30.0 (Descriptive.percentile xs 50.0);
  feq "p100" 50.0 (Descriptive.percentile xs 100.0);
  feq "p25 interpolates" 20.0 (Descriptive.percentile xs 25.0);
  feq "p10 interpolates" 14.0 (Descriptive.percentile xs 10.0)

let test_summarize () =
  let s = Descriptive.summarize_int [| 1; 2; 3; 4 |] in
  Alcotest.(check int) "n" 4 s.Descriptive.n;
  feq "mean" 2.5 s.Descriptive.mean;
  feq "median" 2.5 s.Descriptive.median;
  feq "min" 1.0 s.Descriptive.min;
  feq "max" 4.0 s.Descriptive.max

let test_gini () =
  feq "all equal" 0.0 (Inequality.gini [| 5; 5; 5; 5 |]);
  feq "all zero" 0.0 (Inequality.gini [| 0; 0; 0 |]);
  (* one node owns everything: G = (n-1)/n *)
  feq "one-hot" 0.75 (Inequality.gini [| 0; 0; 0; 100 |]);
  Alcotest.check_raises "negative" (Invalid_argument "Inequality.gini: negative value")
    (fun () -> ignore (Inequality.gini [| 1; -1 |]))

let test_cv_max_over_mean () =
  feq "cv constant" 0.0 (Inequality.coefficient_of_variation [| 3; 3; 3 |]);
  feq "max/mean" 2.0 (Inequality.max_over_mean [| 0; 2; 4 |]);
  feq "max/mean zero" 0.0 (Inequality.max_over_mean [| 0; 0 |])

let test_histogram_linear () =
  let h = Histogram.linear ~bins:5 ~lo:0.0 ~hi:10.0 [| 0; 1; 2; 3; 9; 10; 12 |] in
  Alcotest.(check int) "total" 7 h.Histogram.total;
  let counts = Array.map (fun (b : Histogram.bin) -> b.Histogram.count) h.Histogram.bins in
  (* bins of width 2: {0,1} {2,3} {} {} {9,10,12} — boundary 10 and
     overflow 12 clamp into the last bin *)
  Alcotest.(check (array int)) "counts" [| 2; 2; 0; 0; 3 |] counts;
  Alcotest.check_raises "bad range" (Invalid_argument "Histogram.linear: hi <= lo")
    (fun () -> ignore (Histogram.linear ~lo:1.0 ~hi:1.0 [| 1 |]))

let test_histogram_log () =
  let h = Histogram.log10 ~bins_per_decade:1 [| 0; 1; 5; 50; 500; 5000 |] in
  (* bin 0: zeros; bin 1: [1,10); bin 2: [10,100); ... *)
  let counts = Array.map (fun (b : Histogram.bin) -> b.Histogram.count) h.Histogram.bins in
  Alcotest.(check int) "zeros bin" 1 counts.(0);
  Alcotest.(check int) "1-10" 2 counts.(1);
  Alcotest.(check int) "10-100" 1 counts.(2);
  Alcotest.(check int) "total" 6 h.Histogram.total

let test_probability () =
  let h = Histogram.linear ~bins:2 ~lo:0.0 ~hi:2.0 [| 0; 0; 1; 1 |] in
  let p = Histogram.probability h in
  feq "mass sums to 1" 1.0 (Array.fold_left (fun acc (_, m) -> acc +. m) 0.0 p)

let test_render () =
  let h = Histogram.linear ~bins:3 ~lo:0.0 ~hi:3.0 [| 0; 1; 1; 2 |] in
  let s = Histogram.render ~width:10 h in
  Alcotest.(check int) "three lines" 3
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' s)))

let test_welch_identical_samples () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  let r = Significance.welch_t_test a a in
  feq "t=0" 0.0 r.Significance.t_statistic;
  Alcotest.(check bool) "not significant" false r.Significance.significant_05;
  Alcotest.(check bool) "p near 1" true (r.Significance.p_value > 0.9)

let test_welch_clear_difference () =
  let a = [| 1.0; 1.1; 0.9; 1.05; 0.95 |] in
  let b = [| 7.0; 7.2; 6.8; 7.1; 6.9 |] in
  let r = Significance.welch_t_test a b in
  Alcotest.(check bool) "t negative (a < b)" true (r.Significance.t_statistic < 0.0);
  Alcotest.(check bool) "significant" true r.Significance.significant_05;
  Alcotest.(check bool) "p tiny" true (r.Significance.p_value < 0.001);
  (* symmetric *)
  let r' = Significance.welch_t_test b a in
  feq "antisymmetric t" (-.r.Significance.t_statistic) r'.Significance.t_statistic

let test_welch_noisy_overlap () =
  (* heavily overlapping noisy samples: should NOT be significant *)
  let a = [| 5.0; 7.0; 3.0; 6.0; 4.0 |] in
  let b = [| 5.5; 6.5; 3.5; 5.0; 4.5 |] in
  let r = Significance.welch_t_test a b in
  Alcotest.(check bool) "not significant" false r.Significance.significant_05

let test_welch_rejects_small () =
  Alcotest.check_raises "n<2"
    (Invalid_argument "Significance.welch_t_test: need >= 2 samples per side")
    (fun () -> ignore (Significance.welch_t_test [| 1.0 |] [| 1.0; 2.0 |]))

let test_welch_constant_samples () =
  let r = Significance.welch_t_test [| 2.0; 2.0 |] [| 2.0; 2.0 |] in
  Alcotest.(check bool) "same constants not significant" false
    r.Significance.significant_05;
  let r2 = Significance.welch_t_test [| 2.0; 2.0 |] [| 3.0; 3.0 |] in
  Alcotest.(check bool) "different constants significant" true
    r2.Significance.significant_05

let prop_welch_p_in_range =
  Testutil.prop ~count:200 "p-value in [0,1]"
    QCheck.(pair (array_of_size (QCheck.Gen.int_range 2 20) (float_range 0.0 10.0))
              (array_of_size (QCheck.Gen.int_range 2 20) (float_range 0.0 10.0)))
    (fun (a, b) ->
      let r = Significance.welch_t_test a b in
      r.Significance.p_value >= 0.0 && r.Significance.p_value <= 1.0)

let prop_histogram_conserves_mass =
  Testutil.prop ~count:300 "linear histogram conserves samples"
    QCheck.(small_list (int_bound 1000))
    (fun xs ->
      xs = []
      ||
      let h = Histogram.linear ~bins:7 ~lo:0.0 ~hi:1000.0 (Array.of_list xs) in
      Array.fold_left (fun acc (b : Histogram.bin) -> acc + b.Histogram.count) 0 h.Histogram.bins
      = List.length xs)

let prop_gini_bounds =
  Testutil.prop ~count:300 "gini in [0,1)"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (int_bound 1000))
    (fun xs ->
      let g = Inequality.gini (Array.of_list xs) in
      g >= 0.0 && g < 1.0)

let prop_percentile_monotone =
  Testutil.prop ~count:300 "percentile monotone in p"
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 50) (int_bound 1000)) (pair (int_bound 100) (int_bound 100)))
    (fun (xs, (p1, p2)) ->
      let a = Array.map float_of_int (Array.of_list xs) in
      let lo = float_of_int (min p1 p2) and hi = float_of_int (max p1 p2) in
      Descriptive.percentile a lo <= Descriptive.percentile a hi +. 1e-9)

(* ---- Tally against Descriptive -------------------------------------- *)

let test_tally_edges () =
  let t = Tally.create () in
  Alcotest.check_raises "negative sample" (Invalid_argument "Tally.add: negative sample")
    (fun () -> Tally.add t (-1));
  Alcotest.check_raises "empty mean" (Invalid_argument "Tally.mean: empty input")
    (fun () -> ignore (Tally.mean t));
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Tally.percentile: empty input") (fun () ->
      ignore (Tally.percentile t 50.0));
  Tally.add t 3;
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Tally.percentile: p out of [0,100]") (fun () ->
      ignore (Tally.percentile t 101.0));
  Tally.clear t;
  Alcotest.(check int) "cleared" 0 (Tally.length t);
  Alcotest.(check (list (pair int int))) "cleared counts" [] (Tally.to_list t)

(* Ascending (value, count) runs of a sample list. *)
let runs xs =
  List.rev
    (List.fold_left
       (fun acc x ->
         match acc with
         | (v, c) :: rest when v = x -> (v, c + 1) :: rest
         | _ -> (x, 1) :: acc)
       [] (List.sort compare xs))

(* A tally holds counts where Descriptive holds the samples, so its
   percentiles and mean must equal Descriptive's over the same samples
   as floats, bit for bit.  A tally reused after [clear] must not
   remember the samples before it. *)
let prop_tally_matches_descriptive =
  let gen =
    QCheck.Gen.(
      let sample = oneof [ int_bound 20; int_bound 5000 ] in
      let* cleared = list_size (int_bound 20) sample in
      let* xs =
        oneof
          [
            list_size (int_range 1 2) sample;
            list_size (int_range 1 200) sample;
            list_size (int_range 1 60) (int_bound 4);
            (let* v = sample and* n = int_range 50 500 in
             return (List.init n (fun _ -> v)));
          ]
      in
      let* ps = list_size (int_bound 5) (float_range 0.0 100.0) in
      return (cleared, xs, [ 0.0; 50.0; 95.0; 99.0; 100.0 ] @ ps))
  in
  let print (cleared, xs, ps) =
    let ints l = String.concat ";" (List.map string_of_int l) in
    Printf.sprintf "cleared [%s] samples [%s] p [%s]" (ints cleared) (ints xs)
      (String.concat ";" (List.map (Printf.sprintf "%h") ps))
  in
  Testutil.prop ~count:500 "tally = Descriptive, bit for bit"
    (QCheck.make ~print gen) (fun (cleared, xs, ps) ->
      let t = Tally.create () in
      List.iter (Tally.add t) cleared;
      Tally.clear t;
      List.iter (Tally.add t) xs;
      let a = Array.of_list (List.map float_of_int xs) in
      let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
      Tally.length t = List.length xs
      && same (Tally.mean t) (Descriptive.mean a)
      && List.for_all (fun p -> same (Tally.percentile t p) (Descriptive.percentile a p)) ps
      && Tally.to_list t = runs xs)

let () =
  Alcotest.run "stats"
    [
      ( "descriptive",
        [
          Alcotest.test_case "mean/median" `Quick test_mean_median;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "summarize" `Quick test_summarize;
        ] );
      ( "tally",
        [
          Alcotest.test_case "edges" `Quick test_tally_edges;
          prop_tally_matches_descriptive;
        ] );
      ( "inequality",
        [
          Alcotest.test_case "gini" `Quick test_gini;
          Alcotest.test_case "cv and max/mean" `Quick test_cv_max_over_mean;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "linear" `Quick test_histogram_linear;
          Alcotest.test_case "log10" `Quick test_histogram_log;
          Alcotest.test_case "probability" `Quick test_probability;
          Alcotest.test_case "render" `Quick test_render;
        ] );
      ( "significance",
        [
          Alcotest.test_case "identical samples" `Quick test_welch_identical_samples;
          Alcotest.test_case "clear difference" `Quick test_welch_clear_difference;
          Alcotest.test_case "noisy overlap" `Quick test_welch_noisy_overlap;
          Alcotest.test_case "rejects small" `Quick test_welch_rejects_small;
          Alcotest.test_case "constant samples" `Quick test_welch_constant_samples;
        ] );
      ( "properties",
        [
          prop_histogram_conserves_mass;
          prop_gini_bounds;
          prop_percentile_monotone;
          prop_welch_p_in_range;
        ] );
    ]
