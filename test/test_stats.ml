(* Tests for the statistics utilities. *)

module Summary = Flipc_stats.Summary
module Regression = Flipc_stats.Regression
module Table = Flipc_stats.Table

let checkf = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

let test_mean_stddev () =
  checkf "mean" 3.0 (Summary.mean [ 1.; 2.; 3.; 4.; 5. ]);
  checkf "stddev" (sqrt 2.5) (Summary.stddev [ 1.; 2.; 3.; 4.; 5. ]);
  checkf "single stddev" 0.0 (Summary.stddev [ 7. ])

let test_percentile () =
  let xs = [ 10.; 20.; 30.; 40. ] in
  checkf "p0" 10. (Summary.percentile xs 0.);
  checkf "p100" 40. (Summary.percentile xs 100.);
  checkf "p50 interpolates" 25. (Summary.percentile xs 50.);
  Alcotest.check_raises "empty" (Invalid_argument "Summary.percentile: empty")
    (fun () -> ignore (Summary.percentile [] 50.))

let test_summary () =
  let s = Summary.of_samples [ 5.; 1.; 3. ] in
  Alcotest.(check int) "n" 3 s.Summary.n;
  checkf "mean" 3. s.Summary.mean;
  checkf "min" 1. s.Summary.min;
  checkf "max" 5. s.Summary.max;
  checkf "p50" 3. s.Summary.p50

let test_regression_exact () =
  (* y = 2 + 3x fits exactly. *)
  let points = List.init 10 (fun i -> (float_of_int i, 2. +. (3. *. float_of_int i))) in
  let fit = Regression.linear points in
  checkf "intercept" 2. fit.Regression.intercept;
  checkf "slope" 3. fit.Regression.slope;
  checkf "r2" 1. fit.Regression.r2

let test_regression_noisy () =
  let points = [ (0., 1.); (1., 2.9); (2., 5.1); (3., 7.) ] in
  let fit = Regression.linear points in
  check_bool "slope near 2" true (Float.abs (fit.Regression.slope -. 2.) < 0.1);
  check_bool "r2 high" true (fit.Regression.r2 > 0.99)

let test_regression_errors () =
  Alcotest.check_raises "one point"
    (Invalid_argument "Regression.linear: need at least two points") (fun () ->
      ignore (Regression.linear [ (1., 1.) ]));
  Alcotest.check_raises "vertical"
    (Invalid_argument "Regression.linear: all x equal") (fun () ->
      ignore (Regression.linear [ (1., 1.); (1., 2.) ]))

(* Substring search helper. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_table_render () =
  let t = Table.create ~title:"T" [ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_rule t;
  Table.add_row t [ "b"; "22" ];
  let s = Fmt.str "%a" Table.pp t in
  check_bool "has title" true (contains s "== T ==");
  check_bool "has row" true (contains s "alpha | 1");
  check_bool "pads columns" true (contains s "b     | 22")

let test_table_mismatch () =
  let t = Table.create ~title:"T" [ "a"; "b" ] in
  Alcotest.check_raises "cell count"
    (Invalid_argument "Table.add_row: cell count mismatch") (fun () ->
      Table.add_row t [ "only one" ])

let test_cells () =
  Alcotest.(check string) "float" "3.14" (Table.cell_f 3.14159);
  Alcotest.(check string) "decimals" "3.1416" (Table.cell_f ~decimals:4 3.14159);
  Alcotest.(check string) "us" "16.20" (Table.cell_us 16.2);
  Alcotest.(check string) "int" "42" (Table.cell_i 42)

let test_table_csv () =
  let t = Table.create ~title:"T" [ "a"; "b" ] in
  Table.add_row t [ "x,y"; "2" ];
  Table.add_rule t;
  Table.add_row t [ "he said \"hi\""; "3" ];
  let csv = Table.to_csv t in
  check_bool "header" true (contains csv "a,b\n");
  check_bool "quoted comma" true (contains csv "\"x,y\",2");
  check_bool "escaped quote" true (contains csv "\"he said \"\"hi\"\"\",3");
  check_bool "rule skipped" true (not (contains csv "---"))

let () =
  Alcotest.run "stats"
    [
      ( "summary",
        [
          Alcotest.test_case "mean/stddev" `Quick test_mean_stddev;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "of_samples" `Quick test_summary;
        ] );
      ( "regression",
        [
          Alcotest.test_case "exact" `Quick test_regression_exact;
          Alcotest.test_case "noisy" `Quick test_regression_noisy;
          Alcotest.test_case "errors" `Quick test_regression_errors;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "mismatch" `Quick test_table_mismatch;
          Alcotest.test_case "cells" `Quick test_cells;
          Alcotest.test_case "csv" `Quick test_table_csv;
        ] );
    ]
