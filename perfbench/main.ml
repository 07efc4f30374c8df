(* The benchmark's command line:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   NAME is pingpong, firehose or stack-lossy. The report goes to
   standard output and its last line is one JSON object with the keys
   correct, attempted, failed and metrics: end-to-end metrics untraced,
   per-layer metrics traced. Exits 1 when an output check fails, 2 on
   bad arguments. A process runs one workload, so that its peak heap is
   that workload's alone; run.py runs "all" as one process each. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME pingpong | firehose | stack-lossy" );
      ("--seed", Arg.Set_int seed, "N workload seed (arrivals, faults, think times)");
      ("--seconds", Arg.Set_float seconds, "S host CPU seconds of repeated runs");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  let bad msg =
    prerr_endline ("perfbench: " ^ msg);
    Arg.usage spec usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> bad ("unexpected argument " ^ a)) usage
   with Arg.Bad m | Arg.Help m -> bad m);
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  if !seconds <= 0. then bad "--seconds must be positive";
  let w =
    match Runner.find !workload with
    | Some w -> w
    | None -> bad ("unknown workload " ^ !workload)
  in
  let result = Runner.run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
  print_endline (Runner.json result);
  if not result.Runner.correct then exit 1
