(* Determinism self-test of the benchmark, on small instances of each
   workload: a seed repeats its virtual metrics and allocation exactly,
   another seed changes the virtual metrics, and a traced rep runs the
   same virtual timeline (metrics and simulator steps) as an untraced
   one. *)

open Perfbench

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let workload name rep =
  (* The first rep of a process pays one-off allocations; compare the
     ones after it. *)
  ignore (rep ~seed:1 ~trace:false : Measure.rep);
  let a = rep ~seed:1 ~trace:false in
  let b = rep ~seed:1 ~trace:false in
  let c = rep ~seed:2 ~trace:false in
  let t = rep ~seed:1 ~trace:true in
  expect (name ^ ": same seed, same virtual metrics") (a.Measure.virt = b.Measure.virt);
  (* OCaml 5's allocation counters drift by a few words between
     identical runs (GC accounting, not the workload): allow 1e-4. *)
  expect (name ^ ": same seed, same allocation")
    (Float.abs (a.Measure.alloc_bytes -. b.Measure.alloc_bytes)
    <= 1e-4 *. a.Measure.alloc_bytes);
  expect (name ^ ": same seed, same steps")
    (a.Measure.layer.Measure.steps = b.Measure.layer.Measure.steps);
  expect (name ^ ": other seed, other virtual metrics") (a.Measure.virt <> c.Measure.virt);
  expect (name ^ ": traced run, same virtual metrics") (t.Measure.virt = a.Measure.virt);
  expect (name ^ ": traced run, same steps")
    (t.Measure.layer.Measure.steps = a.Measure.layer.Measure.steps);
  expect (name ^ ": traced run records spans") (t.Measure.spans <> []);
  List.iter (fun (n, ok) -> expect n ok) (a.Measure.checks @ t.Measure.checks)

let () =
  workload "pingpong" (fun ~seed ~trace -> Pingpong_wl.rep ~exchanges:200 ~seed ~trace ());
  List.iter (fun (n, ok) -> expect n ok) (Pingpong_wl.check ());
  workload "firehose" (fun ~seed ~trace -> Firehose_wl.rep ~window_us:2_000 ~seed ~trace ());
  workload "stack-lossy" (fun ~seed ~trace -> Stack_wl.rep ~messages:50 ~seed ~trace ());
  if !failures > 0 then exit 1
