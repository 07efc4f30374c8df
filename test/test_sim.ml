(* Tests for the discrete-event simulation core. *)

module Vtime = Flipc_sim.Vtime
module Heap = Flipc_sim.Heap
module Engine = Flipc_sim.Engine
module Sync = Flipc_sim.Sync
module Prng = Flipc_sim.Prng

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Vtime --- *)

let test_vtime_units () =
  check "us" 1_000 (Vtime.us 1);
  check "ms" 1_000_000 (Vtime.ms 1);
  check "s" 1_000_000_000 (Vtime.s 1);
  check "of_us_float rounds" 1_500 (Vtime.of_us_float 1.5);
  Alcotest.(check (float 1e-9)) "to_us" 1.5 (Vtime.to_us 1_500)

let test_vtime_arith () =
  check "add" 30 (Vtime.add 10 20);
  check "sub" 10 (Vtime.sub 30 20);
  check "scale" 60 (Vtime.scale 3 20);
  check_bool "compare" true (Vtime.compare (Vtime.us 1) (Vtime.ms 1) < 0)

let test_vtime_pp () =
  let s t = Fmt.str "%a" Vtime.pp t in
  Alcotest.(check string) "ns" "42ns" (s 42);
  Alcotest.(check string) "us" "1.50us" (s 1_500);
  Alcotest.(check string) "ms" "2.000ms" (s 2_000_000)

(* --- Heap --- *)

let test_heap_ordering () =
  let h = Heap.create ~cmp:Int.compare () in
  List.iter (fun k -> Heap.push h k k) [ 5; 3; 8; 1; 9; 2; 7 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | Some (k, _) ->
        out := k :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (List.rev !out)

let test_heap_peek () =
  let h = Heap.create ~cmp:Int.compare () in
  Alcotest.(check bool) "empty peek" true (Heap.peek_min h = None);
  Heap.push h 4 "four";
  Heap.push h 2 "two";
  (match Heap.peek_min h with
  | Some (2, "two") -> ()
  | _ -> Alcotest.fail "peek should be min");
  check "size unchanged" 2 (Heap.size h)

let test_heap_grow () =
  let h = Heap.create ~cmp:Int.compare () in
  for i = 1000 downto 1 do
    Heap.push h i i
  done;
  check "size" 1000 (Heap.size h);
  (match Heap.pop_min h with
  | Some (1, _) -> ()
  | _ -> Alcotest.fail "min of 1000");
  Heap.clear h;
  check "cleared" 0 (Heap.size h)

let heap_sorted_prop =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list int)
    (fun keys ->
      let h = Heap.create ~cmp:Int.compare () in
      List.iter (fun k -> Heap.push h k ()) keys;
      let rec drain acc =
        match Heap.pop_min h with
        | Some (k, ()) -> drain (k :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort Int.compare keys)

(* --- Engine --- *)

let test_engine_delay_order () =
  let t = Engine.create () in
  let log = ref [] in
  Engine.spawn t (fun () ->
      Engine.delay 30;
      log := "c" :: !log);
  Engine.spawn t (fun () ->
      Engine.delay 10;
      log := "a" :: !log);
  Engine.spawn t (fun () ->
      Engine.delay 20;
      log := "b" :: !log);
  Engine.run t;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check "final time" 30 (Engine.now t)

let test_engine_fifo_same_time () =
  let t = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.spawn t (fun () -> log := i :: !log)
  done;
  Engine.run t;
  Alcotest.(check (list int)) "spawn order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_nested_delay () =
  let t = Engine.create () in
  let times = ref [] in
  Engine.spawn t (fun () ->
      Engine.delay 5;
      times := Engine.now t :: !times;
      Engine.delay 7;
      times := Engine.now t :: !times);
  Engine.run t;
  Alcotest.(check (list int)) "cumulative" [ 5; 12 ] (List.rev !times)

let test_engine_until () =
  let t = Engine.create () in
  let fired = ref false in
  Engine.spawn t (fun () ->
      Engine.delay 100;
      fired := true);
  Engine.run ~until:50 t;
  check_bool "not yet" false !fired;
  check "clock at limit" 50 (Engine.now t);
  Engine.run t;
  check_bool "fires later" true !fired

let test_engine_suspend_resume () =
  let t = Engine.create () in
  let resume_cell = ref None in
  let state = ref "init" in
  Engine.spawn t (fun () ->
      Engine.suspend (fun resume -> resume_cell := Some resume);
      state := "resumed");
  Engine.spawn t (fun () ->
      Engine.delay 40;
      match !resume_cell with Some r -> r () | None -> Alcotest.fail "no cell");
  Engine.run t;
  Alcotest.(check string) "resumed" "resumed" !state;
  check "resumed at waker's time" 40 (Engine.now t)

let test_engine_double_resume_harmless () =
  let t = Engine.create () in
  let hits = ref 0 in
  Engine.spawn t (fun () ->
      Engine.suspend (fun resume ->
          resume ();
          resume ());
      incr hits);
  Engine.run t;
  check "continued once" 1 !hits

let test_engine_spawn_at () =
  let t = Engine.create () in
  let at = ref (-1) in
  Engine.spawn_at t 25 (fun () -> at := Engine.now t);
  Engine.run t;
  check "starts at 25" 25 !at;
  Alcotest.check_raises "past spawn rejected"
    (Invalid_argument "Engine.spawn_at: time is in the past") (fun () ->
      Engine.spawn_at t 1 (fun () -> ()))

let test_engine_failure_propagates () =
  let t = Engine.create () in
  Engine.spawn ~name:"boom" t (fun () -> failwith "bang");
  match Engine.run t with
  | () -> Alcotest.fail "expected Process_failure"
  | exception Engine.Process_failure (name, Failure msg) ->
      Alcotest.(check string) "name" "boom" name;
      Alcotest.(check string) "msg" "bang" msg
  | exception e -> raise e

let test_engine_live_processes () =
  let t = Engine.create () in
  Engine.spawn t (fun () -> Engine.delay 10);
  Engine.spawn t (fun () -> Engine.suspend (fun _resume -> ()));
  check "two live before run" 2 (Engine.live_processes t);
  Engine.run t;
  (* The suspended process never resumes and stays live. *)
  check "one parked forever" 1 (Engine.live_processes t);
  check_bool "steps counted" true (Engine.steps t > 0)

let test_engine_yield_interleave () =
  let t = Engine.create () in
  let log = ref [] in
  Engine.spawn t (fun () ->
      log := "a1" :: !log;
      Engine.yield ();
      log := "a2" :: !log);
  Engine.spawn t (fun () ->
      log := "b1" :: !log;
      Engine.yield ();
      log := "b2" :: !log);
  Engine.run t;
  Alcotest.(check (list string))
    "interleaved" [ "a1"; "b1"; "a2"; "b2" ] (List.rev !log)

let test_engine_until_then_resume () =
  let t = Engine.create () in
  let log = ref [] in
  Engine.spawn t (fun () ->
      Engine.delay 10;
      log := "a" :: !log;
      Engine.delay 100;
      log := "b" :: !log);
  Engine.run ~until:50 t;
  Alcotest.(check (list string)) "first half" [ "a" ] (List.rev !log);
  Engine.run ~until:200 t;
  Alcotest.(check (list string)) "second half" [ "a"; "b" ] (List.rev !log)

(* --- Sync --- *)

let test_condvar_fifo () =
  let t = Engine.create () in
  let cv = Sync.Condvar.create () in
  let log = ref [] in
  for i = 1 to 3 do
    Engine.spawn t (fun () ->
        Sync.Condvar.wait cv;
        log := i :: !log)
  done;
  Engine.spawn t (fun () ->
      Engine.delay 5;
      Sync.Condvar.signal cv;
      Engine.delay 5;
      Sync.Condvar.broadcast cv);
  Engine.run t;
  Alcotest.(check (list int)) "fifo wakeup" [ 1; 2; 3 ] (List.rev !log)

let test_semaphore_counting () =
  let t = Engine.create () in
  let sem = Sync.Semaphore.create 2 in
  let active = ref 0 and peak = ref 0 in
  for _ = 1 to 5 do
    Engine.spawn t (fun () ->
        Sync.Semaphore.acquire sem;
        incr active;
        if !active > !peak then peak := !active;
        Engine.delay 10;
        decr active;
        Sync.Semaphore.release sem)
  done;
  Engine.run t;
  check "peak limited by semaphore" 2 !peak;
  check "value restored" 2 (Sync.Semaphore.value sem)

let test_semaphore_try () =
  let sem = Sync.Semaphore.create 1 in
  check_bool "first try" true (Sync.Semaphore.try_acquire sem);
  check_bool "second try" false (Sync.Semaphore.try_acquire sem)

let test_mailbox () =
  let t = Engine.create () in
  let mb = Sync.Mailbox.create () in
  let got = ref [] in
  Engine.spawn t (fun () ->
      for _ = 1 to 3 do
        got := Sync.Mailbox.take mb :: !got
      done);
  Engine.spawn t (fun () ->
      Engine.delay 5;
      Sync.Mailbox.put mb 1;
      Sync.Mailbox.put mb 2;
      Engine.delay 5;
      Sync.Mailbox.put mb 3);
  Engine.run t;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got);
  check_bool "empty try_take" true (Sync.Mailbox.try_take mb = None)

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  check_bool "different streams" true (Prng.next_int64 a <> Prng.next_int64 b)

let test_prng_int_range () =
  let p = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int p 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done;
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int p 0))

let test_prng_exponential_mean () =
  let p = Prng.create ~seed:11 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    let x = Prng.exponential p ~mean:5.0 in
    check_bool "nonneg" true (x >= 0.);
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean near 5" true (Float.abs (mean -. 5.0) < 0.25)

let test_prng_split_independent () =
  let a = Prng.create ~seed:3 in
  let b = Prng.split a in
  check_bool "split differs from parent" true
    (Prng.next_int64 a <> Prng.next_int64 b)

let () =
  Alcotest.run "sim"
    [
      ( "vtime",
        [
          Alcotest.test_case "units" `Quick test_vtime_units;
          Alcotest.test_case "arith" `Quick test_vtime_arith;
          Alcotest.test_case "pp" `Quick test_vtime_pp;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          Alcotest.test_case "grow" `Quick test_heap_grow;
          QCheck_alcotest.to_alcotest heap_sorted_prop;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delay order" `Quick test_engine_delay_order;
          Alcotest.test_case "fifo same time" `Quick test_engine_fifo_same_time;
          Alcotest.test_case "nested delay" `Quick test_engine_nested_delay;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "suspend/resume" `Quick test_engine_suspend_resume;
          Alcotest.test_case "double resume" `Quick
            test_engine_double_resume_harmless;
          Alcotest.test_case "spawn_at" `Quick test_engine_spawn_at;
          Alcotest.test_case "failure propagates" `Quick
            test_engine_failure_propagates;
          Alcotest.test_case "live processes" `Quick test_engine_live_processes;
          Alcotest.test_case "yield interleave" `Quick
            test_engine_yield_interleave;
          Alcotest.test_case "until then resume" `Quick
            test_engine_until_then_resume;
        ] );
      ( "sync",
        [
          Alcotest.test_case "condvar fifo" `Quick test_condvar_fifo;
          Alcotest.test_case "semaphore counting" `Quick test_semaphore_counting;
          Alcotest.test_case "semaphore try" `Quick test_semaphore_try;
          Alcotest.test_case "mailbox" `Quick test_mailbox;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "exponential mean" `Quick
            test_prng_exponential_mean;
          Alcotest.test_case "split independent" `Quick
            test_prng_split_independent;
        ] );
    ]
