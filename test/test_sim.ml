(* Tests for the deterministic simulation substrate: RNG, distributions,
   heap, event engine, skewed clocks. *)

open Sim

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" false (Rng.int64 a = Rng.int64 b)

let test_rng_int_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of range"
  done

let test_rng_int_rejects_nonpositive () =
  let r = Rng.create 7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_bounds () =
  let r = Rng.create 9 in
  for _ = 1 to 10_000 do
    let v = Rng.float r 3.5 in
    if v < 0. || v >= 3.5 then Alcotest.fail "out of range"
  done

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  (* After splitting, drawing from b must not change a's future stream. *)
  let a' = Rng.create 5 in
  let _ = Rng.split a' in
  ignore (Rng.int64 b);
  Alcotest.(check int64) "parent unaffected" (Rng.int64 a') (Rng.int64 a)

let test_rng_uniformity () =
  let r = Rng.create 11 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int r 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      if abs (c - expected) > expected / 10 then
        Alcotest.failf "bucket count %d too far from %d" c expected)
    buckets

let test_shuffle_permutation () =
  let r = Rng.create 3 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_zipf_uniform_when_theta_zero () =
  let z = Dist.zipf ~n:100 ~theta:0. in
  let p0 = Dist.zipf_pmf z 0 and p99 = Dist.zipf_pmf z 99 in
  Alcotest.(check (float 1e-9)) "uniform pmf" p0 p99

let test_zipf_skew () =
  let z = Dist.zipf ~n:1000 ~theta:0.9 in
  let p0 = Dist.zipf_pmf z 0 and p999 = Dist.zipf_pmf z 999 in
  Alcotest.(check bool) "hot key much hotter" true (p0 > 100. *. p999)

let test_zipf_sample_range () =
  let z = Dist.zipf ~n:50 ~theta:0.9 in
  let r = Rng.create 13 in
  for _ = 1 to 10_000 do
    let i = Dist.zipf_sample z r in
    if i < 0 || i >= 50 then Alcotest.fail "sample out of range"
  done

let test_zipf_sample_matches_pmf () =
  let z = Dist.zipf ~n:10 ~theta:0.9 in
  let r = Rng.create 17 in
  let counts = Array.make 10 0 in
  let n = 200_000 in
  for _ = 1 to n do
    let i = Dist.zipf_sample z r in
    counts.(i) <- counts.(i) + 1
  done;
  for i = 0 to 9 do
    let expected = Dist.zipf_pmf z i *. float_of_int n in
    let got = float_of_int counts.(i) in
    if abs_float (got -. expected) > 0.05 *. expected +. 30. then
      Alcotest.failf "item %d: got %f expected %f" i got expected
  done

(* The runners build one sampler per run and share it across clients.
   That is only sound if the sampler holds no draw state: k clients
   drawing in turn through one sampler must each get exactly the
   sequence a sampler of their own gives them. *)
let test_zipf_shared_sampler () =
  let k = 8 and draws = 500 in
  let make () = Dist.zipf ~n:1000 ~theta:0.9 in
  let rngs () = Array.init k (fun i -> Rng.create (100 + i)) in
  let shared = make () and a = rngs () in
  let via_shared = Array.make k [] in
  for _ = 1 to draws do
    Array.iteri
      (fun i r -> via_shared.(i) <- Dist.zipf_sample shared r :: via_shared.(i))
      a
  done;
  Array.iteri
    (fun i r ->
      let own = make () in
      let via_own = List.init draws (fun _ -> Dist.zipf_sample own r) in
      Alcotest.(check (list int))
        (Printf.sprintf "client %d" i) via_own (List.rev via_shared.(i)))
    (rngs ())

let test_zipf_invalid_args () =
  Alcotest.check_raises "n=0" (Invalid_argument "Dist.zipf: n must be positive")
    (fun () -> ignore (Dist.zipf ~n:0 ~theta:0.9));
  Alcotest.check_raises "theta<0"
    (Invalid_argument "Dist.zipf: theta must be non-negative") (fun () ->
      ignore (Dist.zipf ~n:10 ~theta:(-1.)))

(* [(time, key, value)] of the minimum, removed; [None] when empty. *)
let heap_pop h =
  if Heap.is_empty h then None
  else
    let time = Heap.min_time h and key = Heap.min_key h in
    Some (time, key, Heap.pop_min h)

let test_heap_orders_by_time () =
  let h = Heap.create ~dummy:"" in
  Heap.push h ~time:30 ~key:0 "c";
  Heap.push h ~time:10 ~key:1 "a";
  Heap.push h ~time:20 ~key:2 "b";
  let pop () = match heap_pop h with Some (_, _, v) -> v | None -> "?" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ first; second; third ]

let test_heap_fifo_within_same_time () =
  let h = Heap.create ~dummy:(-1) in
  for i = 0 to 9 do
    Heap.push h ~time:5 ~key:i i
  done;
  let out = ref [] in
  let rec drain () =
    match heap_pop h with
    | Some (_, _, v) ->
      out := v :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !out)

let test_heap_random_stress () =
  let h = Heap.create ~dummy:() in
  let r = Rng.create 99 in
  let n = 5_000 in
  for i = 0 to n - 1 do
    Heap.push h ~time:(Rng.int r 1000) ~key:i ()
  done;
  Alcotest.(check int) "length" n (Heap.length h);
  let prev = ref min_int in
  for _ = 1 to n do
    match heap_pop h with
    | Some (t, _, ()) ->
      if t < !prev then Alcotest.fail "heap order violated";
      prev := t
    | None -> Alcotest.fail "heap drained early"
  done;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_engine_runs_in_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~after:20 (fun () -> log := "b" :: !log));
  ignore (Engine.schedule e ~after:10 (fun () -> log := "a" :: !log));
  ignore (Engine.schedule e ~after:30 (fun () -> log := "c" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "clock" 30 (Engine.now e)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let hits = ref 0 in
  ignore
    (Engine.schedule e ~after:5 (fun () ->
         incr hits;
         ignore (Engine.schedule e ~after:5 (fun () -> incr hits))));
  Engine.run e;
  Alcotest.(check int) "both fired" 2 !hits;
  Alcotest.(check int) "clock" 10 (Engine.now e)

let test_engine_cancel () =
  let e = Engine.create () in
  let hit = ref false in
  let tm = Engine.schedule e ~after:5 (fun () -> hit := true) in
  Engine.cancel tm;
  Engine.run e;
  Alcotest.(check bool) "not fired" false !hit

let test_engine_pending_counts_cancelled () =
  let e = Engine.create () in
  let t1 = Engine.schedule e ~after:5 (fun () -> ()) in
  let _t2 = Engine.schedule e ~after:10 (fun () -> ()) in
  Alcotest.(check int) "two queued" 2 (Engine.pending e);
  Alcotest.(check int) "two raw" 2 (Engine.raw_pending e);
  Engine.cancel t1;
  (* [pending] reports live events: the cancelled one drops out
     immediately even though its slot stays queued as a ghost until
     drained — [raw_pending] still sees it. *)
  Alcotest.(check int) "one live after cancel" 1 (Engine.pending e);
  Alcotest.(check int) "ghost still queued" 2 (Engine.raw_pending e);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e);
  Alcotest.(check int) "raw drained" 0 (Engine.raw_pending e)

let test_engine_cancel_idempotent () =
  let e = Engine.create () in
  let hit = ref 0 in
  let t = Engine.schedule e ~after:5 (fun () -> incr hit) in
  Engine.cancel t;
  Engine.cancel t;
  Engine.run e;
  Alcotest.(check int) "double-cancel still cancelled" 0 !hit

let test_engine_cancel_after_fire () =
  let e = Engine.create () in
  let hit = ref 0 in
  let t = Engine.schedule e ~after:5 (fun () -> incr hit) in
  Engine.run e;
  Alcotest.(check int) "fired" 1 !hit;
  (* Cancelling a fired timer must be a harmless no-op... *)
  Engine.cancel t;
  (* ...and must not disturb later events. *)
  ignore (Engine.schedule e ~after:5 (fun () -> incr hit));
  Engine.run e;
  Alcotest.(check int) "later event unaffected" 2 !hit

let test_engine_cancel_interleaved () =
  (* Cancel every other one of a batch at the same instant; survivors
     fire in scheduling order. *)
  let e = Engine.create () in
  let log = ref [] in
  let timers =
    List.init 6 (fun i -> (i, Engine.schedule e ~after:9 (fun () -> log := i :: !log)))
  in
  List.iter (fun (i, t) -> if i mod 2 = 1 then Engine.cancel t) timers;
  Engine.run e;
  Alcotest.(check (list int)) "even survivors in order" [ 0; 2; 4 ] (List.rev !log);
  Alcotest.(check int) "queue drained" 0 (Engine.pending e)

let test_engine_run_until () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~after:10 (fun () -> log := 10 :: !log));
  ignore (Engine.schedule e ~after:20 (fun () -> log := 20 :: !log));
  Engine.run_until e ~limit:15;
  Alcotest.(check (list int)) "only first" [ 10 ] !log;
  Alcotest.(check int) "clock at limit" 15 (Engine.now e);
  Engine.run_until e ~limit:25;
  Alcotest.(check (list int)) "second fired" [ 20; 10 ] !log

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 4 do
    ignore (Engine.schedule e ~after:7 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "scheduling order" [ 0; 1; 2; 3; 4 ] (List.rev !log)

let test_engine_negative_delay_clamped () =
  let e = Engine.create () in
  let hit = ref false in
  ignore (Engine.schedule e ~after:(-5) (fun () -> hit := true));
  Engine.run e;
  Alcotest.(check bool) "fired" true !hit;
  Alcotest.(check int) "clock unchanged" 0 (Engine.now e)

let test_clock_skew_bounds () =
  let e = Engine.create () in
  let r = Rng.create 21 in
  for _ = 1 to 200 do
    let c = Clock.create e r ~max_skew:500 in
    let s = Clock.skew c in
    if s < -500 || s > 500 then Alcotest.fail "skew out of bounds"
  done

let test_clock_tracks_engine () =
  let e = Engine.create () in
  let c = Clock.perfect e in
  ignore (Engine.schedule e ~after:123 (fun () -> ()));
  Engine.run e;
  Alcotest.(check int) "tracks" 123 (Clock.read c)

let test_clock_never_negative () =
  let e = Engine.create () in
  let r = Rng.create 2 in
  let rec find_negative n =
    if n = 0 then None
    else
      let c = Clock.create e r ~max_skew:1000 in
      if Clock.skew c < 0 then Some c else find_negative (n - 1)
  in
  match find_negative 100 with
  | None -> ()
  | Some c -> Alcotest.(check int) "clamped" 0 (Clock.read c)

(* Property-based tests. *)

let qcheck_heap_sorted =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let h = Heap.create ~dummy:() in
      List.iteri (fun i t -> Heap.push h ~time:t ~key:i ()) times;
      let rec drain acc =
        match heap_pop h with Some (t, _, ()) -> drain (t :: acc) | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare times)

(* Differential: pushes and pops interleaved over few distinct times
   (so ties are common) against a sorted-list reference.  Keys are
   unique but not in push order, so ties resolve by key, not by
   arrival. *)
let qcheck_heap_differential =
  QCheck.Test.make ~name:"heap matches sorted reference" ~count:300
    QCheck.(
      list_of_size Gen.(0 -- 400) (pair bool (pair (int_bound 7) (int_bound 7))))
    (fun ops ->
      let h = Heap.create ~dummy:(-1) in
      let reference = ref [] in
      let ok = ref true in
      List.iteri
        (fun i (is_push, (time, k)) ->
          if is_push then begin
            let key = (k lsl 12) lor i in
            Heap.push h ~time ~key i;
            reference := List.merge compare [ (time, key, i) ] !reference
          end
          else
            match (heap_pop h, !reference) with
            | None, [] -> ()
            | Some got, want :: rest ->
              if got <> want then ok := false;
              reference := rest
            | Some _, [] | None, _ :: _ -> ok := false;
          if Heap.length h <> List.length !reference then ok := false)
        ops;
      let rec drain () =
        match heap_pop h with
        | Some x -> x :: drain ()
        | None -> []
      in
      !ok && drain () = !reference)

(* Differential: the engine against a reference queue kept as a plain
   list and scanned for its (time, seq) minimum.  Handle-free posts,
   cancellable schedules, steps and cancels are interleaved over a few
   distinct instants; the firing order and every engine counter must
   match. *)
type ref_event = {
  r_time : int;
  r_seq : int;
  r_kind : int;
  mutable r_state : [ `Live | `Cancelled | `Fired ];
}

let qcheck_engine_differential =
  let kind_of = function
    | 0 -> Engine.Timer
    | 1 -> Engine.Delivery
    | _ -> Engine.Ticker
  in
  QCheck.Test.make ~name:"engine matches reference queue" ~count:300
    QCheck.(
      list_of_size Gen.(0 -- 300) (pair (int_bound 4) (pair (int_bound 5) (int_bound 2))))
    (fun ops ->
      let e = Engine.create () in
      let fired = ref [] and want = ref [] in
      let queue = ref [] and handles = ref [||] in
      let clock = ref 0 and seq = ref 0 in
      let by_kind = Array.make 3 0 in
      let pops = ref 0 and cancels = ref 0 and ghosts = ref 0 in
      let live = ref 0 and max_live = ref 0 and max_raw = ref 0 in
      let push at kind =
        let ev =
          { r_time = max at !clock; r_seq = !seq; r_kind = kind; r_state = `Live }
        in
        incr seq;
        queue := ev :: !queue;
        incr live;
        max_live := max !max_live !live;
        max_raw := max !max_raw (List.length !queue);
        (ev, fun () -> fired := (ev.r_seq, Engine.now e) :: !fired)
      in
      let ref_step () =
        match !queue with
        | [] -> ()
        | first :: _ ->
          let m =
            List.fold_left
              (fun m ev -> if (ev.r_time, ev.r_seq) < (m.r_time, m.r_seq) then ev else m)
              first !queue
          in
          queue := List.filter (fun ev -> ev != m) !queue;
          clock := max !clock m.r_time;
          incr pops;
          if m.r_state = `Cancelled then incr ghosts
          else begin
            m.r_state <- `Fired;
            decr live;
            by_kind.(m.r_kind) <- by_kind.(m.r_kind) + 1;
            want := (m.r_seq, !clock) :: !want
          end
      in
      let ok = ref true in
      List.iter
        (fun (op, (dt, k)) ->
          (match op with
          | 0 ->
            let _, f = push (Engine.now e + dt) k in
            Engine.post e ~kind:(kind_of k) ~after:dt f
          | 1 ->
            let ev, f = push (Engine.now e + dt) k in
            let h = Engine.schedule_at e ~kind:(kind_of k) ~at:(Engine.now e + dt) f in
            handles := Array.append !handles [| (ev, h) |]
          | 2 | 3 ->
            ref_step ();
            ignore (Engine.step e)
          | _ ->
            let n = Array.length !handles in
            if n > 0 then begin
              let ev, h = !handles.((dt * 7 + k) mod n) in
              if ev.r_state = `Live then begin
                ev.r_state <- `Cancelled;
                incr cancels;
                decr live
              end;
              Engine.cancel h
            end);
          if Engine.pending e <> !live || Engine.raw_pending e <> List.length !queue
          then ok := false)
        ops;
      Engine.run e;
      while !queue <> [] do
        ref_step ()
      done;
      let kc = Engine.events_by_kind e and hs = Engine.heap_stats e in
      !ok
      && List.rev !fired = List.rev !want
      && kc.Engine.k_timer = by_kind.(0)
      && kc.k_delivery = by_kind.(1)
      && kc.k_ticker = by_kind.(2)
      && hs.Engine.hs_pushes = !seq
      && hs.hs_pops = !pops
      && hs.hs_cancels = !cancels
      && hs.hs_ghost_drains = !ghosts
      && hs.hs_live = 0
      && hs.hs_max_live = !max_live
      && hs.hs_max_raw = !max_raw)

let qcheck_engine_clock_monotone =
  QCheck.Test.make ~name:"engine clock monotone under random scheduling" ~count:100
    QCheck.(list (pair (int_bound 1000) (int_bound 1000)))
    (fun events ->
      let e = Engine.create () in
      let ok = ref true in
      let last = ref 0 in
      List.iter
        (fun (d1, d2) ->
          ignore
            (Engine.schedule e ~after:d1 (fun () ->
                 if Engine.now e < !last then ok := false;
                 last := Engine.now e;
                 ignore (Engine.schedule e ~after:d2 (fun () ->
                     if Engine.now e < !last then ok := false;
                     last := Engine.now e)))))
        events;
      Engine.run e;
      !ok)

let qcheck_zipf_pmf_sums_to_one =
  QCheck.Test.make ~name:"zipf pmf sums to 1" ~count:50
    QCheck.(pair (int_range 1 500) (float_bound_inclusive 1.2))
    (fun (n, theta) ->
      let z = Dist.zipf ~n ~theta in
      let sum = ref 0. in
      for i = 0 to n - 1 do
        sum := !sum +. Dist.zipf_pmf z i
      done;
      abs_float (!sum -. 1.) < 1e-6)

let qcheck_rng_int_in_range =
  QCheck.Test.make ~name:"rng int in range" ~count:1000
    QCheck.(pair int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let suites =
  [
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "int rejects non-positive" `Quick test_rng_int_rejects_nonpositive;
        Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "uniformity" `Slow test_rng_uniformity;
        Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
        QCheck_alcotest.to_alcotest qcheck_rng_int_in_range;
      ] );
    ( "sim.dist",
      [
        Alcotest.test_case "zipf theta=0 uniform" `Quick test_zipf_uniform_when_theta_zero;
        Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
        Alcotest.test_case "zipf sample range" `Quick test_zipf_sample_range;
        Alcotest.test_case "zipf sample matches pmf" `Slow test_zipf_sample_matches_pmf;
        Alcotest.test_case "zipf shared sampler" `Quick test_zipf_shared_sampler;
        Alcotest.test_case "zipf invalid args" `Quick test_zipf_invalid_args;
        QCheck_alcotest.to_alcotest qcheck_zipf_pmf_sums_to_one;
      ] );
    ( "sim.heap",
      [
        Alcotest.test_case "orders by time" `Quick test_heap_orders_by_time;
        Alcotest.test_case "fifo within same time" `Quick test_heap_fifo_within_same_time;
        Alcotest.test_case "random stress" `Quick test_heap_random_stress;
        QCheck_alcotest.to_alcotest qcheck_heap_sorted;
        QCheck_alcotest.to_alcotest qcheck_heap_differential;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "time order" `Quick test_engine_runs_in_time_order;
        Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
        Alcotest.test_case "cancel" `Quick test_engine_cancel;
        Alcotest.test_case "pending counts cancelled" `Quick
          test_engine_pending_counts_cancelled;
        Alcotest.test_case "cancel idempotent" `Quick test_engine_cancel_idempotent;
        Alcotest.test_case "cancel after fire" `Quick test_engine_cancel_after_fire;
        Alcotest.test_case "cancel interleaved" `Quick test_engine_cancel_interleaved;
        Alcotest.test_case "run_until" `Quick test_engine_run_until;
        Alcotest.test_case "same-time fifo" `Quick test_engine_same_time_fifo;
        Alcotest.test_case "negative delay clamped" `Quick test_engine_negative_delay_clamped;
        QCheck_alcotest.to_alcotest qcheck_engine_clock_monotone;
        QCheck_alcotest.to_alcotest qcheck_engine_differential;
      ] );
    ( "sim.clock",
      [
        Alcotest.test_case "skew bounds" `Quick test_clock_skew_bounds;
        Alcotest.test_case "tracks engine" `Quick test_clock_tracks_engine;
        Alcotest.test_case "never negative" `Quick test_clock_never_negative;
      ] );
  ]
