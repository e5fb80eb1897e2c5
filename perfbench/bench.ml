(* The repository benchmark: host time and simulated results of whole
   experiment runs, measured from outside the program through public
   functions only.

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]

   One process runs one workload, one simulation at a time.  A workload
   is a fixed experiment point run on one or more stacks (systems); a
   "rep" runs every stack of the workload once, on a seed derived from
   [--seed] and the rep index.  The number of reps is a fixed function
   of [--seconds] and the workload's nominal rep cost, never of elapsed
   time, so every simulated figure is a pure function of the seed and
   [--seconds].

   [--trace 0] prints the end-to-end metrics: host seconds split at the
   [?faults] callback of [Harness.Run.run_exp] (fired after cluster
   setup, immediately before the engine runs), CPU seconds, peak heap,
   and the simulated goodput and commit latency.  [--trace 1] prints
   the per-layer metrics from a separate set of legs on rep 0's seed:
   setup-layer probes, GC and engine counters, a bare-engine probe,
   per-event host time from an engine observer, protocol counters
   (per-stack abort rates among them), observer overheads and the audit
   cost.

   Both modes audit every stack's history with [Explore.Audit.check]
   and require the deterministic digest of the audited run to equal
   that of the timed (and traced) runs on the same seed.  Any violation
   or mismatch prints [correct: false], counts every operation as
   failed and exits 1.  The last stdout line is the JSON result. *)

module Run = Harness.Run
module Stats = Harness.Stats

type workload = {
  w_name : string;
  w_systems : Run.system list;
  w_load : Run.workload;
  w_clients : int;
  w_cores : int;
  w_warmup_us : int;
  w_measure_us : int;
  w_rep_s : float;
      (* nominal host seconds of one rep (all stacks, 2-core x86 host);
         sizes the rep count from --seconds *)
}

(* Why these three: retwis-large is setup-heavy (a 100k-key working set
   loaded into every replica, one Zipf sampler per client), tpcc is
   simulation-heavy (long multi-key transactions, many messages per
   commit), and ycsb-hot bypasses the setup layers (1k keys) so its host
   time goes to the contention paths of all four stacks. *)
let workloads =
  [
    {
      w_name = "retwis-large";
      w_systems = [ Run.Morty ];
      w_load = Run.Retwis { Workload.Retwis.n_keys = 100_000; theta = 0.9 };
      w_clients = 64;
      w_cores = 4;
      w_warmup_us = 300_000;
      w_measure_us = 1_000_000;
      w_rep_s = 1.6;
    };
    {
      w_name = "tpcc";
      w_systems = [ Run.Morty ];
      w_load = Run.Tpcc (Workload.Tpcc.conf_with_warehouses 10);
      w_clients = 128;
      w_cores = 4;
      w_warmup_us = 300_000;
      w_measure_us = 1_000_000;
      w_rep_s = 1.3;
    };
    (* The run-ledger point's keys, skew, clients and cores, with a 10 s
       window instead of the ledger's 0.3 s, so that every stack's window
       holds enough commits for a tail percentile. *)
    {
      w_name = "ycsb-hot";
      w_systems = Run.all_systems;
      w_load =
        Run.Ycsb { Workload.Ycsb.default_conf with n_keys = 1_000; theta = 1.2 };
      w_clients = 48;
      w_cores = 2;
      w_warmup_us = 100_000;
      w_measure_us = 10_000_000;
      w_rep_s = 0.75;
    };
  ]

let rep_seed seed k = (seed * 1000) + k

let exp w sys seed =
  {
    Run.default_exp with
    e_system = sys;
    e_workload = w.w_load;
    e_clients = w.w_clients;
    e_cores = w.w_cores;
    e_warmup_us = w.w_warmup_us;
    e_measure_us = w.w_measure_us;
    e_seed = seed;
    e_label = Printf.sprintf "%s/%s/s%d" w.w_name (Run.system_name sys) seed;
  }

(* --- Timing one leg ------------------------------------------------------- *)

type timing = {
  t_setup_s : float;
  t_sim_s : float;
  t_cpu_s : float;
  t_minor_mw : float;
  t_major_mw : float;
  t_major_gcs : int;
}

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let ns_s a b = Obs.Mclock.ns_to_s (b - a)

(* Run [f ~faults] and split its host time at the [?faults] callback;
   [on_setup] runs inside the callback (the traced leg installs its
   engine observer there). *)
let timed ?(on_setup = fun _ -> ()) f =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let c0 = cpu_now () in
  let t0 = Obs.Mclock.now_ns () in
  let t_mid = ref t0 in
  let faults ops =
    t_mid := Obs.Mclock.now_ns ();
    on_setup ops
  in
  let x = f ~faults in
  let t1 = Obs.Mclock.now_ns () in
  let c1 = cpu_now () in
  let g1 = Gc.quick_stat () in
  ( x,
    {
      t_setup_s = ns_s t0 !t_mid;
      t_sim_s = ns_s !t_mid t1;
      t_cpu_s = c1 -. c0;
      t_minor_mw = (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6;
      t_major_mw = (g1.Gc.major_words -. g0.Gc.major_words) /. 1e6;
      t_major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

let run_s t = t.t_setup_s +. t.t_sim_s

let stopwatch f =
  let t0 = Obs.Mclock.now_ns () in
  let x = f () in
  (x, ns_s t0 (Obs.Mclock.now_ns ()))

(* The deterministic digest of one stack's run: commits, aborts, latency
   percentiles (bit-exact), event and timer-heap counters. *)
let digest (r : Stats.result) =
  Printf.sprintf "c=%d a=%d p50=%h p99=%h %s" r.Stats.r_committed
    r.Stats.r_aborted r.Stats.r_p50_latency_ms r.Stats.r_p99_latency_ms
    (Obs.Engstat.det_line r.Stats.r_engstat)

(* --- Statistics ---------------------------------------------------------- *)

let median l = Obs.Bstats.median (Array.of_list l)

let mean l =
  match l with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let sum_f f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let sum_i f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* --- Output -------------------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string; m_samples : int }

let m m_name m_unit m_samples m_value = { m_name; m_value; m_unit; m_samples }

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun x ->
      Printf.printf "%-28s %18.6f %-10s n=%d\n" x.m_name x.m_value x.m_unit
        x.m_samples)
    metrics;
  let body =
    String.concat ","
      (List.map
         (fun x ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" x.m_name
             (json_num x.m_value) x.m_unit)
         metrics)
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed body

(* --- Correctness --------------------------------------------------------- *)

let mismatch what ~expect r =
  if digest r = expect then None
  else Some (Printf.sprintf "%s run digest %s vs %s" what (digest r) expect)

(* Audit one stack on [seed]: the audited run's result, the check's host
   seconds, the history length and the violation found, if any. *)
let audit w sys seed =
  let r, txns = Run.run_exp_audited (exp w sys seed) in
  let verdict, check_s =
    stopwatch (fun () -> Explore.Audit.check ~expect_progress:true txns r)
  in
  ( r,
    check_s,
    List.length txns,
    match verdict with
    | Ok () -> None
    | Error v -> Some (Explore.Audit.violation_to_string v) )

let report_problems w problems =
  List.iter
    (fun (sys, p) ->
      Printf.eprintf "perfbench: %s/%s: %s\n%!" w.w_name (Run.system_name sys) p)
    problems

(* --- End-to-end run (--trace 0) ------------------------------------------ *)

(* Tail latency of one stack's window, ms.  With at least 1000 commits
   it is the runner's p99.  Below that, p99 has fewer than 10 samples
   beyond it, so the highest percentile that still has 10 is taken
   instead, exactly, from the per-commit latencies an [Obs.Profile]
   records on an untimed rerun of the same seed (whose digest must
   match the timed run's). *)
let tail_ms w sys seed (r : Stats.result) =
  if r.Stats.r_committed >= 1000 then Ok r.Stats.r_p99_latency_ms
  else
    let prof = Obs.Profile.create () in
    let r' = Run.run_exp ~prof (exp w sys seed) in
    let lat = Array.of_list (List.map fst (Obs.Profile.txn_records prof)) in
    Array.sort compare lat;
    let n = Array.length lat in
    match mismatch "profiled" ~expect:(digest r) r' with
    | Some e -> Error e
    | None ->
    if n <> r.Stats.r_committed then
      Error (Printf.sprintf "profile holds %d commits, window %d" n r.Stats.r_committed)
    else if n <= 10 then Ok r.Stats.r_p50_latency_ms
    else Ok (float_of_int lat.(n - 11) /. 1000.)

let end_to_end w ~seed ~reps =
  let runs =
    List.init reps (fun k ->
        List.map
          (fun sys ->
            let seed = rep_seed seed k in
            let r, t =
              timed (fun ~faults -> Run.run_exp ~faults (exp w sys seed))
            in
            Printf.eprintf "rep %d %s seed %d: setup_s=%.4f sim_s=%.4f cpu_s=%.4f commits=%d aborts=%d\n%!"
              k (Run.system_name sys) seed t.t_setup_s t.t_sim_s t.t_cpu_s
              r.Stats.r_committed r.Stats.r_aborted;
            (sys, seed, r, t))
          w.w_systems)
  in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  let per_rep f = List.map (sum_f (fun (_, _, _, t) -> f t)) runs in
  let legs = List.concat runs in
  let results = List.map (fun (_, _, r, _) -> r) legs in
  let committed = sum_i (fun r -> r.Stats.r_committed) results in
  let window_s = float_of_int (reps * w.w_measure_us) /. 1e6 in
  let tails = List.map (fun (sys, seed, r, _) -> (sys, tail_ms w sys seed r)) legs in
  let problems =
    List.filter_map
      (function sys, Error e -> Some (sys, e) | _, Ok _ -> None)
      tails
    @ List.concat_map
        (fun (sys, seed, r, _) ->
          let ra, _, _, violation = audit w sys seed in
          List.map
            (fun p -> (sys, p))
            (Option.to_list violation
            @ Option.to_list (mismatch "audited" ~expect:(digest r) ra)))
        (List.hd runs)
  in
  report_problems w problems;
  let metrics =
    [
      m "run_s" "s" reps (median (per_rep run_s));
      m "setup_s" "s" reps (median (per_rep (fun t -> t.t_setup_s)));
      m "sim_s" "s" reps (median (per_rep (fun t -> t.t_sim_s)));
      m "cpu_s" "s" reps (median (per_rep (fun t -> t.t_cpu_s)));
      m "peak_heap_mb" "MB" 1 peak_heap_mb;
      m "goodput_tps" "txn/s" committed (float_of_int committed /. window_s);
      m "commit_p50_ms" "ms" committed
        (mean (List.map (fun r -> r.Stats.r_p50_latency_ms) results));
      m "commit_p99_ms" "ms" committed
        (mean (List.map (function _, Ok v -> v | _, Error _ -> 0.) tails));
    ]
  in
  (problems = [], committed, metrics)

(* --- Per-layer run (--trace 1) ------------------------------------------- *)

(* Rounds of the setup probes; medians are reported. *)
let probe_rounds = 3

(* Spans of a traced leg, kept in memory: one packed int per fired
   event, [(ns since the simulation started) lsl 2 lor kind]. *)
module Spans = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 65536 0; n = 0 }

  let code = function
    | Sim.Engine.Timer -> 0
    | Sim.Engine.Delivery -> 1
    | Sim.Engine.Ticker -> 2

  let name = function 0 -> "timer" | 1 -> "delivery" | _ -> "ticker"

  let push t ns kind =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- (ns lsl 2) lor code kind;
    t.n <- t.n + 1

  let start t i = t.a.(i) lsr 2
  let kind t i = t.a.(i) land 3

  (* Host ns of each event of kind [c]: from its dispatch to the next
     dispatch (or to [end_ns] for the last one). *)
  let durations t ~end_ns c =
    let out = ref [] in
    for i = 0 to t.n - 1 do
      if kind t i = c then begin
        let stop = if i + 1 < t.n then start t (i + 1) else end_ns in
        out := float_of_int (stop - start t i) :: !out
      end
    done;
    Array.of_list !out
end

type traced = {
  tr_sys : Run.system;
  tr_setup_ns : int;
  tr_sim_ns : int;
  tr_spans : Spans.t;  (* event dispatches, ns since the sim start *)
}

let traced_leg w sys seed =
  let spans = Spans.create () in
  let sim0 = ref 0 in
  let on_setup (ops : Run.cluster_ops) =
    sim0 := Obs.Mclock.now_ns ();
    Sim.Engine.set_observer ops.Run.co_engine (fun ~ts:_ kind ->
        Spans.push spans (Obs.Mclock.now_ns () - !sim0) kind)
  in
  let r, t =
    timed ~on_setup (fun ~faults -> Run.run_exp ~faults (exp w sys seed))
  in
  let ns s = int_of_float (s *. 1e9) in
  ( r,
    t,
    { tr_sys = sys; tr_setup_ns = ns t.t_setup_s; tr_sim_ns = ns t.t_sim_s;
      tr_spans = spans } )

(* The traced legs as one span list, legs laid end to end: per stack
   the run as the root span, [setup] and [sim] as its children, and one
   span per fired event under [sim], named by its kind.  CSV:
   id,parent,name,start_ns,end_ns. *)
let write_spans path legs =
  let oc = open_out path in
  let buf = Buffer.create (1 lsl 16) in
  let id = ref 0 in
  let line ~parent name a b =
    incr id;
    Buffer.add_string buf (Printf.sprintf "%d,%d,%s,%d,%d\n" !id parent name a b);
    if Buffer.length buf > 1 lsl 16 then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end;
    !id
  in
  output_string oc "id,parent,name,start_ns,end_ns\n";
  let off = ref 0 in
  List.iter
    (fun l ->
      let sim0 = !off + l.tr_setup_ns in
      let stop = sim0 + l.tr_sim_ns in
      let root = line ~parent:0 ("run:" ^ Run.system_name l.tr_sys) !off stop in
      ignore (line ~parent:root "setup" !off sim0);
      let sim = line ~parent:root "sim" sim0 stop in
      let s = l.tr_spans in
      for i = 0 to s.Spans.n - 1 do
        let e = if i + 1 < s.Spans.n then Spans.start s (i + 1) else l.tr_sim_ns in
        ignore
          (line ~parent:sim (Spans.name (Spans.kind s i))
             (sim0 + Spans.start s i) (sim0 + e))
      done;
      off := stop)
    legs;
  Buffer.output_buffer oc buf;
  close_out oc

(* Setup-layer probes, with the call counts [Harness.Run] makes: one
   sampler per client per stack, one [initial_data] per stack, one
   [Vstore.load] per replica of each multi-versioned (Morty/MVTSO)
   stack. *)
let sampler_of = function
  | Run.Retwis c -> Some (fun () -> Workload.Retwis.sampler c)
  | Run.Ycsb c -> Some (fun () -> Workload.Ycsb.sampler c)
  | Run.Smallbank c -> Some (fun () -> Workload.Smallbank.sampler c)
  | Run.Tpcc _ -> None

let initial_data = function
  | Run.Retwis c -> Workload.Retwis.initial_data c
  | Run.Ycsb c -> Workload.Ycsb.initial_data c
  | Run.Smallbank c -> Workload.Smallbank.initial_data c
  | Run.Tpcc c -> Workload.Tpcc.initial_data c

let uses_mvstore = function
  | Run.Morty | Run.Mvtso -> true
  | Run.Tapir | Run.Tapir_nodist | Run.Spanner -> false

let setup_probe_round w =
  let n_stacks = List.length w.w_systems in
  let sampler_calls, sampler_s =
    match sampler_of w.w_load with
    | None -> (0, 0.)
    | Some build ->
      let n = n_stacks * w.w_clients in
      let (), s =
        stopwatch (fun () ->
            for _ = 1 to n do
              ignore (Sys.opaque_identity (build ()))
            done)
      in
      (n, s)
  in
  let zipf_ns, zipf_draws =
    match sampler_of w.w_load with
    | None -> (0., 0)
    | Some build ->
      let z = build () in
      let rng = Sim.Rng.create 1 in
      let n = 1_000_000 in
      let (), s =
        stopwatch (fun () ->
            for _ = 1 to n do
              ignore (Sys.opaque_identity (Sim.Dist.zipf_sample z rng))
            done)
      in
      (s *. 1e9 /. float_of_int n, n)
  in
  let data_s =
    List.map (fun _ -> snd (stopwatch (fun () -> initial_data w.w_load))) w.w_systems
  in
  let data = initial_data w.w_load in
  let replicas = Morty.Config.n_replicas Morty.Config.default in
  let mv_stacks = List.filter uses_mvstore w.w_systems in
  let load_s =
    List.map
      (fun _ ->
        snd
          (stopwatch (fun () ->
               List.init replicas (fun _ ->
                   let s = Mvstore.Vstore.create () in
                   Mvstore.Vstore.load s data;
                   s))))
      mv_stacks
  in
  let bytes_per_key =
    Gc.full_major ();
    let live0 = (Gc.stat ()).Gc.live_words in
    let s = Mvstore.Vstore.create () in
    Mvstore.Vstore.load s data;
    Gc.full_major ();
    let live1 = (Gc.stat ()).Gc.live_words in
    let keys = Mvstore.Vstore.key_count (Sys.opaque_identity s) in
    float_of_int ((live1 - live0) * (Sys.word_size / 8)) /. float_of_int (max 1 keys)
  in
  [
    m "workload.sampler_build_s" "s" sampler_calls sampler_s;
    m "workload.initial_data_s" "s" n_stacks (sum_f Fun.id data_s);
    m "sim.zipf_sample_ns" "ns" zipf_draws zipf_ns;
    m "mvstore.load_s" "s"
      (replicas * List.length mv_stacks)
      (sum_f Fun.id load_s);
    m "mvstore.bytes_per_key" "B" (List.length data) bytes_per_key;
  ]

(* Medians over [probe_rounds] rounds: the first round in a process pays for
   growing the heap, which the runner pays only on a process's first
   run. *)
let setup_probes w =
  let runs = List.init probe_rounds (fun _ -> setup_probe_round w) in
  List.mapi
    (fun i x -> { x with m_value = median (List.map (fun r -> (List.nth r i).m_value) runs) })
    (List.hd runs)

(* Bare engine at [depth] live events: every event reschedules itself
   at a uniform delay, so the heap stays [depth] deep.  Median ns/event
   over five batches. *)
let engine_probe ~depth =
  let e = Sim.Engine.create () in
  let rng = Sim.Rng.create 7 in
  let rec fire () =
    ignore (Sim.Engine.schedule e ~after:(1 + Sim.Rng.int rng 10_000) fire)
  in
  for _ = 1 to max 1 depth do
    ignore (Sim.Engine.schedule e ~after:(Sim.Rng.int rng 10_000) fire)
  done;
  let batch = 200_000 in
  let one () =
    let (), s =
      stopwatch (fun () ->
          for _ = 1 to batch do
            ignore (Sim.Engine.step e)
          done)
    in
    s *. 1e9 /. float_of_int batch
  in
  ignore (one ());
  (median (List.init 5 (fun _ -> one ())), 5 * batch)

(* Per stack, on rep 0's seed: the audited leg first (it also grows the
   heap, so the timed legs below all start warm), then [rounds] rounds
   of bare, traced, lineage and profile legs; the overheads are medians
   over rounds of the difference to the same round's bare leg. *)
type stack_layers = {
  sl_sys : Run.system;
  sl_result : Stats.result;  (* of the first bare leg *)
  sl_bare : timing list;
  sl_traced : timing list;
  sl_lineage : timing list;
  sl_profile : timing list;
  sl_spans : traced;  (* of the last traced leg *)
  sl_check_s : float;
  sl_txns : int;
  sl_problems : string list;
}

let stack_layers w sys seed ~rounds =
  let run ?lineage ?prof () =
    timed (fun ~faults -> Run.run_exp ~faults ?lineage ?prof (exp w sys seed))
  in
  let r_audit, check_s, n_txns, violation = audit w sys seed in
  let legs =
    List.init rounds (fun _ ->
        let b = run () in
        let tr_r, tr_t, spans = traced_leg w sys seed in
        let l = run ~lineage:(Obs.Lineage.create ()) () in
        let p = run ~prof:(Obs.Profile.create ()) () in
        (b, (tr_r, tr_t), l, p, spans))
  in
  let (bare_r, _), _, _, _, _ = List.hd legs in
  let expect = digest bare_r in
  let problems =
    Option.to_list violation
    @ List.filter_map Fun.id
        (mismatch "audited" ~expect r_audit
        :: List.concat_map
             (fun ((b, _), (tr, _), (l, _), (p, _), _) ->
               [ mismatch "bare" ~expect b; mismatch "traced" ~expect tr;
                 mismatch "lineage" ~expect l; mismatch "profile" ~expect p ])
             legs)
  in
  let times f = List.map (fun leg -> snd (f leg)) legs in
  {
    sl_sys = sys;
    sl_result = bare_r;
    sl_bare = times (fun (b, _, _, _, _) -> b);
    sl_traced = times (fun (_, t, _, _, _) -> t);
    sl_lineage = times (fun (_, _, l, _, _) -> l);
    sl_profile = times (fun (_, _, _, p, _) -> p);
    sl_spans = (let _, _, _, _, s = List.nth legs (rounds - 1) in s);
    sl_check_s = check_s;
    sl_txns = n_txns;
    sl_problems = problems;
  }

(* [rounds] of the four legs fill about --seconds. *)
let per_layer w ~seed ~seconds ~out =
  let seed = rep_seed seed 0 in
  let rounds = max 3 (int_of_float (Float.round (seconds /. (4. *. w.w_rep_s)))) in
  let stacks = List.map (fun sys -> stack_layers w sys seed ~rounds) w.w_systems in
  let problems =
    List.concat_map (fun s -> List.map (fun p -> (s.sl_sys, p)) s.sl_problems) stacks
  in
  report_problems w problems;
  (match out with
  | None -> ()
  | Some dir ->
    write_spans
      (Filename.concat dir (Printf.sprintf "%s-seed%d.spans.csv" w.w_name seed))
      (List.map (fun s -> s.sl_spans) stacks));
  let n = List.length stacks in
  let results = List.map (fun s -> s.sl_result) stacks in
  (* Host figures of a stack: medians over its rounds. *)
  let med f s = median (List.map f s.sl_bare) in
  let sum_med f = sum_f (med f) stacks in
  let overhead leg f =
    sum_f
      (fun s -> median (List.map2 (fun b x -> f x -. f b) s.sl_bare (leg s)))
      stacks
  in
  let det r = r.Stats.r_engstat.Obs.Engstat.es_det in
  let heap r = (det r).Obs.Engstat.de_heap in
  let count name f =
    m name "count" n (float_of_int (sum_i f results))
  in
  let events = sum_i (fun r -> (det r).Obs.Engstat.de_events) results in
  let sim_s = sum_med (fun t -> t.t_sim_s) in
  let max_live =
    List.fold_left (fun a r -> max a (heap r).Obs.Engstat.hp_max_live) 0 results
  in
  let engine_ns, engine_events = engine_probe ~depth:max_live in
  let committed = sum_i (fun r -> r.Stats.r_committed) results in
  let msgs =
    sum_f (fun r -> r.Stats.r_msgs_per_txn *. float_of_int r.Stats.r_committed) results
  in
  let kind_ns c =
    Array.concat
      (List.map
         (fun s -> Spans.durations s.sl_spans.tr_spans ~end_ns:s.sl_spans.tr_sim_ns c)
         stacks)
  in
  let delivery_ns = kind_ns 1 and timer_ns = kind_ns 0 in
  let morty f =
    match List.find_opt (fun s -> s.sl_sys = Run.Morty) stacks with
    | Some s -> (1, f s.sl_result)
    | None -> (0, 0.)
  in
  let stack_metrics =
    List.concat_map
      (fun sys ->
        let name = Run.system_name sys in
        let metric what unit f =
          let k, v =
            match List.find_opt (fun s -> s.sl_sys = sys) stacks with
            | Some s -> f s
            | None -> (0, 0.)
          in
          m (Printf.sprintf "stack.%s.%s" name what) unit k v
        in
        [
          metric "sim_s" "s" (fun s -> (rounds, med (fun t -> t.t_sim_s) s));
          metric "goodput_tps" "txn/s" (fun s -> (1, s.sl_result.Stats.r_goodput));
          metric "abort_rate" "ratio" (fun s ->
              let r = s.sl_result in
              let attempts = r.Stats.r_committed + r.Stats.r_aborted in
              (attempts, float_of_int r.Stats.r_aborted /. float_of_int (max 1 attempts)));
        ])
      Run.all_systems
  in
  let reexecs_n, reexecs = morty (fun r -> r.Stats.r_reexecs_per_txn) in
  let rate_n, rate = morty (fun r -> r.Stats.r_commit_rate) in
  let metrics =
    setup_probes w
    @ [
        m "gc.minor_mwords" "Mwords" n (sum_med (fun t -> t.t_minor_mw));
        m "gc.major_mwords" "Mwords" n (sum_med (fun t -> t.t_major_mw));
        m "gc.major_collections" "count" n
          (sum_med (fun t -> float_of_int t.t_major_gcs));
        m "sim.events" "count" n (float_of_int events);
        count "sim.timer_events" (fun r -> (det r).Obs.Engstat.de_timers);
        count "sim.delivery_events" (fun r -> (det r).Obs.Engstat.de_deliveries);
        count "sim.heap_pushes" (fun r -> (heap r).Obs.Engstat.hp_pushes);
        count "sim.heap_cancels" (fun r -> (heap r).Obs.Engstat.hp_cancels);
        count "sim.heap_ghost_drains" (fun r -> (heap r).Obs.Engstat.hp_ghost_drains);
        m "sim.heap_max_live" "count" n (float_of_int max_live);
        m "sim.events_per_s" "1/s" n (float_of_int events /. sim_s);
        m "sim.engine_ns_per_event" "ns" engine_events engine_ns;
        (* base: the bare legs' median sim_s, summed over stacks *)
        m "sim.engine_share" "ratio" n
          (engine_ns *. float_of_int events /. (sim_s *. 1e9));
        m "simnet.delivery_ns_p50" "ns" (Array.length delivery_ns)
          (Obs.Bstats.percentile delivery_ns 0.50);
        m "simnet.delivery_ns_p99" "ns" (Array.length delivery_ns)
          (Obs.Bstats.percentile delivery_ns 0.99);
        m "simnet.msgs_per_txn" "msgs/txn" committed
          (msgs /. float_of_int (max 1 committed));
        m "simnet.cpu_utilization" "ratio" n
          (mean (List.map (fun r -> r.Stats.r_cpu_utilization) results));
        m "sim.timer_ns_p50" "ns" (Array.length timer_ns) (Obs.Bstats.percentile timer_ns 0.50);
        m "sim.timer_ns_p99" "ns" (Array.length timer_ns) (Obs.Bstats.percentile timer_ns 0.99);
        m "morty.reexecs_per_txn" "reexecs/txn" reexecs_n reexecs;
        m "morty.commit_rate" "ratio" rate_n rate;
      ]
    @ stack_metrics
    @ [
        m "obs.trace_overhead_s" "s" (n * rounds)
          (overhead (fun s -> s.sl_traced) (fun t -> t.t_sim_s));
        m "obs.lineage_overhead_s" "s" (n * rounds)
          (overhead (fun s -> s.sl_lineage) run_s);
        m "obs.profile_overhead_s" "s" (n * rounds)
          (overhead (fun s -> s.sl_profile) run_s);
        m "adya.check_s" "s" n (sum_f (fun s -> s.sl_check_s) stacks);
        m "adya.txns_checked" "count" n
          (float_of_int (sum_i (fun s -> s.sl_txns) stacks));
      ]
  in
  (problems = [], committed, metrics)

(* --- CLI ----------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let out = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N benchmark seed (inputs derive from it)");
      ("--seconds", Arg.Set_int seconds, "S nominal host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.String (fun d -> out := Some d), "DIR write traced spans here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]";
  let w =
    match List.find_opt (fun w -> w.w_name = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.w_name) workloads));
      exit 2
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: need --seed >= 0, --seconds >= 1, --trace 0|1";
    exit 2
  end;
  let reps = max 1 (int_of_float (Float.round (float_of_int !seconds /. w.w_rep_s))) in
  let correct, operations, metrics =
    if !trace = 0 then end_to_end w ~seed:!seed ~reps
    else per_layer w ~seed:!seed ~seconds:(float_of_int !seconds) ~out:!out
  in
  print_result ~correct ~attempted:(max 1 operations)
    ~failed:(if correct then 0 else max 1 operations)
    metrics;
  if not correct then exit 1
