module Engine = Sim.Engine
module Latency = Simnet.Latency
module Outcome = Cc_types.Outcome

type system = Morty | Mvtso | Tapir | Tapir_nodist | Spanner

let system_name = function
  | Morty -> "morty"
  | Mvtso -> "mvtso"
  | Tapir -> "tapir"
  | Tapir_nodist -> "tapir-nodist"
  | Spanner -> "spanner"

let system_of_string s =
  match String.lowercase_ascii s with
  | "morty" -> Some Morty
  | "mvtso" -> Some Mvtso
  | "tapir" -> Some Tapir
  | "spanner" -> Some Spanner
  | _ -> None

let all_systems = [ Morty; Mvtso; Tapir; Spanner ]


type workload =
  | Tpcc of Workload.Tpcc.conf
  | Retwis of Workload.Retwis.conf
  | Ycsb of Workload.Ycsb.conf
  | Smallbank of Workload.Smallbank.conf

(* A workload paired with its key sampler.  Every runner builds one per
   run, before its client loop, and all its clients draw from it: a
   {!Sim.Dist.zipf} costs O(keys) to build and is immutable afterwards,
   so sharing it leaves each client's draws unchanged. *)
type sampled =
  | S_tpcc of Workload.Tpcc.conf
  | S_retwis of Sim.Dist.zipf
  | S_ycsb of Workload.Ycsb.conf * Sim.Dist.zipf
  | S_smallbank of Workload.Smallbank.conf * Sim.Dist.zipf

let with_sampler = function
  | Tpcc conf -> S_tpcc conf
  | Retwis conf -> S_retwis (Workload.Retwis.sampler conf)
  | Ycsb conf -> S_ycsb (conf, Workload.Ycsb.sampler conf)
  | Smallbank conf -> S_smallbank (conf, Workload.Smallbank.sampler conf)

type exp = {
  e_system : system;
  e_setup : Latency.setup;
  e_workload : workload;
  e_clients : int;
  e_cores : int;
  e_warmup_us : int;
  e_measure_us : int;
  e_seed : int;
  e_label : string;
  e_backoff_base_us : int;
  e_max_staleness_us : int;
}

let default_exp =
  {
    e_system = Morty;
    e_setup = Latency.Reg;
    e_workload = Retwis Workload.Retwis.default_conf;
    e_clients = 24;
    e_cores = 4;
    e_warmup_us = 500_000;
    e_measure_us = 2_000_000;
    e_seed = 1;
    e_label = "default";
    e_backoff_base_us = 100_000;
    e_max_staleness_us = 0;
  }

let backoff_cap_us = 2_500_000 (* the paper's 2.5 s cap *)

(* --- Fault-injection surface (deterministic exploration harness) ------- *)

type cluster_ops = {
  co_engine : Engine.t;
  co_n_replicas : int;
  co_crash : int -> unit;
  co_recover : int -> unit;
  co_kill : int -> unit;
  co_restart : int -> unit;
  co_isolate : int -> unit;
  co_heal_all : unit -> unit;
  co_partition : int -> unit;
  co_heal : int -> unit;
  co_set_loss : float -> unit;
  co_set_extra_delay : int -> unit;
}

(* Per-run accounting for amnesia-crash faults, accumulated by the
   co_kill/co_restart closures each runner builds. *)
type fault_acc = {
  mutable fa_kills : int;
  mutable fa_restarts : int;
  mutable fa_transfer_msgs : int;
  mutable fa_transfer_bytes : int;
}

let fresh_acc () =
  { fa_kills = 0; fa_restarts = 0; fa_transfer_msgs = 0; fa_transfer_bytes = 0 }

(* Replica indices are taken mod the cluster size so that schedules
   generated without knowledge of a system's replica count stay valid
   across all four systems; likewise partition-group indices are taken
   mod the number of latency regions, so one schedule names the same
   datacenter on every deployment. *)
let make_cluster_ops engine net replica_nodes ~regions ?(on_heal = fun () -> ())
    ~kill ~restart () =
  let n = Array.length replica_nodes in
  let rnode i = replica_nodes.(((i mod n) + n) mod n) in
  let n_regions = max 1 (Array.length regions) in
  let gidx g = ((g mod n_regions) + n_regions) mod n_regions in
  (* Datacenter granularity: the group is every node — replicas and
     clients alike — placed in the region.  Resolved at fire time so
     clients registered after the ops were built are included. *)
  let region_group g =
    let r = regions.(gidx g) in
    List.filter
      (fun nd -> Simnet.Net.region_of net nd = r)
      (List.init (Simnet.Net.node_count net) (fun x -> x))
  in
  let gname g = "region-" ^ string_of_int (gidx g) in
  {
    co_engine = engine;
    co_n_replicas = n;
    co_crash = (fun i -> Simnet.Net.crash net (rnode i));
    co_recover = (fun i -> Simnet.Net.recover net (rnode i));
    co_kill = kill;
    co_restart = restart;
    co_isolate =
      (fun i ->
        let v = rnode i in
        let others =
          List.filter
            (fun nd -> nd <> v)
            (List.init (Simnet.Net.node_count net) (fun x -> x))
        in
        Simnet.Net.partition net [ v ] others);
    co_heal_all =
      (fun () ->
        Simnet.Net.heal_all net;
        on_heal ());
    co_partition =
      (fun g ->
        Simnet.Net.cut_group net ~name:(gname g) ~group:(region_group g) ());
    co_heal =
      (fun g ->
        Simnet.Net.heal_group net ~name:(gname g);
        on_heal ());
    co_set_loss = (fun p -> Simnet.Net.set_loss_rate net p);
    co_set_extra_delay = (fun d -> Simnet.Net.set_extra_delay net ~max_us:d);
  }

(* Hand the built cluster to the fault schedule; this closes the run's
   setup phase, so everything the probe measures after it is
   simulation. *)
let inject ~probe faults ops =
  (match faults with None -> () | Some f -> f ops);
  Obs.Engstat.mark_setup probe

(* --- Metrics sampling ----------------------------------------------------

   A virtual-time ticker samples every replica slot at a fixed interval.
   Ticker events are read-only — they draw no randomness and mutate no
   protocol state — so enabling metrics never perturbs the simulated
   history.  Nothing is scheduled at all on a disabled sink. *)

let metrics_interval_us = 10_000

(* Returns a [finish] closure the runner calls after [Engine.run_until]:
   when the horizon is not a multiple of the sampling interval the last
   ticker fires short of it, so the final partial window would otherwise
   go unrecorded.  [finish] closes the series with one sample pinned at
   the horizon (and is a no-op when a tick already landed there). *)
let install_metrics ~engine ~obs ~horizon ~sample =
  if Obs.Sink.enabled obs then begin
    let last = ref (-1) in
    let rec tick () =
      last := Engine.now engine;
      sample ~now:(Engine.now engine);
      if Engine.now engine + metrics_interval_us <= horizon then
        Engine.post engine ~kind:Engine.Ticker
          ~after:metrics_interval_us tick
    in
    Engine.post engine ~kind:Engine.Ticker ~after:metrics_interval_us
      tick;
    fun () -> if !last <> horizon then sample ~now:horizon
  end
  else fun () -> ()

(* Busy fraction over one sampling interval from a monotone busy-µs
   counter; clamped at 0 because [Cpu.reset_stats] at the warm-up
   boundary rewinds the counter once. *)
let busy_frac prev ~slot ~cores ~busy_us =
  let d = max 0 (busy_us - prev.(slot)) in
  prev.(slot) <- busy_us;
  min 1.0 (float_of_int d /. float_of_int (metrics_interval_us * max 1 cores))

(* Flight-recorder taps: read-only observers on the engine dispatcher,
   the network (sends with drop flags, handler deliveries) and the trace
   sink (span openings).  All three draw no randomness and change no
   scheduling, so a seeded run stays byte-identical with the recorder
   attached. *)
let attach_flight ~engine ~net ~obs ~flight ~label =
  if Obs.Flight.enabled flight then begin
    Engine.set_observer engine (fun ~ts kind ->
        let kind =
          match kind with
          | Engine.Timer -> "timer"
          | Engine.Delivery -> "delivery"
          | Engine.Ticker -> "ticker"
        in
        Obs.Flight.record flight (Obs.Flight.Engine_ev { fl_ts = ts; kind }));
    Simnet.Net.set_observer net (function
      | Simnet.Net.Sent { ne_ts; ne_src; ne_dst; ne_msg; ne_dropped } ->
        Obs.Flight.record flight
          (Obs.Flight.Send
             { fl_ts = ne_ts; src = ne_src; dst = ne_dst; kind = label ne_msg;
               dropped = ne_dropped })
      | Simnet.Net.Delivered { ne_ts; ne_src; ne_dst; ne_msg; ne_send_us } ->
        Obs.Flight.record flight
          (Obs.Flight.Deliver
             { fl_ts = ne_ts; src = ne_src; dst = ne_dst; kind = label ne_msg;
               send_us = ne_send_us }));
    Obs.Sink.set_observer obs (fun (e : Obs.Sink.event) ->
        Obs.Flight.record flight
          (Obs.Flight.Span
             { fl_ts = e.ev_ts; name = e.ev_name; cat = e.ev_cat;
               pid = e.ev_pid; dur = e.ev_dur }))
  end

let events_of_engine engine =
  let k = Engine.events_by_kind engine in
  {
    Stats.ev_timers = k.Engine.k_timer;
    ev_deliveries = k.Engine.k_delivery;
    ev_tickers = k.Engine.k_ticker;
  }

(* Close an engine-performance probe over a finished run: the engine's
   deterministic counters plus the probe's wall/GC deltas. *)
let engstat_of_engine probe ~label engine =
  let k = Engine.events_by_kind engine in
  let h = Engine.heap_stats engine in
  Obs.Engstat.finish probe ~label ~timers:k.Engine.k_timer
    ~deliveries:k.Engine.k_delivery ~tickers:k.Engine.k_ticker
    ~heap:
      {
        Obs.Engstat.hp_pushes = h.Engine.hs_pushes;
        hp_pops = h.Engine.hs_pops;
        hp_cancels = h.Engine.hs_cancels;
        hp_ghost_drains = h.Engine.hs_ghost_drains;
        hp_max_live = h.Engine.hs_max_live;
        hp_max_raw = h.Engine.hs_max_raw;
      }

(* Generic closed-loop driver over any system's client module. *)
module Driver (C : Cc_types.Kv_api.S) = struct
  (* [pick rng] freshly parameterises one transaction and returns its
     runner; retries rerun the same kind with fresh parameters, and
     latency is measured from the first attempt (§5, Measurement).

     [comps] reads the client's per-attempt latency-component cells
     ({!Obs.Profile}); the driver accumulates them across attempts, adds
     each backoff wait to the (retry, backoff) cell, and records the
     finished transaction on [prof].  Attempts and backoffs tile the
     interval from first begin to commit exactly, so the recorded cells
     always sum to the recorded latency. *)
  let closed_loop ~engine ~rng ~client ~pick ~stats ~warm_start ~warm_end
      ?(prof = Obs.Profile.null ()) ?comps ~backoff_base_us () =
    let profiling = Obs.Profile.enabled prof && comps <> None in
    let acc = Array.make Obs.Profile.n_cells 0 in
    let add_attempt () =
      match comps with
      | Some f when profiling ->
        let c = f () in
        Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) c
      | Some _ | None -> ()
    in
    let backoff_cell =
      Obs.Profile.cell Obs.Profile.P_retry Obs.Profile.C_backoff
    in
    let rec next () =
      if Engine.now engine < warm_end then begin
        if profiling then Array.fill acc 0 (Array.length acc) 0;
        let run = pick rng in
        attempt run (Engine.now engine) 0
      end
    and attempt run txn_start n =
      run client rng (fun outcome ->
          let now = Engine.now engine in
          add_attempt ();
          let in_window = now >= warm_start && now < warm_end in
          match outcome with
          | Outcome.Committed ->
            if in_window then begin
              Stats.record_commit stats ~latency_us:(now - txn_start);
              if profiling then
                Obs.Profile.record_txn prof ~latency_us:(now - txn_start)
                  ~comps:acc
            end;
            next ()
          | Outcome.Aborted reason ->
            if in_window then Stats.record_abort stats ~reason;
            if now < warm_end then begin
              let wait =
                Sim.Backoff.full_jitter rng ~base_us:backoff_base_us
                  ~cap_us:backoff_cap_us ~attempt:n
              in
              if profiling then acc.(backoff_cell) <- acc.(backoff_cell) + wait;
              if in_window then
                Stats.record_phase stats Stats.P_backoff ~dur_us:wait;
              Engine.post engine ~after:wait (fun () ->
                  attempt run txn_start (n + 1))
            end)
    in
    next ()
end

module Morty_driver = Driver (Morty.Client)
module Tapir_driver = Driver (Tapir.Client)
module Spanner_driver = Driver (Spanner.Client)
module Morty_tpcc = Workload.Tpcc.Make (Morty.Client)
module Morty_retwis = Workload.Retwis.Make (Morty.Client)
module Morty_ycsb = Workload.Ycsb.Make (Morty.Client)
module Morty_smallbank = Workload.Smallbank.Make (Morty.Client)
module Tapir_tpcc = Workload.Tpcc.Make (Tapir.Client)
module Tapir_retwis = Workload.Retwis.Make (Tapir.Client)
module Tapir_ycsb = Workload.Ycsb.Make (Tapir.Client)
module Tapir_smallbank = Workload.Smallbank.Make (Tapir.Client)
module Spanner_tpcc = Workload.Tpcc.Make (Spanner.Client)
module Spanner_retwis = Workload.Retwis.Make (Spanner.Client)
module Spanner_ycsb = Workload.Ycsb.Make (Spanner.Client)
module Spanner_smallbank = Workload.Smallbank.Make (Spanner.Client)

let client_region regions i = regions.(i mod Array.length regions)

(* Straggler timeouts scale with the deployment's worst round trip: a
   400 ms timeout suits GLO but would make REG crawl whenever a replica
   is down (every slow-path commit would sit out the full timeout). *)
let timeout_for setup =
  let regions = Latency.regions setup in
  let max_rtt =
    Array.fold_left
      (fun acc a ->
        Array.fold_left (fun acc b -> max acc (Latency.rtt_us setup a b)) acc regions)
      0 regions
  in
  (3 * max_rtt) + 20_000

let tpcc_home conf i = (i mod conf.Workload.Tpcc.n_warehouses) + 1

(* --- History recording ----------------------------------------------------

   Every system's client exposes a per-transaction [record] via its
   [on_finish] hook; these converters map them onto the common
   [Adya.History.txn] shape so any experiment can be audited with
   [Adya.Dsg.check] after the run. *)

let txn_of_morty (r : Morty.Client.record) =
  {
    Adya.History.ver = r.h_ver;
    reads = r.h_reads;
    writes = r.h_writes;
    committed = r.h_committed;
    start_us = r.h_start_us;
    commit_us = r.h_end_us;
  }

let txn_of_tapir (r : Tapir.Client.record) =
  {
    Adya.History.ver = r.h_ver;
    reads = r.h_reads;
    writes = r.h_writes;
    committed = r.h_committed;
    start_us = r.h_start_us;
    commit_us = r.h_end_us;
  }

let txn_of_spanner (r : Spanner.Client.record) =
  {
    Adya.History.ver = r.h_ver;
    reads = r.h_reads;
    writes = r.h_writes;
    committed = r.h_committed;
    start_us = r.h_start_us;
    commit_us = r.h_end_us;
  }

(* --- Morty / MVTSO (one multi-core group) -------------------------------- *)

(* Amnesia-crash operations over a Morty replica array.  [kill] stops
   the current incarnation (dropping queued CPU work) and crashes its
   node; [restart] registers a {e fresh} replica object — empty
   erecord, store, and decision log — on the same node and starts the
   catch-up protocol.  At most [f] replicas may be amnesiac (stopped or
   still recovering) at once: beyond that no quorum is guaranteed to
   hold every durable decision, so further kills are refused.  Both
   operations are idempotent — the shrinker may drop either half of a
   Kill/Restart pair. *)
let morty_ops ~engine ~net ~rng ~cfg ~cores ~prof ~mon
    ?(lineage = Obs.Lineage.null ()) ~regions ?on_heal ~replicas ~peers ~acc ()
    =
  let n = Array.length replicas in
  let widx i = ((i mod n) + n) mod n in
  let amnesiac () =
    Array.fold_left
      (fun c r ->
        if Morty.Replica.is_stopped r || Morty.Replica.is_recovering r then c + 1
        else c)
      0 replicas
  in
  let kill i =
    let r = replicas.(widx i) in
    if (not (Morty.Replica.is_stopped r)) && amnesiac () < cfg.Morty.Config.f
    then begin
      Morty.Replica.stop r;
      Simnet.Net.crash net (Morty.Replica.node r);
      Obs.Monitor.note_kill mon ~ts:(Engine.now engine)
        ~replica:(Printf.sprintf "r%d" (widx i));
      acc.fa_kills <- acc.fa_kills + 1
    end
  in
  let restart i =
    let i = widx i in
    let old = replicas.(i) in
    if Morty.Replica.is_stopped old then begin
      let node = Morty.Replica.node old in
      let fresh =
        Morty.Replica.create_at ~node ~cfg ~engine ~net
          ~rng:(Sim.Rng.split rng) ~index:i ~cores ~prof ~mon ~lineage ()
      in
      Morty.Replica.set_peers fresh peers;
      replicas.(i) <- fresh;
      (* Recover the node before requesting state: sends from a crashed
         node are dropped. *)
      Simnet.Net.recover net node;
      Morty.Replica.start_catchup fresh;
      acc.fa_restarts <- acc.fa_restarts + 1
    end
  in
  make_cluster_ops engine net peers ~regions ?on_heal ~kill ~restart ()

let morty_recovery acc replicas =
  let tm = ref acc.fa_transfer_msgs and tb = ref acc.fa_transfer_bytes in
  let cu = ref 0 and cw = ref 0 in
  Array.iter
    (fun r ->
      let st = Morty.Replica.stats r in
      tm := !tm + st.Morty.Replica.state_transfer_msgs;
      tb := !tb + st.Morty.Replica.state_transfer_bytes;
      cu := !cu + st.Morty.Replica.catchups;
      cw := !cw + st.Morty.Replica.catchup_wait_us)
    replicas;
  {
    Stats.rc_kills = acc.fa_kills;
    rc_restarts = acc.fa_restarts;
    rc_transfer_msgs = !tm;
    rc_transfer_bytes = !tb;
    rc_catchups = !cu;
    rc_catchup_wait_us = !cw;
    rc_ttr_write_us = 0;
    rc_ttr_wm_us = 0;
  }

let run_morty ?cfg ?on_txn ?faults ?(obs = Obs.Sink.null ())
    ?(prof = Obs.Profile.null ()) ?(mon = Obs.Monitor.null ())
    ?(flight = Obs.Flight.null ()) ?(lineage = Obs.Lineage.null ()) e
    ~reexecution =
  let probe = Obs.Engstat.start () in
  let engine = Engine.create () in
  let rng = Sim.Rng.create e.e_seed in
  let net = Simnet.Net.create engine (Sim.Rng.split rng) ~setup:e.e_setup () in
  let regions = Latency.regions e.e_setup in
  let cfg =
    match cfg with
    | Some c -> c
    | None ->
      let base =
        { Morty.Config.default with reexecution;
          prepare_timeout_us = timeout_for e.e_setup }
      in
      if e.e_max_staleness_us > 0 then
        (* Follower reads pin snapshots at the truncation watermark, so
           the watermark protocol must actually run. *)
        { base with
          max_staleness_us = e.e_max_staleness_us;
          truncation_interval_us =
            (if base.truncation_interval_us = 0 then 25_000
             else base.truncation_interval_us) }
      else base
  in
  let replicas =
    Array.init (Morty.Config.n_replicas cfg) (fun i ->
        Morty.Replica.create ~cfg ~engine ~net ~rng:(Sim.Rng.split rng) ~index:i
          ~region:regions.(i mod Array.length regions) ~cores:e.e_cores ~prof
          ~mon ~lineage ())
  in
  let peers = Array.map Morty.Replica.node replicas in
  Array.iter (fun r -> Morty.Replica.set_peers r peers) replicas;
  (* [replicas] is read at dump time, so restarted incarnations show up. *)
  Obs.Monitor.register_views mon (fun () ->
      Array.to_list (Array.map Morty.Replica.state_view replicas));
  attach_flight ~engine ~net ~obs ~flight ~label:Morty.Msg.label;
  let data =
    match e.e_workload with
    | Tpcc conf -> Workload.Tpcc.initial_data conf
    | Retwis conf -> Workload.Retwis.initial_data conf
    | Ycsb conf -> Workload.Ycsb.initial_data conf
    | Smallbank conf -> Workload.Smallbank.initial_data conf
  in
  Array.iter (fun r -> Morty.Replica.load r data) replicas;
  let stats = Stats.create () in
  let warm_start = e.e_warmup_us in
  let warm_end = e.e_warmup_us + e.e_measure_us in
  let av = Avail.create () in
  let record_phases (r : Morty.Client.record) =
    Avail.note_txn av ~now:r.h_end_us
      ~in_window:(r.h_end_us >= warm_start && r.h_end_us < warm_end)
      ~ro:r.h_ro ~committed:r.h_committed ~staleness_us:r.h_staleness_us;
    if r.h_committed && r.h_end_us >= warm_start && r.h_end_us < warm_end
    then begin
      Stats.record_phase stats Stats.P_execute ~dur_us:r.h_exec_us;
      Stats.record_phase stats Stats.P_prepare ~dur_us:r.h_prepare_us;
      Stats.record_phase stats Stats.P_finalize ~dur_us:r.h_finalize_us
    end
  in
  let on_finish =
    match on_txn with
    | None -> record_phases
    | Some f ->
      fun r ->
        record_phases r;
        f (txn_of_morty r)
  in
  let sampled = with_sampler e.e_workload in
  let clients =
    List.init e.e_clients (fun i ->
        let client =
          Morty.Client.create ~cfg ~engine ~net ~rng:(Sim.Rng.split rng)
            ~region:(client_region regions i) ~replicas:peers ~obs ~prof ~mon
            ~lineage ~on_finish ()
        in
        let crng = Sim.Rng.split rng in
        let pick =
          match sampled with
          | S_tpcc conf ->
            let home_w = tpcc_home conf i in
            fun rng ->
              let kind = Workload.Tpcc.pick_kind rng in
              fun client rng done_ ->
                (* Stage the label per attempt: the begin under this run
                   thunk consumes it, and retries rerun the thunk. *)
                Obs.Lineage.next_txn_label lineage
                  (Workload.Tpcc.kind_name kind);
                Morty_tpcc.run conf client rng ~home_w kind done_
          | S_retwis zipf ->
            fun rng ->
              let kind = Workload.Retwis.pick_kind rng in
              fun client rng done_ ->
                Obs.Lineage.next_txn_label lineage
                  (Workload.Retwis.kind_name kind);
                Morty_retwis.run client rng zipf kind done_
          | S_ycsb (conf, zipf) ->
            fun _rng client rng done_ ->
              Obs.Lineage.next_txn_label lineage "ycsb";
              Morty_ycsb.run conf client rng zipf done_
          | S_smallbank (conf, zipf) ->
            fun rng ->
              let kind = Workload.Smallbank.pick_kind rng in
              fun client rng done_ ->
                Obs.Lineage.next_txn_label lineage
                  (Workload.Smallbank.kind_name kind);
                Morty_smallbank.run conf client rng zipf kind done_
        in
        Morty_driver.closed_loop ~engine ~rng:crng ~client ~pick ~stats ~warm_start
          ~warm_end ~prof ~comps:(fun () -> Morty.Client.last_comps client)
          ~backoff_base_us:e.e_backoff_base_us ();
        client)
  in
  let msgs_at_warm = ref 0 in
  Engine.post engine ~after:warm_start (fun () ->
      msgs_at_warm := Simnet.Net.messages_delivered net;
      Array.iter (fun r -> Simnet.Cpu.reset_stats (Morty.Replica.cpu r)) replicas);
  let prev_busy = Array.make (Array.length replicas) 0 in
  let finish_metrics =
    install_metrics ~engine ~obs ~horizon:warm_end ~sample:(fun ~now ->
      Array.iteri
        (fun i _ ->
          let r = replicas.(i) in
          let wlag =
            match Morty.Replica.watermark r with
            | Some w -> max 0 (now - w.Cc_types.Version.ts)
            | None -> 0
          in
          Obs.Sink.sample obs
            {
              Obs.Sink.sm_ts = now;
              sm_replica = Printf.sprintf "r%d" i;
              sm_cpu_busy =
                busy_frac prev_busy ~slot:i ~cores:e.e_cores
                  ~busy_us:(Simnet.Cpu.busy_us (Morty.Replica.cpu r));
              sm_queue = Simnet.Cpu.queue_length (Morty.Replica.cpu r);
              sm_records = Morty.Replica.erecord_size r;
              sm_versions = Morty.Replica.store_size r;
              sm_wmark_lag = wlag;
            })
        replicas)
  in
  let acc = fresh_acc () in
  inject ~probe faults
    (morty_ops ~engine ~net ~rng ~cfg ~cores:e.e_cores ~prof ~mon ~lineage
       ~regions
       ~on_heal:(fun () -> Avail.note_heal av ~now:(Engine.now engine))
       ~replicas ~peers ~acc ());
  Engine.run_until engine ~limit:warm_end;
  finish_metrics ();
  let window_msgs = Simnet.Net.messages_delivered net - !msgs_at_warm in
  let cpu =
    let total =
      Array.fold_left
        (fun acc r ->
          acc
          +. Simnet.Cpu.utilization (Morty.Replica.cpu r) ~duration:e.e_measure_us)
        0. replicas
    in
    total /. float_of_int (Array.length replicas)
  in
  let committed, reexecs =
    List.fold_left
      (fun (c, r) client ->
        let st = Morty.Client.stats client in
        (c + st.committed, r + st.reexecs))
      (0, 0) clients
  in
  let reexecs_per_txn =
    if committed = 0 then 0. else float_of_int reexecs /. float_of_int committed
  in
  let msgs_per_txn =
    if Stats.committed stats = 0 then 0.
    else float_of_int window_msgs /. float_of_int (Stats.committed stats)
  in
  Stats.to_result stats ~label:e.e_label ~duration_us:e.e_measure_us
    ~cpu_utilization:cpu ~reexecs_per_txn ~msgs_per_txn
    ~events:(events_of_engine engine)
    ~recovery:
      { (morty_recovery acc replicas) with
        Stats.rc_ttr_write_us = Avail.ttr_write_us av;
        rc_ttr_wm_us = Avail.ttr_wm_us av }
    ?avail:
      (if e.e_max_staleness_us > 0 then Some (Avail.result av) else None)
    ~engstat:(engstat_of_engine probe ~label:e.e_label engine)
    ?lineage:
      (if Obs.Lineage.enabled lineage then
         Some (Obs.Lineage.summary (Obs.Lineage.records lineage))
       else None)
    ()

(* --- TAPIR (e_cores single-threaded groups) -------------------------------- *)

let run_tapir ?(no_dist = false) ?on_txn ?faults ?(obs = Obs.Sink.null ())
    ?(prof = Obs.Profile.null ()) ?(mon = Obs.Monitor.null ())
    ?(flight = Obs.Flight.null ()) ?(lineage = Obs.Lineage.null ()) e =
  let probe = Obs.Engstat.start () in
  let engine = Engine.create () in
  let rng = Sim.Rng.create e.e_seed in
  let net = Simnet.Net.create engine (Sim.Rng.split rng) ~setup:e.e_setup () in
  let regions = Latency.regions e.e_setup in
  let n_groups = max 1 e.e_cores in
  let cfg =
    { Tapir.Config.default with n_groups;
      prepare_timeout_us = timeout_for e.e_setup;
      max_staleness_us = e.e_max_staleness_us }
  in
  let groups =
    Array.init n_groups (fun g ->
        Array.init (Tapir.Config.n_replicas cfg) (fun i ->
            Tapir.Replica.create ~cfg ~engine ~net ~group:g ~index:i
              ~region:regions.(i mod Array.length regions) ~cores:1 ~prof ~mon
              ~lineage ()))
  in
  let group_nodes = Array.map (Array.map Tapir.Replica.node) groups in
  (* Watermark rounds (replica 0 of each group) broadcast to the group;
     they idle until the peer list is installed. *)
  Array.iteri
    (fun g group ->
      Array.iter (fun r -> Tapir.Replica.set_peers r group_nodes.(g)) group)
    groups;
  Obs.Monitor.register_views mon (fun () ->
      Array.to_list groups
      |> List.concat_map (fun group ->
             Array.to_list (Array.map Tapir.Replica.state_view group)));
  attach_flight ~engine ~net ~obs ~flight ~label:Tapir.Msg.label;
  let data =
    match e.e_workload with
    | Tpcc conf -> Workload.Tpcc.initial_data conf
    | Retwis conf -> Workload.Retwis.initial_data conf
    | Ycsb conf -> Workload.Ycsb.initial_data conf
    | Smallbank conf -> Workload.Smallbank.initial_data conf
  in
  Array.iter (fun group -> Array.iter (fun r -> Tapir.Replica.load r data) group) groups;
  let stats = Stats.create () in
  let warm_start = e.e_warmup_us in
  let warm_end = e.e_warmup_us + e.e_measure_us in
  let av = Avail.create () in
  let record_phases (r : Tapir.Client.record) =
    Avail.note_txn av ~now:r.h_end_us
      ~in_window:(r.h_end_us >= warm_start && r.h_end_us < warm_end)
      ~ro:r.h_ro ~committed:r.h_committed ~staleness_us:r.h_staleness_us;
    if r.h_committed && r.h_end_us >= warm_start && r.h_end_us < warm_end
    then begin
      Stats.record_phase stats Stats.P_execute ~dur_us:r.h_exec_us;
      Stats.record_phase stats Stats.P_prepare ~dur_us:r.h_prepare_us;
      Stats.record_phase stats Stats.P_finalize ~dur_us:r.h_finalize_us
    end
  in
  let on_finish =
    match on_txn with
    | None -> record_phases
    | Some f ->
      fun r ->
        record_phases r;
        f (txn_of_tapir r)
  in
  let sampled = with_sampler e.e_workload in
  List.iteri
    (fun i () ->
      let partition =
        if no_dist then
          (* Best-case variant of Fig. 8a: every transaction stays within
             the client's home group (data is fully replicated in the
             simulator, so this is consistent). *)
          let home = i mod n_groups in
          fun _ -> home
        else
          match e.e_workload with
          | Tpcc conf ->
            let home_group = (tpcc_home conf i - 1) mod n_groups in
            Workload.Tpcc.partition_of_key ~home_group ~n_groups
          | Retwis _ -> Workload.Retwis.partition_of_key ~n_groups
          | Ycsb _ -> Workload.Ycsb.partition_of_key ~n_groups
          | Smallbank _ -> Workload.Smallbank.partition_of_key ~n_groups
      in
      let client =
        Tapir.Client.create ~cfg ~engine ~net ~rng:(Sim.Rng.split rng)
          ~region:(client_region regions i) ~groups:group_nodes ~partition
          ~obs ~prof ~mon ~lineage ~on_finish ()
      in
      let crng = Sim.Rng.split rng in
      let pick =
        match sampled with
        | S_tpcc conf ->
          let home_w = tpcc_home conf i in
          fun rng ->
            let kind = Workload.Tpcc.pick_kind rng in
            fun client rng done_ ->
              Obs.Lineage.next_txn_label lineage (Workload.Tpcc.kind_name kind);
              Tapir_tpcc.run conf client rng ~home_w kind done_
        | S_retwis zipf ->
          fun rng ->
            let kind = Workload.Retwis.pick_kind rng in
            fun client rng done_ ->
              Obs.Lineage.next_txn_label lineage
                (Workload.Retwis.kind_name kind);
              Tapir_retwis.run client rng zipf kind done_
        | S_ycsb (conf, zipf) ->
          fun _rng client rng done_ ->
            Obs.Lineage.next_txn_label lineage "ycsb";
            Tapir_ycsb.run conf client rng zipf done_
        | S_smallbank (conf, zipf) ->
          fun rng ->
            let kind = Workload.Smallbank.pick_kind rng in
            fun client rng done_ ->
              Obs.Lineage.next_txn_label lineage
                (Workload.Smallbank.kind_name kind);
              Tapir_smallbank.run conf client rng zipf kind done_
      in
      Tapir_driver.closed_loop ~engine ~rng:crng ~client ~pick ~stats ~warm_start
        ~warm_end ~prof ~comps:(fun () -> Tapir.Client.last_comps client)
        ~backoff_base_us:e.e_backoff_base_us ())
    (List.init e.e_clients (fun _ -> ()));
  (* Recompute at use: restarts swap fresh replica objects (and CPUs)
     into [groups]. *)
  let all_cpus () =
    Array.to_list groups
    |> List.concat_map (fun group ->
           Array.to_list (Array.map Tapir.Replica.cpu group))
  in
  let msgs_at_warm = ref 0 in
  Engine.post engine ~after:warm_start (fun () ->
      msgs_at_warm := Simnet.Net.messages_delivered net;
      List.iter Simnet.Cpu.reset_stats (all_cpus ()));
  let prev_busy = Array.make (n_groups * Tapir.Config.n_replicas cfg) 0 in
  let finish_metrics =
    install_metrics ~engine ~obs ~horizon:warm_end ~sample:(fun ~now ->
      Array.iteri
        (fun g group ->
          Array.iteri
            (fun k _ ->
              let r = groups.(g).(k) in
              let slot = (g * Array.length group) + k in
              Obs.Sink.sample obs
                {
                  Obs.Sink.sm_ts = now;
                  sm_replica = Printf.sprintf "g%dr%d" g k;
                  sm_cpu_busy =
                    busy_frac prev_busy ~slot ~cores:1
                      ~busy_us:(Simnet.Cpu.busy_us (Tapir.Replica.cpu r));
                  sm_queue = Simnet.Cpu.queue_length (Tapir.Replica.cpu r);
                  sm_records = Tapir.Replica.prepared_count r;
                  sm_versions = Tapir.Replica.store_size r;
                  sm_wmark_lag = 0;
                })
            group)
        groups)
  in
  let acc = fresh_acc () in
  let nrep = Tapir.Config.n_replicas cfg in
  let total = n_groups * nrep in
  let widx i = ((i mod total) + total) mod total in
  (* Amnesia for TAPIR: kill drops the incarnation; restart registers a
     fresh replica on the same node and instantly installs snapshots
     (committed store + prepared table) from every surviving group peer
     — a harness-level emulation of state transfer.  At most f
     concurrently-dead replicas per group. *)
  let kill i =
    let i = widx i in
    let g = i / nrep and k = i mod nrep in
    let r = groups.(g).(k) in
    let dead =
      Array.fold_left
        (fun c r -> if Tapir.Replica.is_stopped r then c + 1 else c)
        0 groups.(g)
    in
    if (not (Tapir.Replica.is_stopped r)) && dead < cfg.Tapir.Config.f
    then begin
      Tapir.Replica.stop r;
      Simnet.Net.crash net (Tapir.Replica.node r);
      Obs.Monitor.note_kill mon ~ts:(Engine.now engine)
        ~replica:(Printf.sprintf "g%dr%d" g k);
      acc.fa_kills <- acc.fa_kills + 1
    end
  in
  let restart i =
    let i = widx i in
    let g = i / nrep and k = i mod nrep in
    let old = groups.(g).(k) in
    if Tapir.Replica.is_stopped old then begin
      let node = Tapir.Replica.node old in
      let fresh =
        Tapir.Replica.create_at ~node ~cfg ~engine ~net ~group:g ~index:k
          ~cores:1 ~prof ~mon ~lineage ()
      in
      Tapir.Replica.set_peers fresh group_nodes.(g);
      groups.(g).(k) <- fresh;
      Simnet.Net.recover net node;
      Array.iter
        (fun peer ->
          if (not (peer == fresh)) && not (Tapir.Replica.is_stopped peer)
          then begin
            let sn = Tapir.Replica.snapshot peer in
            Tapir.Replica.install fresh sn;
            acc.fa_transfer_msgs <- acc.fa_transfer_msgs + 1;
            acc.fa_transfer_bytes <-
              acc.fa_transfer_bytes + Tapir.Replica.snapshot_bytes sn
          end)
        groups.(g);
      acc.fa_restarts <- acc.fa_restarts + 1
    end
  in
  inject ~probe faults
    (make_cluster_ops engine net
       (Array.concat (Array.to_list group_nodes))
       ~regions
       ~on_heal:(fun () -> Avail.note_heal av ~now:(Engine.now engine))
       ~kill ~restart ());
  Engine.run_until engine ~limit:warm_end;
  finish_metrics ();
  let window_msgs = Simnet.Net.messages_delivered net - !msgs_at_warm in
  let cpus = all_cpus () in
  let cpu =
    List.fold_left
      (fun acc c -> acc +. Simnet.Cpu.utilization c ~duration:e.e_measure_us)
      0. cpus
    /. float_of_int (List.length cpus)
  in
  let msgs_per_txn =
    if Stats.committed stats = 0 then 0.
    else float_of_int window_msgs /. float_of_int (Stats.committed stats)
  in
  let recovery =
    {
      Stats.rc_kills = acc.fa_kills;
      rc_restarts = acc.fa_restarts;
      rc_transfer_msgs = acc.fa_transfer_msgs;
      rc_transfer_bytes = acc.fa_transfer_bytes;
      rc_catchups = acc.fa_restarts;
      rc_catchup_wait_us = 0;
      rc_ttr_write_us = Avail.ttr_write_us av;
      rc_ttr_wm_us = Avail.ttr_wm_us av;
    }
  in
  Stats.to_result stats ~label:e.e_label ~duration_us:e.e_measure_us
    ~cpu_utilization:cpu ~reexecs_per_txn:0. ~msgs_per_txn
    ~events:(events_of_engine engine) ~recovery
    ?avail:
      (if e.e_max_staleness_us > 0 then Some (Avail.result av) else None)
    ~engstat:(engstat_of_engine probe ~label:e.e_label engine)
    ?lineage:
      (if Obs.Lineage.enabled lineage then
         Some (Obs.Lineage.summary (Obs.Lineage.records lineage))
       else None)
    ()

(* --- Spanner (e_cores single-threaded groups, leaders spread) -------------- *)

let run_spanner ?on_txn ?faults ?(obs = Obs.Sink.null ())
    ?(prof = Obs.Profile.null ()) ?(mon = Obs.Monitor.null ())
    ?(flight = Obs.Flight.null ()) ?(lineage = Obs.Lineage.null ()) e =
  let probe = Obs.Engstat.start () in
  let engine = Engine.create () in
  let rng = Sim.Rng.create e.e_seed in
  let net = Simnet.Net.create engine (Sim.Rng.split rng) ~setup:e.e_setup () in
  let regions = Latency.regions e.e_setup in
  let n_groups = max 1 e.e_cores in
  let cfg =
    { Spanner.Config.default with n_groups;
      max_staleness_us = e.e_max_staleness_us }
  in
  let groups =
    Array.init n_groups (fun g ->
        Array.init (Spanner.Config.n_replicas cfg) (fun i ->
            Spanner.Replica.create ~cfg ~engine ~net ~group:g ~index:i
              ~region:regions.((g + i) mod Array.length regions) ~cores:1 ~prof
              ~mon ~lineage ()))
  in
  Obs.Monitor.register_views mon (fun () ->
      Array.to_list groups
      |> List.concat_map (fun group ->
             Array.to_list (Array.map Spanner.Replica.state_view group)));
  attach_flight ~engine ~net ~obs ~flight ~label:Spanner.Msg.label;
  let group_nodes = Array.map (Array.map Spanner.Replica.node) groups in
  Array.iteri
    (fun g group ->
      Array.iter (fun r -> Spanner.Replica.set_peers r group_nodes.(g)) group)
    groups;
  let leaders = Array.map (fun g -> Spanner.Replica.node g.(0)) groups in
  let data =
    match e.e_workload with
    | Tpcc conf -> Workload.Tpcc.initial_data conf
    | Retwis conf -> Workload.Retwis.initial_data conf
    | Ycsb conf -> Workload.Ycsb.initial_data conf
    | Smallbank conf -> Workload.Smallbank.initial_data conf
  in
  Array.iter (fun group -> Array.iter (fun r -> Spanner.Replica.load r data) group) groups;
  let stats = Stats.create () in
  let warm_start = e.e_warmup_us in
  let warm_end = e.e_warmup_us + e.e_measure_us in
  let av = Avail.create () in
  let record_phases (r : Spanner.Client.record) =
    Avail.note_txn av ~now:r.h_end_us
      ~in_window:(r.h_end_us >= warm_start && r.h_end_us < warm_end)
      ~ro:r.h_ro ~committed:r.h_committed ~staleness_us:r.h_staleness_us;
    if r.h_committed && r.h_end_us >= warm_start && r.h_end_us < warm_end
    then begin
      Stats.record_phase stats Stats.P_execute ~dur_us:r.h_exec_us;
      Stats.record_phase stats Stats.P_prepare ~dur_us:r.h_prepare_us;
      Stats.record_phase stats Stats.P_finalize ~dur_us:r.h_finalize_us
    end
  in
  let on_finish =
    match on_txn with
    | None -> record_phases
    | Some f ->
      fun r ->
        record_phases r;
        f (txn_of_spanner r)
  in
  let sampled = with_sampler e.e_workload in
  List.iteri
    (fun i () ->
      let partition =
        match e.e_workload with
        | Tpcc conf ->
          let home_group = (tpcc_home conf i - 1) mod n_groups in
          Workload.Tpcc.partition_of_key ~home_group ~n_groups
        | Retwis _ -> Workload.Retwis.partition_of_key ~n_groups
        | Ycsb _ -> Workload.Ycsb.partition_of_key ~n_groups
        | Smallbank _ -> Workload.Smallbank.partition_of_key ~n_groups
      in
      let client =
        Spanner.Client.create ~cfg ~engine ~net ~rng:(Sim.Rng.split rng)
          ~region:(client_region regions i) ~leaders ~partition
          ~groups:group_nodes ~obs ~prof ~mon ~lineage ~on_finish ()
      in
      let crng = Sim.Rng.split rng in
      let pick =
        match sampled with
        | S_tpcc conf ->
          let home_w = tpcc_home conf i in
          fun rng ->
            let kind = Workload.Tpcc.pick_kind rng in
            fun client rng done_ ->
              Obs.Lineage.next_txn_label lineage (Workload.Tpcc.kind_name kind);
              Spanner_tpcc.run conf client rng ~home_w kind done_
        | S_retwis zipf ->
          fun rng ->
            let kind = Workload.Retwis.pick_kind rng in
            fun client rng done_ ->
              Obs.Lineage.next_txn_label lineage
                (Workload.Retwis.kind_name kind);
              Spanner_retwis.run client rng zipf kind done_
        | S_ycsb (conf, zipf) ->
          fun _rng client rng done_ ->
            Obs.Lineage.next_txn_label lineage "ycsb";
            Spanner_ycsb.run conf client rng zipf done_
        | S_smallbank (conf, zipf) ->
          fun rng ->
            let kind = Workload.Smallbank.pick_kind rng in
            fun client rng done_ ->
              Obs.Lineage.next_txn_label lineage
                (Workload.Smallbank.kind_name kind);
              Spanner_smallbank.run conf client rng zipf kind done_
      in
      Spanner_driver.closed_loop ~engine ~rng:crng ~client ~pick ~stats ~warm_start
        ~warm_end ~prof ~comps:(fun () -> Spanner.Client.last_comps client)
        ~backoff_base_us:e.e_backoff_base_us ())
    (List.init e.e_clients (fun _ -> ()));
  (* Recompute at use: restarts swap fresh replica objects (and CPUs)
     into [groups]. *)
  let all_cpus () =
    Array.to_list groups
    |> List.concat_map (fun group ->
           Array.to_list (Array.map Spanner.Replica.cpu group))
  in
  let msgs_at_warm = ref 0 in
  Engine.post engine ~after:warm_start (fun () ->
      msgs_at_warm := Simnet.Net.messages_delivered net;
      List.iter Simnet.Cpu.reset_stats (all_cpus ()));
  let prev_busy = Array.make (n_groups * Spanner.Config.n_replicas cfg) 0 in
  let finish_metrics =
    install_metrics ~engine ~obs ~horizon:warm_end ~sample:(fun ~now ->
      Array.iteri
        (fun g group ->
          Array.iteri
            (fun k _ ->
              let r = groups.(g).(k) in
              let slot = (g * Array.length group) + k in
              Obs.Sink.sample obs
                {
                  Obs.Sink.sm_ts = now;
                  sm_replica = Printf.sprintf "g%dr%d" g k;
                  sm_cpu_busy =
                    busy_frac prev_busy ~slot ~cores:1
                      ~busy_us:(Simnet.Cpu.busy_us (Spanner.Replica.cpu r));
                  sm_queue = Simnet.Cpu.queue_length (Spanner.Replica.cpu r);
                  sm_records = Spanner.Replica.prepared_count r;
                  sm_versions = Spanner.Replica.store_size r;
                  sm_wmark_lag = 0;
                })
            group)
        groups)
  in
  let acc = fresh_acc () in
  let nrep = Spanner.Config.n_replicas cfg in
  let total = n_groups * nrep in
  let widx i = ((i mod total) + total) mod total in
  (* Amnesia for Spanner: followers only — the content-free Paxos
     emulation replicates record existence, not payloads, so a leader's
     committed writes survive nowhere else and killing one would
     ghost-lose committed data.  Restart installs the committed store
     from every surviving group peer (harness-level state transfer). *)
  let kill i =
    let i = widx i in
    let g = i / nrep and k = i mod nrep in
    let r = groups.(g).(k) in
    let dead =
      Array.fold_left
        (fun c r -> if Spanner.Replica.is_stopped r then c + 1 else c)
        0 groups.(g)
    in
    if k <> 0 && (not (Spanner.Replica.is_stopped r)) && dead < cfg.Spanner.Config.f
    then begin
      Spanner.Replica.stop r;
      Simnet.Net.crash net (Spanner.Replica.node r);
      Obs.Monitor.note_kill mon ~ts:(Engine.now engine)
        ~replica:(Printf.sprintf "g%dr%d" g k);
      acc.fa_kills <- acc.fa_kills + 1
    end
  in
  let restart i =
    let i = widx i in
    let g = i / nrep and k = i mod nrep in
    let old = groups.(g).(k) in
    if Spanner.Replica.is_stopped old then begin
      let node = Spanner.Replica.node old in
      let fresh =
        Spanner.Replica.create_at ~node ~cfg ~engine ~net ~group:g ~index:k
          ~cores:1 ~prof ~mon ~lineage ()
      in
      Spanner.Replica.set_peers fresh (Array.map Spanner.Replica.node groups.(g));
      groups.(g).(k) <- fresh;
      Simnet.Net.recover net node;
      Array.iter
        (fun peer ->
          if (not (peer == fresh)) && not (Spanner.Replica.is_stopped peer)
          then begin
            let sn = Spanner.Replica.snapshot peer in
            Spanner.Replica.install fresh sn;
            acc.fa_transfer_msgs <- acc.fa_transfer_msgs + 1;
            acc.fa_transfer_bytes <-
              acc.fa_transfer_bytes + Spanner.Replica.snapshot_bytes sn
          end)
        groups.(g);
      acc.fa_restarts <- acc.fa_restarts + 1
    end
  in
  inject ~probe faults
    (make_cluster_ops engine net
       (Array.concat (Array.to_list group_nodes))
       ~regions
       ~on_heal:(fun () -> Avail.note_heal av ~now:(Engine.now engine))
       ~kill ~restart ());
  Engine.run_until engine ~limit:warm_end;
  finish_metrics ();
  let window_msgs = Simnet.Net.messages_delivered net - !msgs_at_warm in
  let cpus = all_cpus () in
  let cpu =
    List.fold_left
      (fun acc c -> acc +. Simnet.Cpu.utilization c ~duration:e.e_measure_us)
      0. cpus
    /. float_of_int (List.length cpus)
  in
  let msgs_per_txn =
    if Stats.committed stats = 0 then 0.
    else float_of_int window_msgs /. float_of_int (Stats.committed stats)
  in
  let recovery =
    {
      Stats.rc_kills = acc.fa_kills;
      rc_restarts = acc.fa_restarts;
      rc_transfer_msgs = acc.fa_transfer_msgs;
      rc_transfer_bytes = acc.fa_transfer_bytes;
      rc_catchups = acc.fa_restarts;
      rc_catchup_wait_us = 0;
      rc_ttr_write_us = Avail.ttr_write_us av;
      rc_ttr_wm_us = Avail.ttr_wm_us av;
    }
  in
  Stats.to_result stats ~label:e.e_label ~duration_us:e.e_measure_us
    ~cpu_utilization:cpu ~reexecs_per_txn:0. ~msgs_per_txn
    ~events:(events_of_engine engine) ~recovery
    ?avail:
      (if e.e_max_staleness_us > 0 then Some (Avail.result av) else None)
    ~engstat:(engstat_of_engine probe ~label:e.e_label engine)
    ?lineage:
      (if Obs.Lineage.enabled lineage then
         Some (Obs.Lineage.summary (Obs.Lineage.records lineage))
       else None)
    ()

let run_exp ?on_txn ?faults ?obs ?prof ?mon ?flight ?lineage e =
  match e.e_system with
  | Morty ->
    run_morty ?on_txn ?faults ?obs ?prof ?mon ?flight ?lineage e
      ~reexecution:true
  | Mvtso ->
    run_morty ?on_txn ?faults ?obs ?prof ?mon ?flight ?lineage e
      ~reexecution:false
  | Tapir -> run_tapir ?on_txn ?faults ?obs ?prof ?mon ?flight ?lineage e
  | Tapir_nodist ->
    run_tapir ~no_dist:true ?on_txn ?faults ?obs ?prof ?mon ?flight ?lineage e
  | Spanner -> run_spanner ?on_txn ?faults ?obs ?prof ?mon ?flight ?lineage e

let run_exp_audited ?faults ?obs ?prof ?mon ?flight ?lineage e =
  let txns = ref [] in
  let result =
    run_exp ~on_txn:(fun t -> txns := t :: !txns) ?faults ?obs ?prof ?mon
      ?flight ?lineage e
  in
  (result, List.rev !txns)

let run_morty_with_config ?obs ?prof ?mon ?flight ?lineage e cfg =
  run_morty ~cfg ?obs ?prof ?mon ?flight ?lineage e
    ~reexecution:cfg.Morty.Config.reexecution

let find_peak ?(runner = List.map (fun f -> f ())) mk ~client_counts =
  let results = runner (List.map (fun n () -> run_exp (mk n)) client_counts) in
  match results with
  | [] -> invalid_arg "find_peak: no client counts"
  | first :: rest ->
    List.fold_left
      (fun best r -> if r.Stats.r_goodput > best.Stats.r_goodput then r else best)
      first rest

(* --- Availability timeline (extension): goodput around a replica
   outage.  Models a transient outage: the replica's state survives and
   it resumes from where it was (a network blip / process pause, not a
   disk loss). *)

let run_failover ?victim e ~crash_at_us ~recover_at_us ~bucket_us =
  let engine = Engine.create () in
  let rng = Sim.Rng.create e.e_seed in
  let net = Simnet.Net.create engine (Sim.Rng.split rng) ~setup:e.e_setup () in
  let regions = Latency.regions e.e_setup in
  let cfg =
    let base =
      { Morty.Config.default with prepare_timeout_us = timeout_for e.e_setup }
    in
    match e.e_system with
    | Mvtso -> Morty.Config.mvtso base
    | Morty | Tapir | Tapir_nodist | Spanner -> base
  in
  let replicas =
    Array.init (Morty.Config.n_replicas cfg) (fun i ->
        Morty.Replica.create ~cfg ~engine ~net ~rng:(Sim.Rng.split rng) ~index:i
          ~region:regions.(i mod Array.length regions) ~cores:e.e_cores ())
  in
  let peers = Array.map Morty.Replica.node replicas in
  Array.iter (fun r -> Morty.Replica.set_peers r peers) replicas;
  let data =
    match e.e_workload with
    | Tpcc conf -> Workload.Tpcc.initial_data conf
    | Retwis conf -> Workload.Retwis.initial_data conf
    | Ycsb conf -> Workload.Ycsb.initial_data conf
    | Smallbank conf -> Workload.Smallbank.initial_data conf
  in
  Array.iter (fun r -> Morty.Replica.load r data) replicas;
  let horizon = e.e_warmup_us + e.e_measure_us in
  let n_buckets = (horizon / bucket_us) + 1 in
  let buckets = Array.make n_buckets 0 in
  let sampled = with_sampler e.e_workload in
  List.iter
    (fun i ->
      let client =
        Morty.Client.create ~cfg ~engine ~net ~rng:(Sim.Rng.split rng)
          ~region:(client_region regions i) ~replicas:peers ()
      in
      let crng = Sim.Rng.split rng in
      let pick =
        match sampled with
        | S_retwis zipf ->
          fun rng ->
            let kind = Workload.Retwis.pick_kind rng in
            fun client rng done_ -> Morty_retwis.run client rng zipf kind done_
        | S_tpcc conf ->
          let home_w = tpcc_home conf i in
          fun rng ->
            let kind = Workload.Tpcc.pick_kind rng in
            fun client rng done_ -> Morty_tpcc.run conf client rng ~home_w kind done_
        | S_ycsb (conf, zipf) ->
          fun _rng client rng done_ -> Morty_ycsb.run conf client rng zipf done_
        | S_smallbank (conf, zipf) ->
          fun rng ->
            let kind = Workload.Smallbank.pick_kind rng in
            fun client rng done_ -> Morty_smallbank.run conf client rng zipf kind done_
      in
      let rec next () =
        if Engine.now engine < horizon then begin
          let run = pick crng in
          attempt run 0
        end
      and attempt run n =
        run client crng (fun outcome ->
            let now = Engine.now engine in
            match outcome with
            | Outcome.Committed ->
              let b = now / bucket_us in
              if b < n_buckets then buckets.(b) <- buckets.(b) + 1;
              next ()
            | Outcome.Aborted _ ->
              if now < horizon then
                let wait =
                  Sim.Backoff.full_jitter crng ~base_us:e.e_backoff_base_us
                    ~cap_us:backoff_cap_us ~attempt:n
                in
                Engine.post engine ~after:wait (fun () ->
                    attempt run (n + 1)))
      in
      next ())
    (List.init e.e_clients (fun i -> i));
  let ops =
    morty_ops ~engine ~net ~rng ~cfg ~cores:e.e_cores ~prof:(Obs.Profile.null ())
      ~mon:(Obs.Monitor.null ()) ~regions ~replicas ~peers ~acc:(fresh_acc ())
      ()
  in
  let victim =
    match victim with Some v -> v | None -> Array.length replicas - 1
  in
  Engine.post engine ~after:crash_at_us (fun () -> ops.co_crash victim);
  Engine.post engine ~after:recover_at_us (fun () -> ops.co_recover victim);
  Engine.run_until engine ~limit:horizon;
  Array.to_list (Array.mapi (fun i c -> (i * bucket_us, c)) buckets)
