(* Streaming accumulators: latency is an HDR histogram (O(1) record, no
   sort-per-call percentiles), aborts are counted per taxonomy entry,
   and per-phase virtual time is accumulated in its own histograms. *)

type phase = P_execute | P_prepare | P_finalize | P_backoff

let phase_index = function
  | P_execute -> 0
  | P_prepare -> 1
  | P_finalize -> 2
  | P_backoff -> 3

let n_phases = 4

type t = {
  lat : Obs.Hist.t;
  phases : Obs.Hist.t array;  (* per committed txn, by phase_index *)
  aborts : int array;  (* by Obs.Abort_reason.index *)
}

let create () =
  {
    lat = Obs.Hist.create ();
    phases = Array.init n_phases (fun _ -> Obs.Hist.create ());
    aborts = Array.make Obs.Abort_reason.count 0;
  }

let record_commit t ~latency_us = Obs.Hist.record t.lat latency_us

let record_abort t ~reason =
  let i = Obs.Abort_reason.index reason in
  t.aborts.(i) <- t.aborts.(i) + 1

let record_phase t phase ~dur_us = Obs.Hist.record t.phases.(phase_index phase) dur_us

let committed t = Obs.Hist.count t.lat

let aborted t = Array.fold_left ( + ) 0 t.aborts

let aborts_by_reason t =
  List.map (fun r -> (r, t.aborts.(Obs.Abort_reason.index r))) Obs.Abort_reason.all

let commit_rate t =
  let commits = committed t in
  let attempts = commits + aborted t in
  if attempts = 0 then 1.0 else float_of_int commits /. float_of_int attempts

let mean_latency_us t = Obs.Hist.mean t.lat

let percentile_latency_us t p = Obs.Hist.percentile t.lat p

type recovery = {
  rc_kills : int;
  rc_restarts : int;
  rc_transfer_msgs : int;
  rc_transfer_bytes : int;
  rc_catchups : int;
  rc_catchup_wait_us : int;
  rc_ttr_write_us : int;
  rc_ttr_wm_us : int;
}

let no_recovery =
  {
    rc_kills = 0;
    rc_restarts = 0;
    rc_transfer_msgs = 0;
    rc_transfer_bytes = 0;
    rc_catchups = 0;
    rc_catchup_wait_us = 0;
    rc_ttr_write_us = 0;
    rc_ttr_wm_us = 0;
  }

type avail = {
  av_ro_committed : int;
  av_ro_aborted : int;
  av_read_avail : float;
  av_write_avail : float;
  av_stale_p99_ms : float;
}

let no_avail =
  {
    av_ro_committed = 0;
    av_ro_aborted = 0;
    av_read_avail = 1.;
    av_write_avail = 1.;
    av_stale_p99_ms = 0.;
  }

type events = { ev_timers : int; ev_deliveries : int; ev_tickers : int }

let no_events = { ev_timers = 0; ev_deliveries = 0; ev_tickers = 0 }

let no_lineage =
  {
    Obs.Lineage.s_txns = 0;
    s_edges = 0;
    s_cascades = 0;
    s_depth_p99 = 0.;
    s_depth_max = 0;
    s_salvaged_us = 0;
    s_lost_us = 0;
    s_hot_key = "-";
  }

type result = {
  r_label : string;
  r_committed : int;
  r_aborted : int;
  r_aborts_by : (Obs.Abort_reason.t * int) list;
  r_goodput : float;
  r_mean_latency_ms : float;
  r_p50_latency_ms : float;
  r_p99_latency_ms : float;
  r_commit_rate : float;
  r_cpu_utilization : float;
  r_reexecs_per_txn : float;
  r_msgs_per_txn : float;
  r_exec_ms : float;
  r_prepare_ms : float;
  r_finalize_ms : float;
  r_backoff_ms : float;
  r_events : events;
  r_recovery : recovery;
  r_avail : avail;
  r_engstat : Obs.Engstat.t;
  r_lineage : Obs.Lineage.summary;
}

let to_result t ~label ~duration_us ~cpu_utilization ~reexecs_per_txn
    ?(msgs_per_txn = 0.) ?(events = no_events) ?(recovery = no_recovery)
    ?(avail = no_avail) ?engstat ?(lineage = no_lineage) () =
  let phase_ms p = Obs.Hist.mean t.phases.(phase_index p) /. 1000. in
  let engstat =
    match engstat with Some e -> e | None -> Obs.Engstat.zero ~label
  in
  {
    r_label = label;
    r_committed = committed t;
    r_aborted = aborted t;
    r_aborts_by = aborts_by_reason t;
    r_goodput = float_of_int (committed t) /. (float_of_int duration_us /. 1_000_000.);
    r_mean_latency_ms = mean_latency_us t /. 1000.;
    r_p50_latency_ms = percentile_latency_us t 0.50 /. 1000.;
    r_p99_latency_ms = percentile_latency_us t 0.99 /. 1000.;
    r_commit_rate = commit_rate t;
    r_cpu_utilization = cpu_utilization;
    r_reexecs_per_txn = reexecs_per_txn;
    r_msgs_per_txn = msgs_per_txn;
    r_exec_ms = phase_ms P_execute;
    r_prepare_ms = phase_ms P_prepare;
    r_finalize_ms = phase_ms P_finalize;
    r_backoff_ms = phase_ms P_backoff;
    r_events = events;
    r_recovery = recovery;
    r_avail = avail;
    r_engstat = engstat;
    r_lineage = lineage;
  }

let abort_count r reason =
  match List.assoc_opt reason r.r_aborts_by with Some n -> n | None -> 0

(* One seed's ledger row.  Order is part of the artifact: the ledger
   commits metric names in this order and the det projection is
   byte-diffed, so only ever append. *)
let ledger_metrics r =
  let f = float_of_int in
  let es = r.r_engstat in
  let d = es.Obs.Engstat.es_det in
  let hp = d.Obs.Engstat.de_heap in
  let li = r.r_lineage in
  let g = es.Obs.Engstat.es_host.Obs.Engstat.ho_gc in
  let det =
    [
      ("committed", f r.r_committed);
      ("aborted", f r.r_aborted);
      ("goodput", r.r_goodput);
      ("p50_ms", r.r_p50_latency_ms);
      ("p99_ms", r.r_p99_latency_ms);
      ("commit_rate", r.r_commit_rate);
      ("reexecs_per_txn", r.r_reexecs_per_txn);
      ("msgs_per_txn", r.r_msgs_per_txn);
      ("ev_timers", f r.r_events.ev_timers);
      ("ev_deliveries", f r.r_events.ev_deliveries);
      ("ev_tickers", f r.r_events.ev_tickers);
      ("heap_pushes", f hp.Obs.Engstat.hp_pushes);
      ("heap_pops", f hp.Obs.Engstat.hp_pops);
      ("heap_cancels", f hp.Obs.Engstat.hp_cancels);
      ("heap_max_live", f hp.Obs.Engstat.hp_max_live);
      ("lin_cascades", f li.Obs.Lineage.s_cascades);
      ("lin_depth_max", f li.Obs.Lineage.s_depth_max);
      ("lin_salvaged_us", f li.Obs.Lineage.s_salvaged_us);
      ("lin_lost_us", f li.Obs.Lineage.s_lost_us);
    ]
  in
  let host =
    [
      ("events_per_s", Obs.Engstat.events_per_s es);
      ("wall_s", f es.Obs.Engstat.es_host.Obs.Engstat.ho_wall_ns /. 1e9);
      ("gc_minor_mwords", g.Obs.Engstat.gc_minor_words /. 1e6);
      ("gc_major_mwords", g.Obs.Engstat.gc_major_words /. 1e6);
      ("minor_gcs", f g.Obs.Engstat.gc_minor_collections);
      ("major_gcs", f g.Obs.Engstat.gc_major_collections);
      ("setup_s", f es.Obs.Engstat.es_host.Obs.Engstat.ho_setup_ns /. 1e9);
      ("sim_s", f es.Obs.Engstat.es_host.Obs.Engstat.ho_sim_ns /. 1e9);
    ]
  in
  (det, host)

let pp_result_header ppf () =
  Fmt.pf ppf "%-28s %10s %9s %9s %9s %7s %6s %7s %7s %8s %8s %8s %8s" "config"
    "goodput/s" "mean(ms)" "p50(ms)" "p99(ms)" "commit%" "cpu%" "reex/tx"
    "msg/tx" "exec(ms)" "prep(ms)" "fin(ms)" "back(ms)"

let pp_result ppf r =
  Fmt.pf ppf "%-28s %10.0f %9.1f %9.1f %9.1f %7.1f %6.1f %7.2f %7.1f %8.2f %8.2f %8.2f %8.2f"
    r.r_label r.r_goodput r.r_mean_latency_ms r.r_p50_latency_ms
    r.r_p99_latency_ms
    (100. *. r.r_commit_rate)
    (100. *. r.r_cpu_utilization)
    r.r_reexecs_per_txn r.r_msgs_per_txn r.r_exec_ms r.r_prepare_ms
    r.r_finalize_ms r.r_backoff_ms;
  let nonzero = List.filter (fun (_, n) -> n > 0) r.r_aborts_by in
  if nonzero <> [] then begin
    Fmt.pf ppf " aborts{";
    List.iteri
      (fun i (reason, n) ->
        if i > 0 then Fmt.pf ppf ",";
        Fmt.pf ppf "%a=%d" Obs.Abort_reason.pp reason n)
      nonzero;
    Fmt.pf ppf "}"
  end

let pp_recovery ppf r =
  let rc = r.r_recovery in
  Fmt.pf ppf
    "%-28s kills=%d restarts=%d transfer_msgs=%d transfer_bytes=%d \
     catchups=%d catchup_ms=%.1f"
    r.r_label rc.rc_kills rc.rc_restarts rc.rc_transfer_msgs
    rc.rc_transfer_bytes rc.rc_catchups
    (float_of_int rc.rc_catchup_wait_us /. 1000.);
  if rc.rc_ttr_write_us > 0 || rc.rc_ttr_wm_us > 0 then
    Fmt.pf ppf " ttr_write_ms=%.1f ttr_wm_ms=%.1f"
      (float_of_int rc.rc_ttr_write_us /. 1000.)
      (float_of_int rc.rc_ttr_wm_us /. 1000.)

let pp_avail ppf r =
  let a = r.r_avail in
  Fmt.pf ppf
    "%-28s ro_committed=%d ro_aborted=%d read_avail=%.4f write_avail=%.4f \
     stale_p99_ms=%.1f"
    r.r_label a.av_ro_committed a.av_ro_aborted a.av_read_avail
    a.av_write_avail a.av_stale_p99_ms

(* The first 17 columns are the pre-observability schema, kept stable
   (r_aborted remains the taxonomy sum) so existing CSV consumers keep
   working; phase, per-reason, and event-kind columns append after. *)
let csv_header =
  "label,committed,aborted,goodput_per_s,mean_latency_ms,p50_latency_ms,\
p99_latency_ms,commit_rate,cpu_utilization,reexecs_per_txn,msgs_per_txn,\
kills,restarts,transfer_msgs,transfer_bytes,catchups,catchup_wait_us,\
exec_ms,prepare_ms,finalize_ms,backoff_ms,\
ab_missed_write,ab_validation_fail,ab_lock_conflict,ab_watermark_abandon,\
ab_recovery_stall,ab_timeout,ab_user_abort,ab_stale_replica,\
ev_timers,ev_deliveries,ev_tickers,\
ro_committed,ro_aborted,read_avail,write_avail,stale_p99_ms,\
ttr_write_ms,ttr_wm_ms,\
eng_heap_pushes,eng_heap_pops,eng_heap_cancels,eng_heap_ghost_drains,\
eng_heap_max_live,eng_heap_max_raw,\
lin_cascades,lin_depth_p99,lin_depth_max,lin_salvaged_us,lin_lost_us,\
lin_hot_key"

let to_csv_row r =
  let ab reason = abort_count r reason in
  let hp = r.r_engstat.Obs.Engstat.es_det.Obs.Engstat.de_heap in
  let li = r.r_lineage in
  Printf.sprintf
    "%s,%d,%d,%.1f,%.3f,%.3f,%.3f,%.4f,%.4f,%.3f,%.2f,%d,%d,%d,%d,%d,%d,\
%.3f,%.3f,%.3f,%.3f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,\
%d,%d,%.4f,%.4f,%.3f,%.3f,%.3f,%d,%d,%d,%d,%d,%d,\
%d,%.2f,%d,%d,%d,%s"
    r.r_label r.r_committed r.r_aborted r.r_goodput r.r_mean_latency_ms
    r.r_p50_latency_ms r.r_p99_latency_ms r.r_commit_rate r.r_cpu_utilization
    r.r_reexecs_per_txn r.r_msgs_per_txn r.r_recovery.rc_kills
    r.r_recovery.rc_restarts r.r_recovery.rc_transfer_msgs
    r.r_recovery.rc_transfer_bytes r.r_recovery.rc_catchups
    r.r_recovery.rc_catchup_wait_us r.r_exec_ms r.r_prepare_ms r.r_finalize_ms
    r.r_backoff_ms
    (ab Obs.Abort_reason.Missed_write)
    (ab Obs.Abort_reason.Validation_fail)
    (ab Obs.Abort_reason.Lock_conflict)
    (ab Obs.Abort_reason.Watermark_abandon)
    (ab Obs.Abort_reason.Recovery_stall)
    (ab Obs.Abort_reason.Timeout)
    (ab Obs.Abort_reason.User_abort)
    (ab Obs.Abort_reason.Stale_replica)
    r.r_events.ev_timers r.r_events.ev_deliveries r.r_events.ev_tickers
    r.r_avail.av_ro_committed r.r_avail.av_ro_aborted r.r_avail.av_read_avail
    r.r_avail.av_write_avail r.r_avail.av_stale_p99_ms
    (float_of_int r.r_recovery.rc_ttr_write_us /. 1000.)
    (float_of_int r.r_recovery.rc_ttr_wm_us /. 1000.)
    hp.Obs.Engstat.hp_pushes hp.Obs.Engstat.hp_pops hp.Obs.Engstat.hp_cancels
    hp.Obs.Engstat.hp_ghost_drains hp.Obs.Engstat.hp_max_live
    hp.Obs.Engstat.hp_max_raw li.Obs.Lineage.s_cascades
    li.Obs.Lineage.s_depth_p99 li.Obs.Lineage.s_depth_max
    li.Obs.Lineage.s_salvaged_us li.Obs.Lineage.s_lost_us
    li.Obs.Lineage.s_hot_key
