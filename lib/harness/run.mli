(** Experiment runner: build a cluster of the chosen system on the
    simulated network, drive closed-loop clients through a workload, and
    measure goodput/latency/commit-rate/CPU exactly as §5 does.

    Core-count semantics follow the paper (§5 Setup): Morty and the
    MVTSO baseline run {e one} replica group whose replicas have
    [e_cores] worker cores; TAPIR and Spanner keep their single-threaded
    replication and instead get [e_cores] replica {e groups} (partitioned
    data), each replica having one core. *)

type system =
  | Morty
  | Mvtso
  | Tapir
  | Tapir_nodist
      (** TAPIR on a workload with no cross-group transactions — the
          best-case scaling reference of Fig. 8a *)
  | Spanner

val system_name : system -> string

val system_of_string : string -> system option

val all_systems : system list
(** The four systems of the paper's comparison (excludes the
    [Tapir_nodist] reference). *)

type workload =
  | Tpcc of Workload.Tpcc.conf
  | Retwis of Workload.Retwis.conf
  | Ycsb of Workload.Ycsb.conf
      (** parametric read/RMW microbenchmark (extension; see
          [Workload.Ycsb]) *)
  | Smallbank of Workload.Smallbank.conf
      (** banking benchmark with write-skew-shaped transactions
          (extension; see [Workload.Smallbank]) *)

type exp = {
  e_system : system;
  e_setup : Simnet.Latency.setup;
  e_workload : workload;
  e_clients : int;
  e_cores : int;
  e_warmup_us : int;
  e_measure_us : int;
  e_seed : int;
  e_label : string;
  e_backoff_base_us : int;
      (** randomized exponential backoff base for abort retries *)
  e_max_staleness_us : int;
      (** follower-read staleness bound: [begin_ro] transactions may be
          served by any replica whose watermark lags real time by at
          most this much.  [0] (the default) disables the follower-read
          path entirely — RO transactions run exactly as read-write
          ones and no new timers or RNG draws are introduced, keeping
          seeded histories identical to earlier revisions. *)
}

val default_exp : exp
(** Morty, REG, Retwis θ=0.9, 24 clients, 4 cores, 0.5 s warm-up, 2 s
    measurement. *)

type cluster_ops = {
  co_engine : Sim.Engine.t;
  co_n_replicas : int;  (** replicas across all groups, flattened *)
  co_crash : int -> unit;  (** crash replica [i mod n] (net-level) *)
  co_recover : int -> unit;
  co_kill : int -> unit;
      (** amnesia-crash replica [i mod n]: stop the incarnation, lose
          all in-memory state, crash its node.  Refused (no-op) when it
          would exceed [f] concurrently-amnesiac replicas in the
          victim's group, or when the victim is a Spanner leader (whose
          state the content-free Paxos emulation cannot recover). *)
  co_restart : int -> unit;
      (** bring up a {e fresh} incarnation on the dead replica's node
          and start peer catch-up (protocol-level for Morty/MVTSO,
          instantaneous snapshot install for TAPIR/Spanner).  No-op
          unless replica [i mod n] is currently killed. *)
  co_isolate : int -> unit;
      (** cut both directions between replica [i mod n] and every other
          node currently registered (replicas and clients) *)
  co_heal_all : unit -> unit;  (** remove all link cuts *)
  co_partition : int -> unit;
      (** named datacenter cut: isolate every node (replicas {e and}
          clients) of latency region [g mod n_regions] from the rest of
          the network.  Idempotent while active; resolved at fire time
          so late-registered clients are included. *)
  co_heal : int -> unit;
      (** heal the named cut of region [g mod n_regions], restoring
          exactly the links it severed; no-op when not active *)
  co_set_loss : float -> unit;  (** global message-loss probability *)
  co_set_extra_delay : int -> unit;  (** extra uniform delay cap, µs *)
}
(** Monomorphic fault-injection surface over the experiment's cluster,
    handed to the [?faults] callback after setup and before the run.
    The callback schedules its events on [co_engine]; replica indices
    wrap mod [co_n_replicas], so one schedule is valid for every
    system. *)

val run_exp :
  ?on_txn:(Adya.History.txn -> unit) ->
  ?faults:(cluster_ops -> unit) ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Profile.t ->
  ?mon:Obs.Monitor.t ->
  ?flight:Obs.Flight.t ->
  ?lineage:Obs.Lineage.t ->
  exp ->
  Stats.result
(** [on_txn] receives one {!Adya.History.txn} per finished transaction
    (all four systems), in finish order over the whole run including
    warm-up — the raw material for the serializability audit.  [faults]
    may schedule crash/partition/loss/delay events via the
    {!cluster_ops}.  [obs] (default {!Obs.Sink.null}) collects span
    traces from every client and, when enabled, per-replica metrics
    samples on a read-only virtual-time ticker.  [prof] (default
    {!Obs.Profile.null}) collects the critical-path profile: per-txn
    latency decomposition for measurement-window commits, the
    wasted-work ledger over replica CPU time, and the key-contention
    heatmap.  [mon] (default {!Obs.Monitor.null}) receives every
    replica's and coordinator's state-transition hooks, the cluster's
    {!Obs.Monitor.state_view} source and kill incidents.  [flight]
    (default {!Obs.Flight.null}) taps engine dispatches, message traffic
    and span openings into its bounded ring.  [lineage] (default
    {!Obs.Lineage.null}) records per-transaction causal lineage —
    reads with superseding writers, re-execution triggers with
    aggressors, typed abort blame — from every client {e and} replica
    of the run; workload kind labels are staged per attempt, and the
    run's {!Obs.Lineage.summary} lands in [Stats.r_lineage].  None of
    the five draws randomness or alters scheduling, so enabling them
    never changes the simulated history. *)

val run_exp_audited :
  ?faults:(cluster_ops -> unit) ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Profile.t ->
  ?mon:Obs.Monitor.t ->
  ?flight:Obs.Flight.t ->
  ?lineage:Obs.Lineage.t ->
  exp ->
  Stats.result * Adya.History.txn list
(** {!run_exp} plus the recorded history, in transaction-finish order.
    Feed the list to [Adya.History.of_list] / [Adya.Dsg.check] (or to
    [Explore.Audit.check], which also applies the sanity
    invariants). *)

val morty_cluster :
  ?prof:Obs.Profile.t ->
  ?mon:Obs.Monitor.t ->
  ?lineage:Obs.Lineage.t ->
  cfg:Morty.Config.t ->
  engine:Sim.Engine.t ->
  net:Morty.Msg.t Simnet.Net.t ->
  rng:Sim.Rng.t ->
  exp ->
  Morty.Replica.t array
(** The replicas of a Morty/MVTSO run of [exp], as {!run_exp} builds
    them before any event fires: one per region round-robin, peered,
    each attached to the same base of the workload's initial data. *)

val run_morty_with_config :
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Profile.t ->
  ?mon:Obs.Monitor.t ->
  ?flight:Obs.Flight.t ->
  ?lineage:Obs.Lineage.t ->
  exp ->
  Morty.Config.t ->
  Stats.result
(** Run the Morty/MVTSO cluster with an explicit configuration — the
    ablation benches use this to toggle eager visibility, the fast path,
    and the re-execution cap. *)

val find_peak :
  ?runner:((unit -> Stats.result) list -> Stats.result list) ->
  (int -> exp) ->
  client_counts:int list ->
  Stats.result
(** Run the experiment at each offered load and return the result with
    the highest goodput — the "maximum goodput" the paper reports in
    Figures 8 and 9.  [runner] (default: run each thunk in order on the
    calling domain) evaluates the per-load runs; the parallel bench
    passes a pool-backed runner that preserves list order, so the
    strict-greater/first-wins fold picks the same peak either way. *)

val run_failover :
  ?victim:int ->
  exp ->
  crash_at_us:int ->
  recover_at_us:int ->
  bucket_us:int ->
  (int * int) list
(** Availability timeline (extension): run the Morty/MVTSO cluster of
    [exp], crash replica [victim] (default: the last replica) at
    [crash_at_us] and un-crash it at [recover_at_us] (a transient
    outage — state survives), and return committed-transaction counts
    per [bucket_us] time bucket.  The fault is routed through the same
    {!cluster_ops} surface the explorer uses. *)
