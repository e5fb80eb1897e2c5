(** Simulated multi-core processor pool.

    A replica with [cores] workers processes up to [cores] jobs
    concurrently; excess jobs queue FIFO.  This is what lets the
    reproduction measure (a) multi-core throughput scaling (Fig. 8) and
    (b) the paper's observation that TAPIR/Spanner replicas sit at ≤17 %
    CPU under contention — their clients are backing off, so the cores
    are idle. *)

type t

val create : Sim.Engine.t -> cores:int -> t

val cores : t -> int

val submit :
  t ->
  ?prov:(queue_us:int -> unit) ->
  cost:int ->
  (unit -> unit) ->
  unit
(** [submit t ~cost f] runs [f] once a core has been free for [cost]
    microseconds of service time.  Jobs are served FIFO.

    [prov] is a provenance hook for the critical-path profiler: it is
    invoked at service completion (just before [f]) with the job's
    queueing delay.  It must be read-only with respect to simulation
    state. *)

val busy_us : t -> int
(** Cumulative core-busy microseconds consumed so far. *)

val completed : t -> int
(** Number of jobs completed. *)

val queue_length : t -> int
(** Jobs waiting for a core right now. *)

val utilization : t -> duration:int -> float
(** [utilization t ~duration] is busy time divided by [cores * duration],
    in [\[0, 1\]]. *)

val reset_stats : t -> unit
(** Zero the busy/completed counters (called at the end of warm-up).
    Jobs in flight across the reset are charged only for the portion of
    their service time that falls after it, so utilization measured over
    the post-reset window cannot exceed 1.0. *)
