(** Morty transaction coordinator / client library (§4.1–§4.2).

    Implements the CPS API of {!Cc_types.Kv_api.S} with transparent
    partial re-execution:

    - every [Get] stores the application's continuation; when the serving
      replica pushes an unsolicited [Get_reply] showing that a read
      missed a write, the coordinator unrolls the execution back to that
      read, bumps the execution id, and re-invokes the stored
      continuation with the new value — the continuation's closure
      replays all downstream application logic;
    - commit runs the Prepare / (Finalize) / Decide protocol, with the
      fast path at 2f+1 matching Commit votes (Table 1);
    - a re-execution triggered after Prepare began first durably abandons
      the in-flight execution (Finalize–Abandon at f+1 replicas) before
      the re-execution may enter the commit protocol;
    - with [Config.reexecution = false] this degrades to the replicated
      MVTSO baseline: misses are ignored, abandons abort the transaction
      and the caller retries under randomized exponential backoff. *)

type t

type ctx

type stats = {
  mutable begun : int;
  mutable committed : int;
  mutable aborted : int;
  mutable reexecs : int;  (** partial re-executions triggered *)
  mutable miss_notifications : int;  (** unsolicited replies received *)
  mutable fast_commits : int;  (** decisions durable after Prepare alone *)
  mutable slow_commits : int;  (** decisions requiring Finalize *)
}

type record = {
  h_ver : Cc_types.Version.t;
  h_committed : bool;
  h_abort : Obs.Abort_reason.t option;  (** classified cause on abort *)
  h_reads : (string * Cc_types.Version.t) list;
  h_writes : string list;
  h_start_us : int;
  h_end_us : int;
  h_reexecs : int;
  h_exec_us : int;  (** virtual time spent executing (incl. re-exec) *)
  h_prepare_us : int;  (** virtual time spent in Prepare rounds *)
  h_finalize_us : int;  (** virtual time spent in Finalize rounds *)
  h_ro : bool;  (** ran on the follower-read (snapshot) path *)
  h_staleness_us : int;
      (** snapshot staleness at pin time (clock − watermark); [0] for
          read-write transactions and unpinned aborts *)
}
(** Per-transaction history record, fed to the Adya oracle by tests. *)

val create :
  cfg:Config.t ->
  engine:Sim.Engine.t ->
  net:Msg.t Simnet.Net.t ->
  rng:Sim.Rng.t ->
  region:Simnet.Latency.region ->
  replicas:int array ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Profile.t ->
  ?mon:Obs.Monitor.t ->
  ?lineage:Obs.Lineage.t ->
  ?on_finish:(record -> unit) ->
  unit ->
  t
(** Register a client node in [region].  [replicas] are the replica node
    ids in index order; reads go to the replica co-located with the
    client's region (the first one whose region matches, else replica
    0).  [prof] receives latency decomposition, outcome and re-execution
    hooks (default {!Obs.Profile.null}); [mon] (default
    {!Obs.Monitor.null}) checks fast-path vote consistency; [lineage]
    (default {!Obs.Lineage.null}) records per-transaction reads,
    re-executions with trigger and aggressor, and typed finishes. *)

val node : t -> Simnet.Net.node

val stats : t -> stats

val last_comps : t -> int array
(** Latency-component cells accumulated for the transaction currently
    (or most recently) driven by this client; see {!Obs.Profile}.  The
    closed-loop driver snapshots this per attempt.  Only maintained
    when the client was created with an enabled profiler. *)

(** {1 The CPS transactional API} *)

val begin_ : t -> (ctx -> unit) -> unit

val begin_ro : t -> (ctx -> unit) -> unit
(** With [Config.max_staleness_us = 0] (default), same as {!begin_}.
    Otherwise the transaction becomes a follower read: the client pins
    a snapshot at some replica's truncation watermark (closest replica
    first, redirecting across replicas under capped jittered backoff
    when one is unreachable or its watermark lags the staleness bound),
    reads run at that snapshot on the pinned replica alone, and commit
    needs no validation.  When every reachable replica is too stale the
    transaction aborts with {!Obs.Abort_reason.Stale_replica}; when
    none is reachable at all, with [Timeout].  The body may be re-run
    in full if a re-pin becomes necessary mid-flight (the watermark
    overtook the snapshot, or the pinned replica went silent). *)

val get : t -> ctx -> string -> (ctx -> string -> unit) -> unit

val get_for_update : t -> ctx -> string -> (ctx -> string -> unit) -> unit
(** Same as {!get}: MVTSO needs no lock hint. *)

val put : t -> ctx -> string -> string -> ctx

val commit : t -> ctx -> (Cc_types.Outcome.t -> unit) -> unit

val abort : t -> ctx -> unit
(** Client-initiated abort of an executing transaction (not used by the
    benchmark workloads, but part of the public API). *)
