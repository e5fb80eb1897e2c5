(** Morty storage replica (§4.2–§4.4).

    Handles the full message protocol:
    - {b Get}: serve the visible write with the largest version below the
      reader, register the read for miss detection;
    - {b Put}: record the eagerly visible uncommitted write and push
      unsolicited [Get_reply]s to reads that missed it;
    - {b Prepare}: wait for read dependencies to commit (recoverability),
      then run the four validation checks of §4.2 and vote;
    - {b Finalize}: single-decree consensus on a per-execution decision
      (write-once register, views);
    - {b Decide}: learn a durable decision, install committed state,
      wake suspended Prepares, push corrected replies to readers of
      aborted or rewritten values;
    - {b PaxosPrepare}: coordinator-recovery view changes — any replica
      whose suspended Prepare waits too long on an undecided dependency
      becomes a recovery coordinator (§4.3);
    - truncation messages (§4.4) when [truncation_interval_us > 0].

    Every inbound message is charged to the replica's simulated CPU pool
    with the per-type cost from {!Config}. *)

type t

type stats = {
  mutable prepares : int;
  mutable commit_votes : int;
  mutable tentative_votes : int;
  mutable final_votes : int;
  mutable miss_notifications : int;  (** unsolicited Get_replies pushed *)
  mutable recoveries : int;
  mutable truncations : int;
  mutable state_transfer_msgs : int;  (** catch-up replies donated *)
  mutable state_transfer_bytes : int;  (** estimated bytes donated *)
  mutable catchups : int;  (** catch-up rounds completed here *)
  mutable catchup_wait_us : int;  (** total restart-to-caught-up time *)
}

val create :
  cfg:Config.t ->
  engine:Sim.Engine.t ->
  net:Msg.t Simnet.Net.t ->
  rng:Sim.Rng.t ->
  index:int ->
  region:Simnet.Latency.region ->
  cores:int ->
  ?prof:Obs.Profile.t ->
  ?mon:Obs.Monitor.t ->
  ?lineage:Obs.Lineage.t ->
  unit ->
  t
(** Create replica [index] (of [2f+1]) and register it on the network.
    [peers] must be completed with {!set_peers} before traffic flows.
    [prof] (default {!Obs.Profile.null}) receives busy-time and
    contention hooks; when it is enabled, replies also carry message
    provenance ({!Simnet.Net.serve}) for the client-side decomposition.
    [mon] (default {!Obs.Monitor.null}) receives state-transition hooks
    for the online invariant monitors; purely observational.  [lineage]
    (default {!Obs.Lineage.null}) receives typed conflict records from
    validation (key, aggressor version, reason) for the provenance
    DAG. *)

val create_at :
  node:Simnet.Net.node ->
  cfg:Config.t ->
  engine:Sim.Engine.t ->
  net:Msg.t Simnet.Net.t ->
  rng:Sim.Rng.t ->
  index:int ->
  cores:int ->
  ?prof:Obs.Profile.t ->
  ?mon:Obs.Monitor.t ->
  ?lineage:Obs.Lineage.t ->
  unit ->
  t
(** Like {!create}, but re-registers a fresh (amnesiac) incarnation on a
    dead replica's existing [node] instead of allocating a new one. *)

val set_peers : t -> int array -> unit
(** Node ids of all replicas, in index order (including this one). *)

val node : t -> Simnet.Net.node

val cpu : t -> Simnet.Cpu.t

val load : t -> (string * string) list -> unit
(** Install initial data as committed at version zero (bypasses the
    protocol; call on every replica with identical data). *)

val attach_base : t -> Mvstore.Vstore.base -> unit
(** {!load} without the copy: the replicas of a run attach one shared
    base of the initial data.  A restarted incarnation attaches
    nothing — amnesia loses the initial data with everything else. *)

val store : t -> Mvstore.Vstore.t
(** The replica's version store (introspection and tests). *)

val stats : t -> stats

val watermark : t -> Cc_types.Version.t option
(** Current truncation watermark, if truncation has run. *)

val decision_of : t -> Cc_types.Version.t -> [ `Commit | `Abort ] option
(** Transaction-level decision recorded in this replica's decision log
    (tests and diagnostics). *)

val committed_value_at : t -> string -> Cc_types.Version.t -> string option
(** Committed value installed for a key at an exact version (tests). *)

val read_current : t -> string -> string option
(** Latest committed value of a key (tests and examples). *)

val erecord_size : t -> int
(** Number of live erecord entries (GC tests). *)

val store_size : t -> int
(** Number of keys in the version store (metrics sampling). *)

val state_view : t -> Obs.Monitor.state_view
(** Per-replica introspection snapshot: lifecycle flags, watermark,
    erecord size, store shape and protocol counters — what a
    post-mortem bundle records for every replica. *)

(** {1 Amnesia-crash lifecycle} *)

val stop : t -> unit
(** Mark this incarnation dead: it stops sending and handling messages,
    including CPU jobs already queued before the kill.  Pair with
    [Simnet.Net.crash] and a later fresh {!create} on the same node. *)

val is_stopped : t -> bool

val start_catchup : t -> unit
(** Enter [Recovering] mode and request state transfer from peers.  The
    replica answers no Prepare/Get/Put/Finalize/Paxos_prepare traffic —
    no quorum can count its amnesiac vote — until f+1 distinct donors
    replied, then it resumes normal service.  Call on a freshly created
    replica after {!set_peers} (and after [Simnet.Net.recover]). *)

val is_recovering : t -> bool

val recovery_view : n_replicas:int -> cur_view:int -> index:int -> int
(** The view replica [index] proposes when recovering a transaction
    whose highest observed view is [cur_view]: the next multiple of the
    stride ([n_replicas + 1]) plus [index + 1], so proposals are unique
    per replica for any cluster size and strictly exceed [cur_view]. *)
