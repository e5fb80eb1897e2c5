(** Deterministic discrete-event simulation engine.

    Virtual time is measured in integer {e microseconds}.  Events
    scheduled for the same instant fire in scheduling order, so a given
    seed always produces the same history. *)

type t

type timer
(** Handle to a scheduled event, usable for cancellation. *)

type kind =
  | Timer  (** protocol timers, CPU completions, workload arrivals *)
  | Delivery  (** network message deliveries (scheduled by simnet) *)
  | Ticker  (** read-only observation ticks (metrics sampling) *)

type kind_counts = { k_timer : int; k_delivery : int; k_ticker : int }

val create : unit -> t
(** Fresh engine with the clock at 0. *)

val now : t -> int
(** Current virtual time in microseconds. *)

val post : t -> ?kind:kind -> after:int -> (unit -> unit) -> unit
(** [post t ~after f] runs [f] at [now t + after].  [after] is clamped
    to be at least 0.  [kind] defaults to [Timer] and only affects the
    {!events_by_kind} accounting.  The event cannot be cancelled, and
    queueing it allocates nothing beyond [f] itself. *)

val post_at : t -> ?kind:kind -> at:int -> (unit -> unit) -> unit
(** [post_at t ~at f] runs [f] at absolute time [at] (or [now t] if
    [at] is in the past). *)

val schedule : t -> ?kind:kind -> after:int -> (unit -> unit) -> timer
(** Like {!post}, but returns a handle for {!cancel}; the handle is
    allocated.  Events from [post] and [schedule] share one sequence
    counter, so same-instant events fire in scheduling order whichever
    call queued them. *)

val schedule_at : t -> ?kind:kind -> at:int -> (unit -> unit) -> timer
(** Like {!post_at}, returning a cancellation handle. *)

val cancel : timer -> unit
(** Cancel a scheduled event.  Cancelling a fired or already-cancelled
    timer is a no-op. *)

val pending : t -> int
(** Number of {e live} events still queued.  Cancelled-but-undrained
    entries (ghosts) are excluded — they occupy heap slots but will
    never fire; see {!raw_pending} for the ghost-inclusive figure. *)

val raw_pending : t -> int
(** Number of heap entries still queued, ghosts included.
    [raw_pending t - pending t] is the current ghost count. *)

val step : t -> bool
(** Fire the next event.  Returns [false] if the queue was empty. *)

val run : t -> unit
(** Fire events until the queue drains. *)

val run_until : t -> limit:int -> unit
(** Fire events with time [<= limit]; afterwards [now t = limit] if the
    queue drained early or the next event lies beyond [limit]. *)

val events_fired : t -> int
(** Total events fired since creation (simulation-cost metric). *)

val events_by_kind : t -> kind_counts
(** {!events_fired} broken down by event kind, attributing simulation
    cost to timers vs. message deliveries vs. observation tickers. *)

type heap_stats = {
  hs_pushes : int;  (** events ever scheduled *)
  hs_pops : int;  (** heap entries ever popped (live fires + ghost drains) *)
  hs_cancels : int;  (** live events cancelled *)
  hs_ghost_drains : int;
      (** cancelled entries popped and discarded without firing *)
  hs_live : int;  (** current live count (= {!pending}) *)
  hs_max_live : int;  (** peak live count *)
  hs_max_raw : int;  (** peak heap length, ghosts included *)
}

val heap_stats : t -> heap_stats
(** Timer-heap operation counters since creation.  All plain int
    increments on the scheduling path (no allocation), and a pure
    function of the simulated schedule — deterministic across hosts
    and worker-domain counts.  Invariants: [hs_pushes = hs_pops +
    hs_live + undrained ghosts]; after a full drain [hs_pops =
    hs_pushes] and [hs_ghost_drains = hs_cancels]. *)

val set_observer : t -> (ts:int -> kind -> unit) -> unit
(** Read-only tap called for every fired (non-cancelled) event just
    before its action runs, with the dispatch time.  The flight
    recorder uses it; observers cannot affect scheduling. *)
