(** The replica-wide key → {!Vrecord} map, over an optional shared base.

    The {e base} is the initial data — the writes of the initialisation
    transaction [T_init] — as an immutable key → value table.  Any number
    of stores may attach the same base: the replicas of one run then
    hold one copy of the initial data between them.  A store's own
    table holds only the records it has handed out.  The first {!find}
    or {!find_existing} of an untouched base key installs a cold
    {!Vrecord.of_committed} record at {!Cc_types.Version.zero} in the
    store's own table, so every query answers as if the record had been
    loaded eagerly, and one store's writes stay invisible to the
    others. *)

type base

val base_of_list : (string * string) list -> base
(** A base holding each pair; when a key repeats, its last value wins.
    Shares the list's strings. *)

type t

val create : unit -> t
(** An empty store with no base. *)

val attach : t -> base -> unit
(** Attach [T_init]'s writes without copying them: afterwards each key
    of the base reads as one committed write at version zero, replacing
    any record the store had for it.  The base itself is never
    modified.
    @raise Invalid_argument if the store already has a base. *)

val load : t -> (string * string) list -> unit
(** [attach t (base_of_list pairs)]. *)

val base : t -> base option
(** The attached base, if any. *)

val find : t -> string -> Vrecord.t
(** Record for a key, created on demand. *)

val find_existing : t -> string -> Vrecord.t option
(** Record for a key if the key exists (avoids allocating records for
    keys only ever probed).  A base key exists. *)

val iter : t -> (string -> Vrecord.t -> unit) -> unit
(** The records the store has installed — every key touched so far —
    in hash-table order.  Untouched base keys are skipped (their only
    state is the initial write); {!iter_untouched} visits them. *)

val iter_untouched : t -> (string -> string -> unit) -> unit
(** Base keys the store has no record for, with their initial value. *)

val key_count : t -> int
(** Distinct keys: installed records plus untouched base keys. *)
