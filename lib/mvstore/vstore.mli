(** The replica-wide key → {!Vrecord} map, with bulk loading. *)

type t

val create : unit -> t

val find : t -> string -> Vrecord.t
(** Record for a key, created on demand. *)

val find_existing : t -> string -> Vrecord.t option
(** Record for a key if one exists (avoids allocating records for keys
    only ever probed). *)

val load : t -> (string * string) list -> unit
(** Install initial data as committed writes at {!Cc_types.Version.zero}
    — the effect of the initialisation transaction [T_init].  Each key
    gets a cold {!Vrecord.of_committed} record, replacing any record it
    had; when a key repeats in the list, its last value wins. *)

val iter : t -> (string -> Vrecord.t -> unit) -> unit

val key_count : t -> int
