(** Array-backed 4-ary min-heap, specialised to the event queue.

    Elements are ordered by a 2-level key: primary [time], secondary
    [key].  The secondary key makes the ordering total, so two events
    scheduled for the same instant fire in scheduling order — a
    requirement for deterministic simulation.

    Times and keys live in int arrays with the values alongside
    (struct of arrays), so a push or a pop allocates nothing except
    when the arrays grow, and sifting moves only ints. *)

type 'a t

val create : dummy:'a -> 'a t
(** Fresh empty heap.  [dummy] fills unused value slots, so the heap
    never keeps a popped value reachable. *)

val length : 'a t -> int
(** Number of queued elements. *)

val max_size : 'a t -> int
(** Peak {!length} ever reached — the raw depth high-water mark used by
    the engine-performance observatory.  Maintained by a single compare
    per push, so it costs nothing on the hot path. *)

val is_empty : 'a t -> bool

val push : 'a t -> time:int -> key:int -> 'a -> unit
(** Insert an element keyed by [(time, key)]. *)

val min_time : 'a t -> int
(** Time of the minimum element.  Raises [Invalid_argument] if the
    heap is empty. *)

val min_key : 'a t -> int
(** Secondary key of the minimum element.  Raises [Invalid_argument]
    if the heap is empty. *)

val pop_min : 'a t -> 'a
(** Remove the minimum element and return its value; read its time and
    key first with {!min_time} and {!min_key}.  Raises
    [Invalid_argument] if the heap is empty. *)
