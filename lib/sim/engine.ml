type kind = Timer | Delivery | Ticker

(* A queued event is its action plus a heap key [seq lsl 2 lor code],
   where [code] is the kind (0-2) or [handle_code].  Ordering by
   (time, key) is ordering by (time, seq), because [seq] is unique.
   Handle-free events ([post]) therefore allocate nothing beyond their
   action.  A cancellable event ([schedule]) is queued under
   [handle_code] with a dispatcher closure over its [timer] record. *)
let handle_code = 3

(* Each handle is exactly one of: live (queued, will fire), cancelled
   (queued as a ghost until it reaches the top), fired.  Tracking the
   full state — rather than a single [cancelled] bit — lets [cancel]
   decide whether it is retiring a live event (decrement the live
   count) or hitting a fired/cancelled one (no-op), which is what makes
   [pending] report live events instead of heap entries. *)
type state = Live | Cancelled | Fired

type timer = {
  mutable state : state;
  kind : kind;
  action : unit -> unit;
  owner : t;  (* back-pointer so [cancel] can maintain engine counters *)
}

and t = {
  queue : (unit -> unit) Heap.t;
  mutable clock : int;
  mutable seq : int;  (* push counter; doubles as the FIFO tiebreak key *)
  mutable fired : int;
  mutable fired_timer : int;
  mutable fired_delivery : int;
  mutable fired_ticker : int;
  (* Observatory counters: plain int increments, no allocation — the
     hot path stays hot.  [live] is the current count of uncancelled
     queued events; [max_live] its high-water mark (the raw high-water
     mark lives in the heap itself). *)
  mutable live : int;
  mutable max_live : int;
  mutable pops : int;
  mutable cancels : int;
  mutable ghost_drains : int;
  (* Read-only tap on fired events (the flight recorder): sees the
     dispatch time and kind, cannot reorder or cancel anything. *)
  mutable observer : (ts:int -> kind -> unit) option;
}

type kind_counts = { k_timer : int; k_delivery : int; k_ticker : int }

type heap_stats = {
  hs_pushes : int;
  hs_pops : int;
  hs_cancels : int;
  hs_ghost_drains : int;
  hs_live : int;
  hs_max_live : int;
  hs_max_raw : int;
}

let create () =
  {
    queue = Heap.create ~dummy:ignore;
    clock = 0;
    seq = 0;
    fired = 0;
    fired_timer = 0;
    fired_delivery = 0;
    fired_ticker = 0;
    live = 0;
    max_live = 0;
    pops = 0;
    cancels = 0;
    ghost_drains = 0;
    observer = None;
  }

let set_observer t f = t.observer <- Some f

let now t = t.clock

let code_of_kind = function Timer -> 0 | Delivery -> 1 | Ticker -> 2

let push t ~at code f =
  Heap.push t.queue ~time:(max at t.clock) ~key:((t.seq lsl 2) lor code) f;
  t.seq <- t.seq + 1;
  t.live <- t.live + 1;
  if t.live > t.max_live then t.max_live <- t.live

let post_at t ?(kind = Timer) ~at f = push t ~at (code_of_kind kind) f

let post t ?(kind = Timer) ~after f =
  push t ~at:(t.clock + max 0 after) (code_of_kind kind) f

(* Fire a live event: retire it from the live count, count it by kind,
   show it to the observer, run it. *)
let fire t kind f =
  t.live <- t.live - 1;
  t.fired <- t.fired + 1;
  (match kind with
  | Timer -> t.fired_timer <- t.fired_timer + 1
  | Delivery -> t.fired_delivery <- t.fired_delivery + 1
  | Ticker -> t.fired_ticker <- t.fired_ticker + 1);
  (match t.observer with
  | Some obs -> obs ~ts:t.clock kind
  | None -> ());
  f ()

let dispatch h =
  let t = h.owner in
  match h.state with
  | Live ->
    h.state <- Fired;
    fire t h.kind h.action
  | Cancelled -> t.ghost_drains <- t.ghost_drains + 1
  | Fired -> assert false

let schedule_at t ?(kind = Timer) ~at f =
  let h = { state = Live; kind; action = f; owner = t } in
  push t ~at handle_code (fun () -> dispatch h);
  h

let schedule t ?(kind = Timer) ~after f =
  schedule_at t ~kind ~at:(t.clock + max 0 after) f

let cancel h =
  match h.state with
  | Live ->
    h.state <- Cancelled;
    h.owner.cancels <- h.owner.cancels + 1;
    h.owner.live <- h.owner.live - 1
  | Cancelled | Fired -> ()

let pending t = t.live

let raw_pending t = Heap.length t.queue

let step t =
  if Heap.is_empty t.queue then false
  else begin
    let q = t.queue in
    let time = Heap.min_time q in
    let code = Heap.min_key q land 3 in
    let f = Heap.pop_min q in
    if time > t.clock then t.clock <- time;
    t.pops <- t.pops + 1;
    (match code with
    | 0 -> fire t Timer f
    | 1 -> fire t Delivery f
    | 2 -> fire t Ticker f
    | _ -> f ());
    true
  end

let run t =
  while step t do
    ()
  done

let run_until t ~limit =
  while (not (Heap.is_empty t.queue)) && Heap.min_time t.queue <= limit do
    ignore (step t)
  done;
  t.clock <- max t.clock limit

let events_fired t = t.fired

let events_by_kind t =
  { k_timer = t.fired_timer; k_delivery = t.fired_delivery; k_ticker = t.fired_ticker }

let heap_stats t =
  {
    hs_pushes = t.seq;
    hs_pops = t.pops;
    hs_cancels = t.cancels;
    hs_ghost_drains = t.ghost_drains;
    hs_live = t.live;
    hs_max_live = t.max_live;
    hs_max_raw = Heap.max_size t.queue;
  }
