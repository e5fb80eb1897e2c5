module Version = Cc_types.Version

type reply = { r_ver : Version.t; r_val : string }

type read = { reader : Version.t; coord : int; mutable last : reply }

(* Each conflict table is [None] until the first insertion into it, so
   a key that is only loaded and read at its committed versions holds
   none, and a key that is only ever written holds just
   [prepared_writes]. *)
type t = {
  mutable uncommitted_writes : string Version.Map.t;
  mutable reads : (Version.t, read) Hashtbl.t option;
  mutable prepared_reads : (Version.t, int * Version.t) Hashtbl.t option;  (* reader -> eid, r_ver *)
  mutable prepared_writes : (Version.t, int) Hashtbl.t option;  (* writer -> eid *)
  mutable committed_writes : string Version.Map.t;
  mutable committed_reads : (Version.t, Version.t) Hashtbl.t option;  (* reader -> r_ver *)
}

let create () =
  {
    uncommitted_writes = Version.Map.empty;
    reads = None;
    prepared_reads = None;
    prepared_writes = None;
    committed_writes = Version.Map.empty;
    committed_reads = None;
  }

let of_committed ~ver value =
  { (create ()) with committed_writes = Version.Map.singleton ver value }

(* Reading and removing access: an absent table reads as empty, and none
   of these creates one. *)
let fold f tbl acc = match tbl with None -> acc | Some h -> Hashtbl.fold f h acc

let find tbl key = match tbl with None -> None | Some h -> Hashtbl.find_opt h key

let remove tbl key = match tbl with None -> () | Some h -> Hashtbl.remove h key

let length = function None -> 0 | Some h -> Hashtbl.length h

(* Inserting access creates the table.  The initial size is part of the
   behaviour, not a tuning knob: the bucket count decides [Hashtbl.fold]
   order, which [add_write] and [reads_missing_version] pass on as the
   order of miss notifications.  A created table keeps its buckets when
   emptied, as an eagerly created one would. *)
let created t tbl set =
  match tbl with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 8 in
    set t (Some h);
    h

let reads t = created t t.reads (fun t h -> t.reads <- h)
let prepared_reads t = created t t.prepared_reads (fun t h -> t.prepared_reads <- h)
let prepared_writes t = created t t.prepared_writes (fun t h -> t.prepared_writes <- h)
let committed_reads t = created t t.committed_reads (fun t h -> t.committed_reads <- h)

let no_reply = { r_ver = Version.zero; r_val = "" }

let latest_committed_before t ver =
  match
    Version.Map.find_last_opt (fun v -> Version.compare v ver < 0) t.committed_writes
  with
  | Some (v, value) -> { r_ver = v; r_val = value }
  | None -> no_reply

let latest_before t ver =
  let pick map =
    Version.Map.find_last_opt (fun v -> Version.compare v ver < 0) map
  in
  match (pick t.committed_writes, pick t.uncommitted_writes) with
  | None, None -> no_reply
  | Some (v, value), None | None, Some (v, value) -> { r_ver = v; r_val = value }
  | Some (cv, cval), Some (uv, uval) ->
    if Version.compare cv uv >= 0 then { r_ver = cv; r_val = cval }
    else { r_ver = uv; r_val = uval }

let add_read t ~reader ~coord reply =
  let tbl = reads t in
  match Hashtbl.find_opt tbl reader with
  | Some r -> r.last <- reply
  | None -> Hashtbl.replace tbl reader { reader; coord; last = reply }

let find_read t reader = find t.reads reader

let reads_missing_version t ~ver value =
  fold
    (fun _ r acc ->
      let missed =
        Version.compare ver r.reader < 0
        && (Version.compare r.last.r_ver ver < 0
            || (Version.equal r.last.r_ver ver
                && not (String.equal r.last.r_val value)))
      in
      if missed then r :: acc else acc)
    t.reads []

let add_write t ~ver value =
  t.uncommitted_writes <- Version.Map.add ver value t.uncommitted_writes;
  reads_missing_version t ~ver value

type missed_write =
  | No_miss
  | Missed_uncommitted of reply
  | Missed_committed of reply

let write_missed_by_read t ~reader ~r_ver =
  (* The latest write strictly below [reader]; it is a miss iff it is
     also strictly above [r_ver]. *)
  let below_reader map =
    Version.Map.find_last_opt (fun v -> Version.compare v reader < 0) map
  in
  let miss_in map =
    match below_reader map with
    | Some (v, value) when Version.compare r_ver v < 0 -> Some { r_ver = v; r_val = value }
    | Some _ | None -> None
  in
  match miss_in t.committed_writes with
  | Some r -> Missed_committed r
  | None ->
    (match miss_in t.uncommitted_writes with
     | Some r -> Missed_uncommitted r
     | None -> No_miss)

let committed_read_missing_write t ~w_ver =
  fold
    (fun reader r_ver acc ->
      acc
      || (Version.compare w_ver reader < 0 && Version.compare r_ver w_ver < 0))
    t.committed_reads false

let prepared_read_missing_write t ~w_ver =
  fold
    (fun reader (_eid, r_ver) acc ->
      acc
      || ((not (Version.equal reader w_ver))
          && Version.compare w_ver reader < 0
          && Version.compare r_ver w_ver < 0))
    t.prepared_reads false

let committed_value t ver = Version.Map.find_opt ver t.committed_writes

let newest_committed t =
  Option.map fst (Version.Map.max_binding_opt t.committed_writes)

let prepare_read t ~reader ~eid ~r_ver =
  Hashtbl.replace (prepared_reads t) reader (eid, r_ver)

let prepare_write t ~ver ~eid = Hashtbl.replace (prepared_writes t) ver eid

let unprepare t ~ver ~eid =
  (match find t.prepared_reads ver with
   | Some (e, _) when e = eid -> remove t.prepared_reads ver
   | Some _ | None -> ());
  match find t.prepared_writes ver with
  | Some e when e = eid -> remove t.prepared_writes ver
  | Some _ | None -> ()

let unprepare_all t ~ver =
  remove t.prepared_reads ver;
  remove t.prepared_writes ver

let commit_write t ~ver value =
  t.committed_writes <- Version.Map.add ver value t.committed_writes;
  t.uncommitted_writes <- Version.Map.remove ver t.uncommitted_writes;
  remove t.prepared_writes ver

let commit_read t ~reader ~r_ver =
  Hashtbl.replace (committed_reads t) reader r_ver;
  remove t.prepared_reads reader;
  remove t.reads reader

let abort_writes t ~ver =
  t.uncommitted_writes <- Version.Map.remove ver t.uncommitted_writes;
  remove t.prepared_writes ver

let remove_read t reader =
  remove t.reads reader;
  remove t.prepared_reads reader

let reads_observing t ver =
  fold
    (fun _ r acc -> if Version.equal r.last.r_ver ver then r :: acc else acc)
    t.reads []

let gc_below t watermark =
  let stale reader = Version.compare reader watermark < 0 in
  let to_remove =
    fold (fun reader _ acc -> if stale reader then reader :: acc else acc)
      t.committed_reads []
  in
  List.iter (remove t.committed_reads) to_remove;
  (* Keep the newest committed write below the watermark (the key's
     current value as of the watermark): it is what any snapshot read at
     [snap >= watermark] observes, and what the below-watermark
     read-validation exact-match compares against.  Truncation rounds
     complete well after their cutoff, so commits above the watermark
     usually exist by now — the global newest is NOT a safe stand-in. *)
  match
    Version.Map.find_last_opt (fun v -> stale v) t.committed_writes
  with
  | None -> ()
  | Some (newest_below, _) ->
    t.committed_writes <-
      Version.Map.filter
        (fun v _ -> Version.equal v newest_below || not (stale v))
        t.committed_writes

let stats t =
  ( length t.reads,
    Version.Map.cardinal t.uncommitted_writes,
    length t.prepared_reads + length t.prepared_writes,
    Version.Map.cardinal t.committed_writes )

let committed_writes_list t = Version.Map.bindings t.committed_writes

let committed_reads_list t =
  List.sort compare
    (fold (fun reader r_ver acc -> (reader, r_ver) :: acc) t.committed_reads [])
