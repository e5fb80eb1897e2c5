module Version = Cc_types.Version
module Rwset = Cc_types.Rwset
module Outcome = Cc_types.Outcome
module Net = Simnet.Net
module Engine = Sim.Engine

let src_log = Logs.Src.create "morty.client" ~doc:"Morty coordinator"

module Log = (val Logs.src_log src_log : Logs.LOG)

(* Follower-read mode of a transaction.  [Ro_pinned] reads a snapshot at
   the pinned replica's truncation watermark; [Ro_doomed] is the
   graceful-degradation terminal state — every reachable replica was too
   stale (or unreachable), so the body runs against a void store and the
   commit resolves to the typed abort. *)
type ro_mode =
  | Ro_pinned of { rp_replica : Net.node; rp_stale_us : int; rp_id : int }
  | Ro_doomed of Obs.Abort_reason.t

type slot = {
  s_index : int;
  s_key : string;
  s_seq : int;  (** network sequence number; [-1] when served locally *)
  s_sent_us : int;  (** when the Get was first sent, for read spans *)
  mutable s_reply : (Version.t * string) option;
  s_cont : ctx -> string -> unit;
}

and op = Op_read of int | Op_write of string * string

and prep = {
  p_eid : int;
  mutable p_votes : (Net.node * Vote.t) list;
  mutable p_timer : Engine.timer option;
  mutable p_forced : bool;
}

and fin = {
  f_eid : int;
  f_decision : Decision.t;
  mutable f_ackers : Net.node list;
  mutable f_fired : bool;
}

and phase = Executing | Preparing of prep | Finalizing of fin | Done

and txn = {
  ver : Version.t;
  mutable eid : int;
  mutable slots : slot list;  (** newest first *)
  mutable n_slots : int;
  mutable ops : op list;  (** newest first *)
  mutable phase : phase;
  mutable reexec_count : int;
  mutable next_seq : int;
  mutable commit_cont : (Outcome.t -> unit) option;
  mutable finished : bool;
  t_start_us : int;
  (* Observability: classified cause of the latest abandon vote, start
     of the currently open phase segment, accumulated per-phase time,
     and whether the open execute segment came from a re-execution. *)
  mutable t_reason : Obs.Abort_reason.t option;
  mutable ph_start_us : int;
  mutable exec_us : int;
  mutable prep_us : int;
  mutable fin_us : int;
  mutable seg_reexec : bool;
  ro : ro_mode option;  (** [Some] marks a follower-read transaction *)
}

and ctx = { c_txn : txn; c_eid : int }

(* One follower-read pin series: the redirect cycle over replicas, the
   stored body (re-run in full on every re-pin — a snapshot change
   invalidates everything already read), and the transaction currently
   executing against the pinned snapshot. *)
type ro_pin_st = {
  rs_id : int;
  rs_body : ctx -> unit;
  mutable rs_attempt : int;
  mutable rs_saw_stale : bool;
      (** a reachable replica answered but was too stale: exhaustion
          classifies as [Stale_replica] rather than [Timeout] *)
  mutable rs_txn : txn option;
  mutable rs_done : bool;
}

type stats = {
  mutable begun : int;
  mutable committed : int;
  mutable aborted : int;
  mutable reexecs : int;
  mutable miss_notifications : int;
  mutable fast_commits : int;
  mutable slow_commits : int;
}

type record = {
  h_ver : Version.t;
  h_committed : bool;
  h_abort : Obs.Abort_reason.t option;
  h_reads : (string * Version.t) list;
  h_writes : string list;
  h_start_us : int;
  h_end_us : int;
  h_reexecs : int;
  h_exec_us : int;
  h_prepare_us : int;
  h_finalize_us : int;
  h_ro : bool;
  h_staleness_us : int;
}

type t = {
  cfg : Config.t;
  engine : Engine.t;
  net : Msg.t Net.t;
  clock : Sim.Clock.t;
  rng : Sim.Rng.t;
  node : Net.node;
  replicas : int array;
  closest : Net.node;
  closest_ix : int;
  mutable last_ts : int;
  txns : (Version.t, txn) Hashtbl.t;
  (* Follower-read pin series in flight, keyed by pin id. *)
  ro_pins : (int, ro_pin_st) Hashtbl.t;
  mutable ro_seq : int;
  (* Outstanding Finalize–Abandon rounds for superseded executions:
     (ver, eid) -> acks so far. *)
  abandon_acks : (Version.t * int, Net.node list ref) Hashtbl.t;
  stats : stats;
  obs : Obs.Sink.t;
  prof : Obs.Profile.t;
  mon : Obs.Monitor.t;
  lin : Obs.Lineage.t;
  (* Critical-path attribution: the transaction the closed-loop driver
     is currently running (one at a time per client), its component
     cells, and the end of the last attributed wait interval.  Kept
     only while the profiler is enabled ([c_cur] stays [None]
     otherwise). *)
  mutable c_cur : txn option;
  mutable c_comps : int array;
  mutable c_last_ev : int;
  on_finish : (record -> unit) option;
}

let node t = t.node
let stats t = t.stats
let last_comps t = t.c_comps

let phase_row txn =
  match txn.phase with
  | Executing -> Obs.Profile.phase_index Obs.Profile.P_execute
  | Preparing _ -> Obs.Profile.phase_index Obs.Profile.P_prepare
  | Finalizing _ -> Obs.Profile.phase_index Obs.Profile.P_finalize
  | Done -> Obs.Profile.phase_index Obs.Profile.P_execute

(* Charge the wait since the last progress point to the current
   transaction's phase, decomposed along the provenance of the message
   being delivered right now ([None] from timer callbacks).  Exhaustive:
   every microsecond of a transaction's life at this client lands in
   exactly one component cell. *)
let profile_wait t reply =
  match t.c_cur with
  | None -> ()
  | Some txn ->
    let now = Engine.now t.engine in
    Obs.Profile.attribute ~comps:t.c_comps ~phase:(phase_row txn)
      ~t0:t.c_last_ev ~t1:now reply;
    t.c_last_ev <- now

let profile_arrival t =
  let reply =
    match Net.current_delivery t.net with
    | Some d ->
      Some
        ( d.Net.di_send_us,
          d.di_path.Net.p_transit_us,
          d.di_path.Net.p_queue_us,
          d.di_path.Net.p_service_us )
    | None -> None
  in
  profile_wait t reply

let send t dst msg = Net.send t.net ~src:t.node ~dst msg
let broadcast t msg = Array.iter (fun dst -> send t dst msg) t.replicas

let stale ctx = ctx.c_eid <> ctx.c_txn.eid || ctx.c_txn.finished

(* --- Observability helpers --------------------------------------------- *)

let ver_arg txn = ("ver", Obs.Sink.S (Fmt.str "%a" Version.pp txn.ver))
(* [Version.zero] marks pre-loaded initial data: writerless, so it maps
   to the lineage layer's v0 rather than leaking the sentinel pair. *)
let vpair (v : Version.t) =
  if Version.equal v Version.zero then Obs.Lineage.v0
  else (v.Version.ts, v.Version.id)

(* Deterministic flow id tying a superseded execution to its
   re-execution in the Chrome trace: a pure function of (ver, old eid),
   so same-seed runs emit identical arrows. *)
let flow_id txn =
  ((txn.ver.Version.ts land 0xFFFFF) lsl 16)
  lor ((txn.ver.Version.id land 0xFF) lsl 8)
  lor (txn.eid land 0xFF)

let mark t txn name args =
  Obs.Sink.instant t.obs ~name ~cat:"txn" ~ts:(Engine.now t.engine) ~pid:t.node
    ~args:(ver_arg txn :: args) ()

(* Close the currently open phase segment, crediting its duration to the
   right accumulator and emitting its span.  Called at every phase
   transition and at completion. *)
let close_segment t txn =
  let now = Engine.now t.engine in
  let dur = now - txn.ph_start_us in
  let name =
    match txn.phase with
    | Executing ->
      txn.exec_us <- txn.exec_us + dur;
      if txn.seg_reexec then "reexecute" else "execute"
    | Preparing _ ->
      txn.prep_us <- txn.prep_us + dur;
      "prepare"
    | Finalizing _ ->
      txn.fin_us <- txn.fin_us + dur;
      "finalize"
    | Done -> "done"
  in
  if Obs.Sink.enabled t.obs && txn.phase <> Done then
    Obs.Sink.span t.obs ~name ~cat:"phase" ~ts:txn.ph_start_us ~dur ~pid:t.node
      ~args:[ ver_arg txn; ("eid", Obs.Sink.I txn.eid) ]
      ();
  txn.ph_start_us <- now;
  txn.seg_reexec <- false

let note_reason txn reason =
  match reason with
  | None -> ()
  | Some r ->
    txn.t_reason <-
      Some
        (match txn.t_reason with
        | None -> r
        | Some r0 -> Obs.Abort_reason.prefer r0 r)

(* --- Read/write sets of the current execution ------------------------- *)

(* The log is kept newest first, so each fold below rebuilds program
   order. *)
let read_set_of txn =
  List.fold_left
    (fun acc s ->
      match s.s_reply with
      | Some (r_ver, r_val) when s.s_seq >= 0 ->
        { Rwset.key = s.s_key; r_ver; r_val } :: acc
      | Some _ | None -> acc)
    [] txn.slots

let write_set_of txn =
  Rwset.dedup_writes
    (List.fold_left
       (fun acc op ->
         match op with
         | Op_write (key, w_val) -> { Rwset.key; w_val } :: acc
         | Op_read _ -> acc)
       [] txn.ops)

(* The first slot in program order satisfying [p]: the last one in the
   newest-first log. *)
let first_slot txn p =
  List.fold_left (fun found s -> if p s then Some s else found) None txn.slots

(* Repeatable reads: a key's first answered read in program order. *)
let answered_read txn key =
  first_slot txn (fun s -> String.equal s.s_key key && s.s_reply <> None)

let add_slot txn slot =
  txn.slots <- slot :: txn.slots;
  txn.n_slots <- txn.n_slots + 1;
  txn.ops <- Op_read slot.s_index :: txn.ops

(* --- Transaction completion ------------------------------------------- *)

let finish t txn outcome =
  if not txn.finished then begin
    txn.finished <- true;
    (* Tail wait: nonzero only when the finish came from a timer rather
       than a message arrival (arrivals already attributed up to now). *)
    (match t.c_cur with
    | Some cur when cur == txn ->
      profile_wait t None;
      Obs.Profile.note_outcome t.prof
        ~ver:(txn.ver.Version.ts, txn.ver.Version.id)
        ~committed:(Outcome.is_committed outcome)
        ~final_eid:txn.eid;
      t.c_cur <- None
    | Some _ | None ->
      Obs.Profile.note_outcome t.prof
        ~ver:(txn.ver.Version.ts, txn.ver.Version.id)
        ~committed:(Outcome.is_committed outcome)
        ~final_eid:txn.eid);
    close_segment t txn;
    txn.phase <- Done;
    Hashtbl.remove t.txns txn.ver;
    (* A finished follower read closes its pin series: late Ro_stale or
       pin replies must not restart the body. *)
    (match txn.ro with
     | Some (Ro_pinned p) -> (
       match Hashtbl.find_opt t.ro_pins p.rp_id with
       | Some st ->
         st.rs_done <- true;
         Hashtbl.remove t.ro_pins p.rp_id
       | None -> ())
     | Some (Ro_doomed _) | None -> ());
    (match outcome with
     | Outcome.Committed -> t.stats.committed <- t.stats.committed + 1
     | Outcome.Aborted _ -> t.stats.aborted <- t.stats.aborted + 1);
    if Obs.Sink.enabled t.obs then begin
      let now = Engine.now t.engine in
      (match outcome with
      | Outcome.Committed -> mark t txn "commit" []
      | Outcome.Aborted r ->
        mark t txn "abort"
          [ ("reason", Obs.Sink.S (Obs.Abort_reason.to_string r)) ]);
      Obs.Sink.span t.obs ~name:"txn" ~cat:"txn" ~ts:txn.t_start_us
        ~dur:(now - txn.t_start_us) ~pid:t.node
        ~args:
          (ver_arg txn
          :: ("outcome", Obs.Sink.S (Fmt.str "%a" Outcome.pp outcome))
          :: ("reexecs", Obs.Sink.I txn.reexec_count)
          :: [])
        ()
    end;
    Obs.Lineage.note_finish t.lin ~ver:(vpair txn.ver)
      ~committed:(Outcome.is_committed outcome)
      ~reason:
        (match Outcome.reason outcome with
        | Some r -> Obs.Abort_reason.to_string r
        | None -> "")
      ~work_us:(txn.exec_us + txn.prep_us + txn.fin_us)
      ~ts:(Engine.now t.engine);
    (match t.on_finish with
     | Some f ->
       f
         {
           h_ver = txn.ver;
           h_committed = Outcome.is_committed outcome;
           h_abort = Outcome.reason outcome;
           h_reads =
             List.map (fun (r : Rwset.read) -> (r.key, r.r_ver)) (read_set_of txn);
           h_writes =
             List.map (fun (w : Rwset.write) -> w.key) (write_set_of txn);
           h_start_us = txn.t_start_us;
           h_end_us = Engine.now t.engine;
           h_reexecs = txn.reexec_count;
           h_exec_us = txn.exec_us;
           h_prepare_us = txn.prep_us;
           h_finalize_us = txn.fin_us;
           h_ro = txn.ro <> None;
           h_staleness_us =
             (match txn.ro with Some (Ro_pinned p) -> p.rp_stale_us | _ -> 0);
         }
     | None -> ());
    match txn.commit_cont with
    | Some cont -> cont outcome
    | None -> ()
  end

let decide t txn eid decision ~abort =
  if Obs.Sink.enabled t.obs then
    mark t txn "decide"
      [
        ("eid", Obs.Sink.I eid);
        ("decision", Obs.Sink.S (Fmt.str "%a" Decision.pp decision));
      ];
  broadcast t
    (Msg.Decide
       {
         ver = txn.ver;
         eid;
         decision;
         abort;
         read_set = read_set_of txn;
         write_set = write_set_of txn;
       })

let finish_commit t txn eid ~fast =
  if fast then t.stats.fast_commits <- t.stats.fast_commits + 1
  else t.stats.slow_commits <- t.stats.slow_commits + 1;
  decide t txn eid Decision.Commit ~abort:false;
  finish t txn Outcome.Committed

(* The decision for [eid] is Abandon.  If a re-execution superseded that
   execution, the transaction lives on; otherwise it aborts. *)
let abandon_outcome t txn eid =
  if txn.eid > eid then decide t txn eid Decision.Abandon ~abort:false
  else begin
    decide t txn eid Decision.Abandon ~abort:true;
    (* No replica identified a conflict for this execution (e.g. a forced
       slow path on a straggler quorum) → the fallback Timeout cause. *)
    let reason =
      match txn.t_reason with Some r -> r | None -> Obs.Abort_reason.Timeout
    in
    finish t txn (Outcome.Aborted reason)
  end

(* --- Commit protocol --------------------------------------------------- *)

let rec start_prepare t txn =
  let read_set = read_set_of txn in
  let write_set = write_set_of txn in
  let p = { p_eid = txn.eid; p_votes = []; p_timer = None; p_forced = false } in
  close_segment t txn;
  txn.phase <- Preparing p;
  broadcast t (Msg.Prepare { ver = txn.ver; eid = txn.eid; read_set; write_set });
  arm_prepare_timer t txn p 0

and arm_prepare_timer t txn p round =
  (* Resends back off exponentially: a Prepare suspended at replicas on
     an undecided dependency (the common case under contention) gains
     nothing from re-broadcast, so only crash/loss recovery needs it.
     Seeded jitter (up to half the base) desynchronizes coordinators
     that timed out together — without it, concurrent retries arrive in
     lockstep and collide again (a retry storm). *)
  let delay =
    Sim.Backoff.equal_jitter t.rng ~base_us:t.cfg.prepare_timeout_us
      ~attempt:round ()
  in
  let timer =
    Engine.schedule t.engine ~after:delay (fun () ->
        match txn.phase with
        | Preparing p' when p' == p && not txn.finished ->
          p.p_forced <- true;
          if List.length p.p_votes >= t.cfg.f + 1 then evaluate_votes t txn p
          else begin
            broadcast t
              (Msg.Prepare
                 {
                   ver = txn.ver;
                   eid = txn.eid;
                   read_set = read_set_of txn;
                   write_set = write_set_of txn;
                 });
            arm_prepare_timer t txn p (round + 1)
          end
        | Preparing _ | Executing | Finalizing _ | Done -> ())
  in
  p.p_timer <- Some timer

and observe_fast_path t txn p votes =
  (* Fast-path vote consistency: taking the fast path claims a full
     2f+1 quorum of matching Commit votes — hand the monitor the votes
     actually held so it can re-check. *)
  if Obs.Monitor.enabled t.mon then
    Obs.Monitor.observe t.mon ~ts:(Engine.now t.engine)
      (Obs.Monitor.Fast_path
         {
           ver = (txn.ver.Version.ts, txn.ver.Version.id);
           quorum = (2 * t.cfg.f) + 1;
           votes = List.map (fun v -> Fmt.str "%a" Vote.pp v) votes;
         });
  ignore p

and evaluate_votes t txn p =
  let votes = List.map snd p.p_votes in
  match Vote.aggregate ~f:t.cfg.f ~force:p.p_forced votes with
  | Vote.Undecided -> ()
  | Vote.Commit_fast when t.cfg.always_slow_path ->
    cancel_timer p;
    start_finalize t txn p.p_eid Decision.Commit
  | Vote.Commit_fast ->
    observe_fast_path t txn p votes;
    cancel_timer p;
    finish_commit t txn p.p_eid ~fast:true
  | Vote.Abandon_fast ->
    cancel_timer p;
    abandon_outcome t txn p.p_eid
  | Vote.Commit_slow ->
    cancel_timer p;
    start_finalize t txn p.p_eid Decision.Commit
  | Vote.Abandon_slow ->
    cancel_timer p;
    start_finalize t txn p.p_eid Decision.Abandon

and cancel_timer p =
  match p.p_timer with
  | Some timer ->
    Engine.cancel timer;
    p.p_timer <- None
  | None -> ()

and start_finalize t txn eid decision =
  let f = { f_eid = eid; f_decision = decision; f_ackers = []; f_fired = false } in
  close_segment t txn;
  txn.phase <- Finalizing f;
  broadcast t (Msg.Finalize { ver = txn.ver; eid; view = 0; decision });
  let rec retry () =
    Engine.post t.engine ~after:t.cfg.prepare_timeout_us (fun () ->
        match txn.phase with
        | Finalizing f' when f' == f && not f.f_fired && not txn.finished ->
          broadcast t (Msg.Finalize { ver = txn.ver; eid; view = 0; decision });
          retry ()
        | Finalizing _ | Executing | Preparing _ | Done -> ())
  in
  retry ()

(* --- Re-execution ------------------------------------------------------ *)

and reexecute t txn idx (slot : slot) w_ver value ~trigger =
  t.stats.reexecs <- t.stats.reexecs + 1;
  txn.reexec_count <- txn.reexec_count + 1;
  Obs.Profile.note_reexec t.prof ~key:slot.s_key;
  (* Flow arrow source: anchored inside the execution span being
     superseded (which close_segment below ends at [now]).  The id is a
     pure function of (ver, superseded eid), shared with the arrow head
     emitted after the phase switch. *)
  let fid = flow_id txn in
  if Obs.Sink.enabled t.obs then
    Obs.Sink.flow t.obs ~name:"reexec" ~cat:"flow" ~ts:(Engine.now t.engine)
      ~pid:t.node ~id:fid ~start:true ();
  Log.debug (fun m ->
      m "txn %a re-executes from read %d of %s" Version.pp txn.ver idx slot.s_key);
  (* If the current execution already entered Prepare, durably abandon it
     (§4.2, Commit & Re-Execution).  The abandon round proceeds in the
     background, overlapped with the re-execution: the coordinator will
     never propose Commit for the superseded execution, and only the
     coordinator (or recovery, after a long timeout) proposes decisions,
     so overlapping is safe and saves a round trip per re-execution. *)
  (match txn.phase with
   | Preparing p when p.p_eid = txn.eid ->
     cancel_timer p;
     Hashtbl.replace t.abandon_acks (txn.ver, txn.eid) (ref []);
     broadcast t
       (Msg.Finalize
          { ver = txn.ver; eid = txn.eid; view = 0; decision = Decision.Abandon })
   | Preparing _ | Executing | Finalizing _ | Done -> ());
  close_segment t txn;
  txn.phase <- Executing;
  txn.eid <- txn.eid + 1;
  (* A fresh execution starts with a clean slate of abandon causes; its
     execute segment is labelled as a re-execution span. *)
  txn.t_reason <- None;
  txn.seg_reexec <- true;
  if Obs.Sink.enabled t.obs then begin
    mark t txn "reexecute"
      [
        ("eid", Obs.Sink.I txn.eid);
        ("from_read", Obs.Sink.I idx);
        ("key", Obs.Sink.S slot.s_key);
      ];
    (* Flow arrow head: lands in the fresh execution's span. *)
    Obs.Sink.flow t.obs ~name:"reexec" ~cat:"flow" ~ts:(Engine.now t.engine)
      ~pid:t.node ~id:fid ~start:false ()
  end;
  (* When the corrected version is the initial datum (the observed writer
     aborted and the read reverts), the blame lies with the writer whose
     disappearance triggered this re-execution — the version the slot
     observed before the unroll below overwrites it. *)
  let aggressor =
    let corrected = vpair w_ver in
    if corrected <> Obs.Lineage.v0 then corrected
    else
      match slot.s_reply with
      | Some (old_ver, _) -> vpair old_ver
      | None -> Obs.Lineage.v0
  in
  Obs.Lineage.note_reexec t.lin ~ver:(vpair txn.ver) ~eid:txn.eid ~trigger
    ~key:slot.s_key ~aggressor ~ts:(Engine.now t.engine);
  (* Unroll: keep the operation prefix up to and including this read. *)
  let rec unroll = function
    | s :: rest when s.s_index > idx -> unroll rest
    | kept -> kept
  in
  txn.slots <- unroll txn.slots;
  txn.n_slots <- idx + 1;
  slot.s_reply <- Some (w_ver, value);
  let rec unroll_ops = function
    | [] -> txn.ops
    | Op_read i :: _ as kept when i = idx -> kept
    | _ :: rest -> unroll_ops rest
  in
  txn.ops <- unroll_ops txn.ops;
  (* The corrected read is the first observation of the new execution. *)
  Obs.Lineage.note_read t.lin ~ver:(vpair txn.ver) ~key:slot.s_key
    ~from:(vpair w_ver) ~eid:txn.eid ~ts:(Engine.now t.engine);
  (* Resume the application from the stored continuation. *)
  slot.s_cont { c_txn = txn; c_eid = txn.eid } value

and consider_reexec t txn key w_ver value ~trigger =
  if
    txn.finished
    || (not t.cfg.reexecution)
    || txn.reexec_count >= t.cfg.max_reexecs
    || Version.compare w_ver txn.ver >= 0
  then ()
  else begin
    (* Re-executions must not start once a Commit decision may already be
       durable. *)
    let commit_in_flight =
      match txn.phase with
      | Finalizing f -> Decision.equal f.f_decision Decision.Commit
      | Executing | Preparing _ | Done -> false
    in
    if not commit_in_flight then
      (* The push reflects the serving replica's current view of the
         latest write visible to this read: shift the read forward (a
         missed newer write) or backward (an observed write was
         retracted by an abort) — any difference re-executes. *)
      let target =
        first_slot txn (fun s ->
            String.equal s.s_key key
            &&
            match s.s_reply with
            | Some (r_ver, r_val) ->
              (not (Version.equal r_ver w_ver)) || not (String.equal r_val value)
            | None -> false)
      in
      match target with
      | Some slot -> reexecute t txn slot.s_index slot w_ver value ~trigger
      | None -> ()
  end

(* --- Message handling --------------------------------------------------- *)

let handle_get_reply t for_ver key w_ver value seq =
  match Hashtbl.find_opt t.txns for_ver with
  | None -> ()
  | Some txn -> (
    match seq with
    | Some s -> (
      let slot = List.find_opt (fun slot -> slot.s_seq = s) txn.slots in
      match slot with
      | Some slot when slot.s_reply = None ->
        slot.s_reply <- Some (w_ver, value);
        if Obs.Sink.enabled t.obs then
          Obs.Sink.span t.obs ~name:"read" ~cat:"op" ~ts:slot.s_sent_us
            ~dur:(Engine.now t.engine - slot.s_sent_us)
            ~pid:t.node
            ~args:[ ver_arg txn; ("key", Obs.Sink.S slot.s_key) ]
            ();
        Obs.Lineage.note_read t.lin ~ver:(vpair txn.ver) ~key:slot.s_key
          ~from:(vpair w_ver) ~eid:txn.eid ~ts:(Engine.now t.engine);
        slot.s_cont { c_txn = txn; c_eid = txn.eid } value
      | Some _ | None -> (* stale or duplicate *) ())
    | None ->
      t.stats.miss_notifications <- t.stats.miss_notifications + 1;
      consider_reexec t txn key w_ver value ~trigger:Obs.Lineage.Missed_read)

let handle_prepare_reply t ver eid vote missed reason ~src =
  match Hashtbl.find_opt t.txns ver with
  | None -> ()
  | Some txn ->
    if txn.eid = eid then note_reason txn reason;
    (* Attached misses may trigger re-execution; process them first so a
       doomed execution is superseded before we count its votes. *)
    List.iter
      (fun (key, w_ver, value) ->
        t.stats.miss_notifications <- t.stats.miss_notifications + 1;
        consider_reexec t txn key w_ver value
          ~trigger:Obs.Lineage.Stale_version)
      missed;
    (match txn.phase with
     | Preparing p when p.p_eid = eid && txn.eid = eid ->
       if not (List.mem_assoc src p.p_votes) then begin
         p.p_votes <- (src, vote) :: p.p_votes;
         evaluate_votes t txn p
       end
     | Preparing _ | Executing | Finalizing _ | Done -> ())

let handle_finalize_reply t ver eid view accepted ~src =
  (* Abandon rounds for superseded executions are tracked separately. *)
  match Hashtbl.find_opt t.abandon_acks (ver, eid) with
  | Some acks ->
    if accepted && view = 0 && not (List.mem src !acks) then acks := src :: !acks;
    if List.length !acks >= t.cfg.f + 1 then begin
      (* The superseded execution's Abandon is durable: let replicas
         clean up its prepared state. *)
      Hashtbl.remove t.abandon_acks (ver, eid);
      match Hashtbl.find_opt t.txns ver with
      | None -> ()
      | Some txn -> decide t txn eid Decision.Abandon ~abort:false
    end
  | None -> (
    match Hashtbl.find_opt t.txns ver with
    | None -> ()
    | Some txn -> (
      match txn.phase with
      | Finalizing f when f.f_eid = eid && not f.f_fired ->
        if accepted && view = 0 then begin
          if not (List.mem src f.f_ackers) then f.f_ackers <- src :: f.f_ackers;
          if List.length f.f_ackers >= t.cfg.f + 1 then begin
            f.f_fired <- true;
            match f.f_decision with
            | Decision.Commit -> finish_commit t txn eid ~fast:false
            | Decision.Abandon -> abandon_outcome t txn eid
          end
        end
        else if not accepted then begin
          (* A recovery coordinator outpaced us; treat as aborted (the
             rare at-least-once window is documented in replica.ml). *)
          f.f_fired <- true;
          finish t txn (Outcome.Aborted Obs.Abort_reason.Recovery_stall)
        end
      | Finalizing _ | Executing | Preparing _ | Done -> ()))

(* --- Follower reads (watermark-pinned snapshots) ------------------------ *)

let ro_attempt_cap t = max (2 * Array.length t.replicas) 6

(* Redirect backoff: capped exponential with full seeded jitter so
   clients bounced off the same stale replica do not stampede the next
   one in lockstep. *)
let ro_backoff t attempt =
  Sim.Backoff.full_jitter t.rng ~base_us:5_000 ~cap_us:160_000 ~attempt

(* The snapshot version for a pin at watermark timestamp [wm_ts].  The
   negative id places the snapshot above the watermark sentinel
   (id [min_int]) but below every real commit at the same timestamp
   (ids are client node ids, >= 0), so [latest_committed_before]
   observes exactly the commits strictly below the watermark.  Ids are
   globally unique: node ids are distinct and the per-client sequence
   stays below the stride. *)
let ro_ver t wm_ts =
  let seq = t.ro_seq in
  t.ro_seq <- seq + 1;
  Version.make ~ts:wm_ts ~id:(-((t.node * 1_000_000) + seq + 1))

let ro_replica_ix t node =
  let ix = ref None in
  Array.iteri (fun i r -> if r = node && !ix = None then ix := Some i) t.replicas;
  !ix

let ro_mk_txn t ~ver ~ro =
  let now = Engine.now t.engine in
  let txn =
    {
      ver; eid = 0; slots = []; n_slots = 0; ops = []; phase = Executing;
      reexec_count = 0; next_seq = 0; commit_cont = None; finished = false;
      t_start_us = now; t_reason = None; ph_start_us = now; exec_us = 0;
      prep_us = 0; fin_us = 0; seg_reexec = false; ro = Some ro;
    }
  in
  Hashtbl.replace t.txns ver txn;
  if Obs.Profile.enabled t.prof then begin
    t.c_cur <- Some txn;
    t.c_comps <- Array.make Obs.Profile.n_cells 0;
    t.c_last_ev <- now
  end;
  if Obs.Sink.enabled t.obs then mark t txn "begin" [];
  Obs.Lineage.note_begin t.lin ~ver:(vpair ver) ~ts:now;
  txn

(* Retire a pinned execution without recording anything: the re-pin
   replays the whole body against a fresher snapshot ([finished] stales
   every stored continuation of the old one). *)
let ro_retire t txn =
  txn.finished <- true;
  Hashtbl.remove t.txns txn.ver;
  match t.c_cur with
  | Some cur when cur == txn -> t.c_cur <- None
  | Some _ | None -> ()

let rec ro_try_pin t st =
  if (not st.rs_done) && st.rs_txn = None then begin
    let n = Array.length t.replicas in
    let dst = t.replicas.((t.closest_ix + st.rs_attempt) mod n) in
    send t dst (Msg.Ro_pin { ro_id = st.rs_id });
    let at = st.rs_attempt in
    Engine.post t.engine ~after:t.cfg.prepare_timeout_us (fun () ->
        if (not st.rs_done) && st.rs_txn = None && st.rs_attempt = at then
          ro_advance t st)
  end

and ro_advance t st =
  st.rs_attempt <- st.rs_attempt + 1;
  if st.rs_attempt >= ro_attempt_cap t then ro_exhausted t st
  else begin
    let wait = ro_backoff t st.rs_attempt in
    Engine.post t.engine ~after:wait (fun () -> ro_try_pin t st)
  end

(* Graceful degradation's floor: no reachable replica could serve within
   the bound.  The body still runs — against a doomed transaction whose
   reads return immediately and whose commit resolves to the typed
   abort — so the caller's continuation chain always reaches its
   outcome and the closed-loop driver never deadlocks. *)
and ro_exhausted t st =
  st.rs_done <- true;
  Hashtbl.remove t.ro_pins st.rs_id;
  let reason =
    if st.rs_saw_stale then Obs.Abort_reason.Stale_replica
    else Obs.Abort_reason.Timeout
  in
  let txn = ro_mk_txn t ~ver:(ro_ver t (Sim.Clock.read t.clock)) ~ro:(Ro_doomed reason) in
  st.rs_txn <- Some txn;
  st.rs_body { c_txn = txn; c_eid = 0 }

let ro_handle_pin_reply t st ~src wm =
  if st.rs_done || st.rs_txn <> None then ()
  else
    match wm with
    | Some (w : Version.t) ->
      let staleness = max 0 (Sim.Clock.read t.clock - w.Version.ts) in
      if staleness > t.cfg.max_staleness_us then begin
        st.rs_saw_stale <- true;
        ro_advance t st
      end
      else begin
        let ver = ro_ver t w.Version.ts in
        (if Obs.Monitor.enabled t.mon then
           match ro_replica_ix t src with
           | Some ix ->
             Obs.Monitor.observe t.mon ~ts:(Engine.now t.engine)
               (Obs.Monitor.Ro_pin
                  {
                    replica = Printf.sprintf "r%d" ix;
                    snap = (ver.Version.ts, ver.Version.id);
                    wm = (w.Version.ts, w.Version.id);
                    staleness_us = staleness;
                    bound_us = t.cfg.max_staleness_us;
                  })
           | None -> ());
        (* A fresh pin starts a fresh redirect cycle. *)
        st.rs_attempt <- 0;
        let txn =
          ro_mk_txn t ~ver
            ~ro:(Ro_pinned { rp_replica = src; rp_stale_us = staleness; rp_id = st.rs_id })
        in
        st.rs_txn <- Some txn;
        st.rs_body { c_txn = txn; c_eid = 0 }
      end
    | None ->
      (* The replica answered but has no certifiable snapshot yet:
         infinitely stale for our purposes. *)
      st.rs_saw_stale <- true;
      ro_advance t st

(* The watermark overtook the pinned snapshot mid-read: re-pin. *)
let ro_handle_stale t st =
  match st.rs_txn with
  | Some txn when (not txn.finished) && not st.rs_done ->
    st.rs_saw_stale <- true;
    ro_retire t txn;
    st.rs_txn <- None;
    ro_advance t st
  | Some _ | None -> ()

(* The pinned replica stopped answering reads (crash or partition):
   re-pin elsewhere.  Reached from the per-read timeout in [get]. *)
let ro_unreachable t rp_id txn =
  match Hashtbl.find_opt t.ro_pins rp_id with
  | Some st -> (
    match st.rs_txn with
    | Some cur when cur == txn && (not txn.finished) && not st.rs_done ->
      ro_retire t txn;
      st.rs_txn <- None;
      ro_advance t st
    | Some _ | None -> ())
  | None -> ()

let ro_begin t body =
  t.stats.begun <- t.stats.begun + 1;
  let id = t.ro_seq in
  t.ro_seq <- id + 1;
  let st =
    { rs_id = id; rs_body = body; rs_attempt = 0; rs_saw_stale = false;
      rs_txn = None; rs_done = false }
  in
  Hashtbl.replace t.ro_pins id st;
  ro_try_pin t st

let handle t ~src msg =
  match msg with
  | Msg.Get_reply { for_ver; key; w_ver; value; seq } ->
    handle_get_reply t for_ver key w_ver value seq
  | Msg.Prepare_reply { ver; eid; vote; missed; reason } ->
    handle_prepare_reply t ver eid vote missed reason ~src
  | Msg.Finalize_reply { ver; eid; view; accepted } ->
    handle_finalize_reply t ver eid view accepted ~src
  | Msg.Ro_pin_reply { ro_id; wm } -> (
    match Hashtbl.find_opt t.ro_pins ro_id with
    | Some st -> ro_handle_pin_reply t st ~src wm
    | None -> ())
  | Msg.Ro_stale { ro_id } -> (
    match Hashtbl.find_opt t.ro_pins ro_id with
    | Some st -> ro_handle_stale t st
    | None -> ())
  | Msg.Get _ | Msg.Put _ | Msg.Prepare _ | Msg.Finalize _ | Msg.Decide _
  | Msg.Paxos_prepare _ | Msg.Paxos_prepare_reply _ | Msg.Truncate _
  | Msg.Propose_merge _ | Msg.Propose_merge_reply _ | Msg.Truncation_finished _
  | Msg.Catchup_request | Msg.Catchup_reply _ | Msg.Ro_pin _ | Msg.Ro_get _ ->
    ()

(* --- Public API --------------------------------------------------------- *)

let create ~cfg ~engine ~net ~rng ~region ~replicas ?(obs = Obs.Sink.null ())
    ?(prof = Obs.Profile.null ()) ?(mon = Obs.Monitor.null ())
    ?(lineage = Obs.Lineage.null ()) ?on_finish () =
  let node = Net.add_node net ~region in
  let closest_ix =
    let n = Array.length replicas in
    let rec scan i =
      if i >= n then 0
      else if Net.region_of net replicas.(i) = region then i
      else scan (i + 1)
    in
    scan 0
  in
  let closest = replicas.(closest_ix) in
  let t =
    {
      cfg;
      engine;
      net;
      clock = Sim.Clock.create engine rng ~max_skew:cfg.max_clock_skew_us;
      rng;
      node;
      replicas;
      closest;
      closest_ix;
      last_ts = 0;
      txns = Hashtbl.create 16;
      ro_pins = Hashtbl.create 8;
      ro_seq = 0;
      abandon_acks = Hashtbl.create 16;
      stats =
        { begun = 0; committed = 0; aborted = 0; reexecs = 0;
          miss_notifications = 0; fast_commits = 0; slow_commits = 0 };
      obs;
      prof;
      mon;
      lin = lineage;
      c_cur = None;
      c_comps = Array.make Obs.Profile.n_cells 0;
      c_last_ev = 0;
      on_finish;
    }
  in
  Net.set_handler net node
    (if Obs.Profile.enabled prof then begin
       Net.track_provenance net;
       fun ~src msg ->
         profile_arrival t;
         handle t ~src msg
     end
     else handle t);
  t

let begin_ t body =
  let ts = max (Sim.Clock.read t.clock) (t.last_ts + 1) in
  t.last_ts <- ts;
  let ver = Version.make ~ts ~id:t.node in
  let now = Engine.now t.engine in
  let txn =
    {
      ver;
      eid = 0;
      slots = [];
      n_slots = 0;
      ops = [];
      phase = Executing;
      reexec_count = 0;
      next_seq = 0;
      commit_cont = None;
      finished = false;
      t_start_us = now;
      t_reason = None;
      ph_start_us = now;
      exec_us = 0;
      prep_us = 0;
      fin_us = 0;
      seg_reexec = false;
      ro = None;
    }
  in
  Hashtbl.replace t.txns ver txn;
  t.stats.begun <- t.stats.begun + 1;
  if Obs.Profile.enabled t.prof then begin
    t.c_cur <- Some txn;
    t.c_comps <- Array.make Obs.Profile.n_cells 0;
    t.c_last_ev <- now
  end;
  if Obs.Sink.enabled t.obs then mark t txn "begin" [];
  Obs.Lineage.note_begin t.lin ~ver:(vpair ver) ~ts:now;
  body { c_txn = txn; c_eid = 0 }

(* Snapshot read of a pinned follower-read transaction: all reads go to
   the one pinned replica, which serves them at the snapshot (or
   answers [Ro_stale], triggering a re-pin). *)
let ro_get t ctx key cont =
  let txn = ctx.c_txn in
  match txn.ro with
  | Some (Ro_pinned p) -> (
    (* Repeatable reads: a second read of the same key returns the value
       already observed (snapshot reads are stable anyway). *)
    match answered_read txn key with
    | Some s ->
      let value = match s.s_reply with Some (_, v) -> v | None -> "" in
      cont ctx value
    | None ->
      let seq = txn.next_seq in
      txn.next_seq <- seq + 1;
      let slot =
        { s_index = txn.n_slots; s_key = key; s_seq = seq;
          s_sent_us = Engine.now t.engine; s_reply = None; s_cont = cont }
      in
      add_slot txn slot;
      send t p.rp_replica
        (Msg.Ro_get { snap = txn.ver; key; seq; ro_id = p.rp_id });
      (* If the pinned replica goes silent (crash, partition), re-pin
         the whole transaction elsewhere rather than retrying here: any
         other replica's snapshot differs, so partial reads are void. *)
      Engine.post t.engine ~after:t.cfg.prepare_timeout_us (fun () ->
          if (not txn.finished) && slot.s_reply = None then
            ro_unreachable t p.rp_id txn))
  | Some (Ro_doomed _) | None -> cont ctx ""

let get t ctx key cont =
  if stale ctx then ()
  else if ctx.c_txn.ro <> None then ro_get t ctx key cont
  else begin
    let txn = ctx.c_txn in
    (* Read-your-own-writes: serve from the write buffer. *)
    let own_write =
      List.find_map
        (function
          | Op_write (k, v) when String.equal k key -> Some v
          | Op_write _ | Op_read _ -> None)
        txn.ops
    in
    match own_write with
    | Some v -> cont ctx v
    | None -> (
      (* Repeatable reads: a second read of the same key returns the
         value already observed. *)
      match answered_read txn key with
      | Some s ->
        let value = match s.s_reply with Some (_, v) -> v | None -> "" in
        cont ctx value
      | None ->
        let seq = txn.next_seq in
        txn.next_seq <- seq + 1;
        let slot =
          { s_index = txn.n_slots; s_key = key; s_seq = seq;
            s_sent_us = Engine.now t.engine; s_reply = None; s_cont = cont }
        in
        add_slot txn slot;
        send t t.closest (Msg.Get { ver = txn.ver; key; seq; eid = txn.eid });
        (* Reads normally go only to the closest replica; if it is
           unreachable (crash, partition), retry on the others. *)
        let rec retry attempt =
          Engine.post t.engine ~after:t.cfg.prepare_timeout_us (fun () ->
              if
                (not txn.finished) && slot.s_reply = None
                && List.memq slot txn.slots
              then begin
                let dst = t.replicas.(attempt mod Array.length t.replicas) in
                send t dst
                  (Msg.Get { ver = txn.ver; key; seq; eid = txn.eid });
                retry (attempt + 1)
              end)
        in
        retry 0)
  end

let put t ctx key value =
  if stale ctx || ctx.c_txn.ro <> None then ctx
  else begin
    let txn = ctx.c_txn in
    txn.ops <- Op_write (key, value) :: txn.ops;
    broadcast t (Msg.Put { ver = txn.ver; key; value; eid = txn.eid });
    ctx
  end

let commit t ctx cont =
  if stale ctx then ()
  else begin
    let txn = ctx.c_txn in
    txn.commit_cont <- Some cont;
    match txn.ro with
    | Some (Ro_doomed reason) -> finish t txn (Outcome.Aborted reason)
    | Some (Ro_pinned _) ->
      (* Snapshot reads at the watermark need no validation: nothing
         below an installed watermark can newly commit (a Prepare below
         it is abandoned), so the read set is stable and the
         serialization point is the watermark itself. *)
      finish t txn Outcome.Committed
    | None -> start_prepare t txn
  end

let abort t ctx =
  if stale ctx then ()
  else begin
    let txn = ctx.c_txn in
    if txn.ro = None then decide t txn txn.eid Decision.Abandon ~abort:true;
    finish t txn (Outcome.Aborted Obs.Abort_reason.User_abort)
  end

(* With follower reads off (the default), [begin_ro] is exactly
   [begin_]: no pin traffic, no extra timers, no RNG draws. *)
let begin_ro t body =
  if t.cfg.max_staleness_us > 0 then ro_begin t body else begin_ t body

let get_for_update = get
