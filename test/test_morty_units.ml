(* Unit tests for Morty's pure components (Table 1 vote aggregation, the
   multi-version record) and integration tests for the ablation
   configurations and adverse clock skew. *)

module Version = Cc_types.Version
module Outcome = Cc_types.Outcome
module Vote = Morty.Vote
module Vrecord = Mvstore.Vrecord

let v ts = Version.make ~ts ~id:0

(* ---- Table 1 aggregation ---- *)

let agg = Alcotest.testable Vote.pp_aggregate (fun a b -> a = b)

let test_fast_path_unanimous () =
  Alcotest.check agg "3 commits" Vote.Commit_fast
    (Vote.aggregate ~f:1 ~force:false [ Commit; Commit; Commit ])

let test_partial_commits_wait () =
  Alcotest.check agg "2 commits, waiting" Vote.Undecided
    (Vote.aggregate ~f:1 ~force:false [ Commit; Commit ])

let test_partial_commits_forced () =
  Alcotest.check agg "2 commits, forced" Vote.Commit_slow
    (Vote.aggregate ~f:1 ~force:true [ Commit; Commit ])

let test_abandon_final_is_durable () =
  Alcotest.check agg "1 abandon-final" Vote.Abandon_fast
    (Vote.aggregate ~f:1 ~force:false [ Abandon_final ]);
  Alcotest.check agg "abandon-final dominates commits" Vote.Abandon_fast
    (Vote.aggregate ~f:1 ~force:false [ Commit; Commit; Abandon_final ])

let test_tentative_with_majority_commits () =
  Alcotest.check agg "2 commit + 1 tentative" Vote.Commit_slow
    (Vote.aggregate ~f:1 ~force:false [ Commit; Commit; Abandon_tentative ])

let test_tentative_without_majority () =
  Alcotest.check agg "1 commit + 2 tentative" Vote.Abandon_slow
    (Vote.aggregate ~f:1 ~force:false [ Commit; Abandon_tentative; Abandon_tentative ])

let test_not_enough_replies_even_forced () =
  Alcotest.check agg "1 reply, forced" Vote.Undecided
    (Vote.aggregate ~f:1 ~force:true [ Commit ])

let test_f2_thresholds () =
  (* f = 2: n = 5, fast needs 5, slow needs 3. *)
  let c = Vote.Commit in
  Alcotest.check agg "5 commits fast" Vote.Commit_fast
    (Vote.aggregate ~f:2 ~force:false [ c; c; c; c; c ]);
  Alcotest.check agg "4 commits waiting" Vote.Undecided
    (Vote.aggregate ~f:2 ~force:false [ c; c; c; c ]);
  Alcotest.check agg "3 commits forced" Vote.Commit_slow
    (Vote.aggregate ~f:2 ~force:true [ c; c; c ]);
  Alcotest.check agg "all in, 3 commits 2 tentative" Vote.Commit_slow
    (Vote.aggregate ~f:2 ~force:false
       [ c; c; c; Abandon_tentative; Abandon_tentative ])

let qcheck_aggregate_never_commits_with_final =
  let vote_gen =
    QCheck.Gen.oneofl [ Vote.Commit; Vote.Abandon_tentative; Vote.Abandon_final ]
  in
  QCheck.Test.make ~name:"abandon-final precludes commit" ~count:500
    QCheck.(make Gen.(list_size (1 -- 5) vote_gen))
    (fun votes ->
      let has_final = List.exists (fun v -> v = Vote.Abandon_final) votes in
      match Vote.aggregate ~f:2 ~force:true votes with
      | Vote.Commit_fast | Vote.Commit_slow -> not has_final
      | Vote.Abandon_fast | Vote.Abandon_slow | Vote.Undecided -> true)

let qcheck_aggregate_commit_needs_majority =
  let vote_gen =
    QCheck.Gen.oneofl [ Vote.Commit; Vote.Abandon_tentative; Vote.Abandon_final ]
  in
  QCheck.Test.make ~name:"commit requires f+1 commit votes" ~count:500
    QCheck.(make Gen.(list_size (1 -- 5) vote_gen))
    (fun votes ->
      let commits = List.length (List.filter (fun v -> v = Vote.Commit) votes) in
      match Vote.aggregate ~f:2 ~force:true votes with
      | Vote.Commit_fast | Vote.Commit_slow -> commits >= 3
      | Vote.Abandon_fast | Vote.Abandon_slow | Vote.Undecided -> true)

(* ---- Vrecord ---- *)

let test_vrecord_visibility_order () =
  let vr = Vrecord.create () in
  Vrecord.commit_write vr ~ver:(v 5) "five";
  ignore (Vrecord.add_write vr ~ver:(v 8) "eight");
  (* Reader above both sees the uncommitted write (eager visibility). *)
  let r = Vrecord.latest_before vr (v 10) in
  Alcotest.(check string) "eager" "eight" r.r_val;
  (* A reader between them sees the committed one. *)
  let r = Vrecord.latest_before vr (v 7) in
  Alcotest.(check string) "between" "five" r.r_val;
  (* Committed-only view ignores the uncommitted write. *)
  let r = Vrecord.latest_committed_before vr (v 10) in
  Alcotest.(check string) "committed only" "five" r.r_val

let test_vrecord_miss_detection () =
  let vr = Vrecord.create () in
  Vrecord.commit_write vr ~ver:(v 1) "one";
  Vrecord.add_read vr ~reader:(v 10) ~coord:0 { r_ver = v 1; r_val = "one" };
  (* A write between the read dependency and the reader is a miss. *)
  let missed = Vrecord.add_write vr ~ver:(v 5) "five" in
  Alcotest.(check int) "one miss" 1 (List.length missed);
  (* A write above the reader is not. *)
  let missed = Vrecord.add_write vr ~ver:(v 20) "twenty" in
  Alcotest.(check int) "no miss" 0 (List.length missed)

let test_vrecord_validation_checks () =
  let vr = Vrecord.create () in
  Vrecord.commit_write vr ~ver:(v 1) "one";
  ignore (Vrecord.add_write vr ~ver:(v 5) "five");
  (* Check 1: reader at v10 whose dependency is v1 missed v5. *)
  (match Vrecord.write_missed_by_read vr ~reader:(v 10) ~r_ver:(v 1) with
   | Vrecord.Missed_uncommitted m -> Alcotest.(check string) "missed val" "five" m.r_val
   | Vrecord.Missed_committed _ -> Alcotest.fail "should be uncommitted"
   | Vrecord.No_miss -> Alcotest.fail "miss expected");
  Vrecord.commit_write vr ~ver:(v 5) "five";
  (match Vrecord.write_missed_by_read vr ~reader:(v 10) ~r_ver:(v 1) with
   | Vrecord.Missed_committed _ -> ()
   | Vrecord.Missed_uncommitted _ | Vrecord.No_miss -> Alcotest.fail "committed miss");
  (* No miss when the dependency is the latest below the reader. *)
  (match Vrecord.write_missed_by_read vr ~reader:(v 10) ~r_ver:(v 5) with
   | Vrecord.No_miss -> ()
   | _ -> Alcotest.fail "no miss expected")

let test_vrecord_check2 () =
  let vr = Vrecord.create () in
  Vrecord.commit_read vr ~reader:(v 10) ~r_ver:(v 1);
  Alcotest.(check bool) "committed reader missed write at v5" true
    (Vrecord.committed_read_missing_write vr ~w_ver:(v 5));
  Alcotest.(check bool) "write above reader is fine" false
    (Vrecord.committed_read_missing_write vr ~w_ver:(v 20));
  Vrecord.prepare_read vr ~reader:(v 30) ~eid:0 ~r_ver:(v 1);
  Alcotest.(check bool) "prepared reader missed write" true
    (Vrecord.prepared_read_missing_write vr ~w_ver:(v 15));
  Alcotest.(check bool) "own write excluded" false
    (Vrecord.prepared_read_missing_write vr ~w_ver:(v 30))

let test_vrecord_gc () =
  let vr = Vrecord.create () in
  for i = 1 to 10 do
    Vrecord.commit_write vr ~ver:(v i) (string_of_int i);
    Vrecord.commit_read vr ~reader:(v i) ~r_ver:(v (i - 1))
  done;
  Vrecord.gc_below vr (v 8);
  let _, _, _, committed = Vrecord.stats vr in
  (* Keeps versions 8, 9, 10 plus 7: the newest committed write below
     the watermark is what any snapshot read at or above the watermark
     observes, so GC must retain it even when newer commits exist. *)
  Alcotest.(check int) "gc kept tail" 4 committed;
  let r = Vrecord.latest_before vr (v 100) in
  Alcotest.(check string) "current value survives" "10" r.r_val;
  let r = Vrecord.latest_committed_before vr (v 8) in
  Alcotest.(check string) "watermark snapshot value survives" "7" r.r_val

let test_vrecord_abort_cleanup () =
  let vr = Vrecord.create () in
  ignore (Vrecord.add_write vr ~ver:(v 5) "dirty");
  Vrecord.abort_writes vr ~ver:(v 5);
  let r = Vrecord.latest_before vr (v 10) in
  Alcotest.(check string) "aborted write invisible" "" r.r_val

(* A store holds one record per key per replica, and most keys of a
   large keyspace are loaded and then only read.  Such a cold record
   must stay its committed binding alone — no conflict tables — and no
   read-only or remove-only call may grow it.  Allocation is
   deterministic, so the size is the same on every host: the record
   (7 words), one map node (6), [Version.zero] (3) and the value (2). *)
let test_vrecord_cold_record () =
  let vr = Vrecord.of_committed ~ver:Version.zero "v" in
  let words () = Obj.reachable_words (Obj.repr vr) in
  let cold = words () in
  Alcotest.(check int) "cold record words" 18 cold;
  let via_commit = Vrecord.create () in
  Vrecord.commit_write via_commit ~ver:Version.zero "v";
  Alcotest.(check int) "create + commit_write is as small" cold
    (Obj.reachable_words (Obj.repr via_commit));
  let keeps name f =
    ignore (Sys.opaque_identity (f ()));
    Alcotest.(check int) name cold (words ())
  in
  keeps "latest_before" (fun () -> Vrecord.latest_before vr (v 10));
  keeps "latest_committed_before" (fun () ->
      Vrecord.latest_committed_before vr (v 10));
  keeps "find_read" (fun () -> Vrecord.find_read vr (v 10));
  keeps "write_missed_by_read" (fun () ->
      Vrecord.write_missed_by_read vr ~reader:(v 10) ~r_ver:Version.zero);
  keeps "committed_read_missing_write" (fun () ->
      Vrecord.committed_read_missing_write vr ~w_ver:(v 5));
  keeps "prepared_read_missing_write" (fun () ->
      Vrecord.prepared_read_missing_write vr ~w_ver:(v 5));
  keeps "reads_missing_version" (fun () ->
      Vrecord.reads_missing_version vr ~ver:(v 5) "x");
  keeps "reads_observing" (fun () -> Vrecord.reads_observing vr Version.zero);
  keeps "unprepare" (fun () -> Vrecord.unprepare vr ~ver:(v 5) ~eid:0);
  keeps "unprepare_all" (fun () -> Vrecord.unprepare_all vr ~ver:(v 5));
  keeps "remove_read" (fun () -> Vrecord.remove_read vr (v 10));
  keeps "abort_writes" (fun () -> Vrecord.abort_writes vr ~ver:(v 5));
  keeps "gc_below" (fun () -> Vrecord.gc_below vr (v 10));
  keeps "committed_reads_list" (fun () -> Vrecord.committed_reads_list vr);
  (* The first inserting call creates the conflict tables. *)
  Vrecord.add_read vr ~reader:(v 10) ~coord:0
    (Vrecord.latest_before vr (v 10));
  Alcotest.(check bool) "add_read grows the record" true (words () > cold)

(* ---- Ablation configurations still preserve correctness ---- *)

type cluster = {
  engine : Sim.Engine.t;
  net : Morty.Msg.t Simnet.Net.t;
  rng : Sim.Rng.t;
  replicas : Morty.Replica.t array;
  cfg : Morty.Config.t;
}

let make_cluster cfg =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create 31 in
  let net = Simnet.Net.create engine (Sim.Rng.split rng) ~setup:Simnet.Latency.Reg () in
  let replicas =
    Array.init 3 (fun i ->
        Morty.Replica.create ~cfg ~engine ~net ~rng:(Sim.Rng.split rng) ~index:i
          ~region:(Simnet.Latency.Az i) ~cores:2 ())
  in
  let peers = Array.map Morty.Replica.node replicas in
  Array.iter (fun r -> Morty.Replica.set_peers r peers) replicas;
  { engine; net; rng; replicas; cfg }

let counter_run c ~clients ~count =
  Array.iter (fun r -> Morty.Replica.load r [ ("ctr", "0") ]) c.replicas;
  let peers = Array.map Morty.Replica.node c.replicas in
  let cls =
    List.init clients (fun i ->
        Morty.Client.create ~cfg:c.cfg ~engine:c.engine ~net:c.net
          ~rng:(Sim.Rng.split c.rng) ~region:(Simnet.Latency.Az (i mod 3))
          ~replicas:peers ())
  in
  List.iter
    (fun client ->
      let crng = Sim.Rng.split c.rng in
      let rec loop remaining attempt =
        if remaining > 0 then
          Morty.Client.begin_ client (fun ctx ->
              Morty.Client.get client ctx "ctr" (fun ctx vstr ->
                  let n = if vstr = "" then 0 else int_of_string vstr in
                  let ctx = Morty.Client.put client ctx "ctr" (string_of_int (n + 1)) in
                  Morty.Client.commit client ctx (function
                    | Outcome.Committed -> loop (remaining - 1) 0
                    | Outcome.Aborted _ ->
                      ignore
                        (Sim.Engine.schedule c.engine
                           ~after:(1 + Sim.Rng.int crng (8_000 * (1 lsl min attempt 8)))
                           (fun () -> loop remaining (attempt + 1))))))
      in
      loop count 0)
    cls;
  Sim.Engine.run c.engine;
  match Morty.Replica.read_current c.replicas.(0) "ctr" with
  | Some value -> int_of_string value
  | None -> -1

let test_commit_time_visibility_correct () =
  let cfg = { Morty.Config.default with eager_writes = false } in
  let c = make_cluster cfg in
  Alcotest.(check int) "counter exact" 20 (counter_run c ~clients:4 ~count:5)

let test_always_slow_path_correct () =
  let cfg = { Morty.Config.default with always_slow_path = true } in
  let c = make_cluster cfg in
  Alcotest.(check int) "counter exact" 20 (counter_run c ~clients:4 ~count:5)

let test_reexec_cap_correct () =
  let cfg = { Morty.Config.default with max_reexecs = 1 } in
  let c = make_cluster cfg in
  Alcotest.(check int) "counter exact" 30 (counter_run c ~clients:6 ~count:5)

let test_large_clock_skew_correct () =
  (* 50 ms skew: timestamps are badly misaligned with real time, forcing
     many out-of-order writes; the counter must still be exact. *)
  let cfg = { Morty.Config.default with max_clock_skew_us = 50_000 } in
  let c = make_cluster cfg in
  Alcotest.(check int) "counter exact" 30 (counter_run c ~clients:6 ~count:5)

let test_wan_setup_correct () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create 41 in
  let net = Simnet.Net.create engine (Sim.Rng.split rng) ~setup:Simnet.Latency.Glo () in
  let cfg = Morty.Config.default in
  let regions = Simnet.Latency.regions Simnet.Latency.Glo in
  let replicas =
    Array.init 3 (fun i ->
        Morty.Replica.create ~cfg ~engine ~net ~rng:(Sim.Rng.split rng) ~index:i
          ~region:regions.(i) ~cores:2 ())
  in
  let peers = Array.map Morty.Replica.node replicas in
  Array.iter (fun r -> Morty.Replica.set_peers r peers) replicas;
  let c = { engine; net; rng; replicas; cfg } in
  Alcotest.(check int) "counter exact across continents" 12
    (counter_run c ~clients:3 ~count:4)

let suites =
  [
    ( "morty.votes",
      [
        Alcotest.test_case "fast path unanimous" `Quick test_fast_path_unanimous;
        Alcotest.test_case "partial commits wait" `Quick test_partial_commits_wait;
        Alcotest.test_case "partial commits forced" `Quick test_partial_commits_forced;
        Alcotest.test_case "abandon-final durable" `Quick test_abandon_final_is_durable;
        Alcotest.test_case "tentative + majority" `Quick test_tentative_with_majority_commits;
        Alcotest.test_case "tentative w/o majority" `Quick test_tentative_without_majority;
        Alcotest.test_case "too few replies" `Quick test_not_enough_replies_even_forced;
        Alcotest.test_case "f=2 thresholds" `Quick test_f2_thresholds;
        QCheck_alcotest.to_alcotest qcheck_aggregate_never_commits_with_final;
        QCheck_alcotest.to_alcotest qcheck_aggregate_commit_needs_majority;
      ] );
    ( "mvstore.vrecord",
      [
        Alcotest.test_case "visibility order" `Quick test_vrecord_visibility_order;
        Alcotest.test_case "miss detection" `Quick test_vrecord_miss_detection;
        Alcotest.test_case "validation checks" `Quick test_vrecord_validation_checks;
        Alcotest.test_case "check 2" `Quick test_vrecord_check2;
        Alcotest.test_case "gc" `Quick test_vrecord_gc;
        Alcotest.test_case "abort cleanup" `Quick test_vrecord_abort_cleanup;
        Alcotest.test_case "cold record" `Quick test_vrecord_cold_record;
      ] );
    ( "morty.ablation",
      [
        Alcotest.test_case "commit-time visibility" `Quick test_commit_time_visibility_correct;
        Alcotest.test_case "always slow path" `Quick test_always_slow_path_correct;
        Alcotest.test_case "re-exec cap" `Quick test_reexec_cap_correct;
        Alcotest.test_case "large clock skew" `Quick test_large_clock_skew_correct;
        Alcotest.test_case "global WAN" `Quick test_wan_setup_correct;
      ] );
  ]
