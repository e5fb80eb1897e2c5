(* The version store's shared base: stores attached to one base of the
   initial data answer exactly as stores holding private copies, never
   see each other's writes, and a Morty cluster built the way the
   harness builds it holds one copy of the initial data. *)

module Version = Cc_types.Version
module Vrecord = Mvstore.Vrecord
module Vstore = Mvstore.Vstore

let v ts id = Version.make ~ts ~id

(* ---- Differential: attached base vs private copies ---- *)

type op =
  | Find of string
  | Find_existing of string
  | Add_read of string * Version.t
  | Add_write of string * Version.t * string
  | Commit_write of string * Version.t * string
  | Commit_read of string * Version.t * Version.t
  | Gc of Version.t

let pp_op ppf = function
  | Find k -> Fmt.pf ppf "find %s" k
  | Find_existing k -> Fmt.pf ppf "find_existing %s" k
  | Add_read (k, r) -> Fmt.pf ppf "add_read %s %a" k Version.pp r
  | Add_write (k, w, x) -> Fmt.pf ppf "add_write %s %a %s" k Version.pp w x
  | Commit_write (k, w, x) -> Fmt.pf ppf "commit_write %s %a %s" k Version.pp w x
  | Commit_read (k, r, rv) ->
    Fmt.pf ppf "commit_read %s %a %a" k Version.pp r Version.pp rv
  | Gc w -> Fmt.pf ppf "gc_below %a" Version.pp w

(* Base keys k0..k5; n0 and n1 are never loaded. *)
let gen_key = QCheck.Gen.oneofl [ "k0"; "k1"; "k2"; "k3"; "k4"; "k5"; "n0"; "n1" ]
let gen_ver = QCheck.Gen.(map2 v (1 -- 10) (0 -- 1))
let gen_val = QCheck.Gen.oneofl [ "a"; "b"; "c" ]

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun k -> Find k) gen_key);
        (2, map (fun k -> Find_existing k) gen_key);
        (2, map2 (fun k r -> Add_read (k, r)) gen_key gen_ver);
        (3, map3 (fun k w x -> Add_write (k, w, x)) gen_key gen_ver gen_val);
        (3, map3 (fun k w x -> Commit_write (k, w, x)) gen_key gen_ver gen_val);
        (2, map3 (fun k r rv -> Commit_read (k, r, rv)) gen_key gen_ver gen_ver);
        (1, map (fun w -> Gc w) gen_ver);
      ])

let gen_case =
  QCheck.Gen.(
    pair
      (list_size (0 -- 8)
         (pair (oneofl [ "k0"; "k1"; "k2"; "k3"; "k4"; "k5" ]) gen_val))
      (list_size (0 -- 60) (pair (0 -- 1) gen_op)))

let print_case (data, ops) =
  Fmt.str "data=[%a]@ ops=[%a]"
    Fmt.(list ~sep:semi (pair ~sep:(any "=") string string))
    data
    Fmt.(list ~sep:semi (pair ~sep:(any ":") int pp_op))
    ops

(* Everything a query can observe of a record. *)
let state vr =
  ( Vrecord.committed_writes_list vr,
    Vrecord.committed_reads_list vr,
    Vrecord.latest_before vr (v max_int max_int),
    Vrecord.stats vr )

(* The store before the shared base: one record per initial key. *)
let private_copy data =
  let s = Vstore.create () in
  List.iter
    (fun (key, value) ->
      Vrecord.commit_write (Vstore.find s key) ~ver:Version.zero value)
    data;
  s

(* The (key, committed state) set [iter] and [iter_untouched] cover,
   an untouched key standing for its initial write. *)
let contents s =
  let acc = ref [] in
  Vstore.iter s (fun key vr ->
      acc :=
        (key, Vrecord.committed_writes_list vr, Vrecord.committed_reads_list vr)
        :: !acc);
  Vstore.iter_untouched s (fun key value ->
      acc := (key, [ (Version.zero, value) ], []) :: !acc);
  List.sort compare !acc

let readers reads =
  List.sort compare (List.map (fun (r : Vrecord.read) -> r.reader) reads)

let apply s = function
  | Find k -> `State (Some (state (Vstore.find s k)))
  | Find_existing k -> `State (Option.map state (Vstore.find_existing s k))
  | Add_read (k, reader) ->
    let vr = Vstore.find s k in
    Vrecord.add_read vr ~reader ~coord:0 (Vrecord.latest_before vr reader);
    `Unit
  | Add_write (k, ver, x) -> `Missed (readers (Vrecord.add_write (Vstore.find s k) ~ver x))
  | Commit_write (k, ver, x) ->
    Vrecord.commit_write (Vstore.find s k) ~ver x;
    `Unit
  | Commit_read (k, reader, r_ver) ->
    Vrecord.commit_read (Vstore.find s k) ~reader ~r_ver;
    `Unit
  | Gc wm ->
    (* As a truncation round does: only installed records. *)
    Vstore.iter s (fun _ vr -> Vrecord.gc_below vr wm);
    `Unit

let qcheck_base_matches_private_copies =
  QCheck.Test.make ~name:"attached base = private copies" ~count:500
    (QCheck.make ~print:print_case gen_case)
    (fun (data, ops) ->
      let base = Vstore.base_of_list data in
      let attached =
        Array.init 2 (fun _ ->
            let s = Vstore.create () in
            Vstore.attach s base;
            s)
      in
      let copies = Array.init 2 (fun _ -> private_copy data) in
      List.for_all
        (fun (i, op) ->
          apply attached.(i) op = apply copies.(i) op
          && Array.for_all2
               (fun a c -> Vstore.key_count a = Vstore.key_count c)
               attached copies)
        ops
      && Array.for_all2 (fun a c -> contents a = contents c) attached copies
      (* The base itself saw none of it. *)
      && Array.for_all
           (fun a ->
             match Vstore.base a with Some b -> b == base | None -> false)
           attached
      && contents (let s = Vstore.create () in Vstore.attach s base; s)
         = contents (private_copy data))

(* [load] replaces the records T_init's keys already had and leaves
   other keys alone; a store takes one base. *)
let test_load_over_used_store () =
  let s = Vstore.create () in
  Vrecord.commit_write (Vstore.find s "a") ~ver:(v 5 0) "a5";
  Vrecord.commit_write (Vstore.find s "c") ~ver:(v 5 0) "c5";
  Vstore.load s [ ("a", "1"); ("b", "1") ];
  let current key =
    Option.map
      (fun vr -> (Vrecord.latest_before vr (v max_int max_int)).r_val)
      (Vstore.find_existing s key)
  in
  Alcotest.(check (list (option string)))
    "a reloaded, b loaded, c kept"
    [ Some "1"; Some "1"; Some "c5"; None ]
    (List.map current [ "a"; "b"; "c"; "d" ]);
  Alcotest.(check int) "key count" 3 (Vstore.key_count s);
  Alcotest.check_raises "a second base is refused"
    (Invalid_argument "Vstore.attach: store already has a base") (fun () ->
      Vstore.load s [ ("d", "2") ])

(* A key materialised from the base is the same cold record a private
   load installed: 18 words (see the cold-record pin in the vrecord
   suite), and the same physical record on every later lookup. *)
let test_materialised_key_is_cold () =
  let base = Vstore.base_of_list [ ("x", "v"); ("y", "w") ] in
  let s = Vstore.create () in
  Vstore.attach s base;
  let vr = Vstore.find s "x" in
  Alcotest.(check int) "materialised record words" 18
    (Obj.reachable_words (Obj.repr vr));
  Alcotest.(check bool) "find returns the installed record" true
    (Vstore.find s "x" == vr);
  Alcotest.(check bool) "find_existing returns it too" true
    (match Vstore.find_existing s "x" with Some r -> r == vr | None -> false);
  Alcotest.(check int) "key count unchanged by materialising" 2 (Vstore.key_count s)

(* ---- Regression guard: one copy of the initial data per cluster ---- *)

let cluster ~n_keys =
  let e =
    {
      Harness.Run.default_exp with
      e_workload =
        Harness.Run.Ycsb { Workload.Ycsb.default_conf with n_keys };
    }
  in
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create e.e_seed in
  let net = Simnet.Net.create engine (Sim.Rng.split rng) ~setup:e.e_setup () in
  Harness.Run.morty_cluster ~cfg:Morty.Config.default ~engine ~net ~rng e

(* Words a replica's store holds beyond the shared base. *)
let own_words r =
  let store = Morty.Replica.store r in
  match Vstore.base store with
  | None -> Alcotest.fail "replica has no base"
  | Some base ->
    Obj.reachable_words (Obj.repr store) - Obj.reachable_words (Obj.repr base)

let test_cluster_shares_one_base () =
  let small = cluster ~n_keys:1_000 and large = cluster ~n_keys:10_000 in
  let base r = Vstore.base (Morty.Replica.store r) in
  Array.iter
    (fun r ->
      Alcotest.(check bool) "every replica attaches the same base" true
        (match (base r, base large.(0)) with
        | Some b, Some b0 -> b == b0
        | _ -> false);
      Alcotest.(check int) "every key readable" 10_000
        (Morty.Replica.store_size r))
    large;
  let per_replica = Array.map own_words in
  Alcotest.(check (array int))
    "store words beyond the base do not grow with the key count"
    (per_replica small) (per_replica large)

let suites =
  [
    ( "mvstore.vstore",
      [
        QCheck_alcotest.to_alcotest qcheck_base_matches_private_copies;
        Alcotest.test_case "load over a used store" `Quick
          test_load_over_used_store;
        Alcotest.test_case "materialised key is cold" `Quick
          test_materialised_key_is_cold;
        Alcotest.test_case "cluster shares one base" `Quick
          test_cluster_shares_one_base;
      ] );
  ]
