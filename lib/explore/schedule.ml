type event =
  | Crash of int
  | Recover of int
  | Kill of int
  | Restart of int
  | Isolate of int
  | Heal_all
  | Partition of int
  | Heal of int
  | Loss of float
  | Delay of int

type timed = { at_us : int; ev : event }

type t = timed list

let empty = []

let is_empty = function [] -> true | _ -> false

let of_list l = List.stable_sort (fun a b -> compare a.at_us b.at_us) l

let events t = t

(* Amnesia episodes must not overlap: a second concurrent kill would be
   refused by the harness's f-threshold guard, leaving its Restart an
   orphaned no-op, and back-to-back kills would hit a replica still
   catching up.  The pad leaves room for the catch-up round after the
   Restart fires. *)
let kill_pad_us = 50_000

let generate ~kill_restart ?(partitions = false) ~rng ~horizon_us ~n_replicas
    ~episodes () =
  let n_replicas = max 1 n_replicas in
  let acc = ref [] in
  let push at_us ev = acc := { at_us; ev } :: !acc in
  let kill_windows = ref [] in
  let kill_free t0 t1 =
    List.for_all
      (fun (a, b) -> t1 + kill_pad_us < a || b + kill_pad_us < t0)
      !kill_windows
  in
  let episodes = max 1 episodes in
  for ep = 1 to episodes do
    let t0 = Sim.Rng.int rng (max 1 (horizon_us * 3 / 4)) in
    let dur = (horizon_us / 20) + Sim.Rng.int rng (max 1 (horizon_us / 4)) in
    let t1 = min (t0 + dur) (horizon_us - 1) in
    (* The first episode of a kill-enabled schedule is always an
       amnesia episode, so every generated schedule exercises the
       restart/catch-up path at least once. *)
    (* Kind 5 is the datacenter-partition episode, only drawn when
       [partitions] widens the range — the default range is unchanged so
       pre-existing seeded schedules replay bit-identically. *)
    let kind =
      if not kill_restart then begin
        let k = Sim.Rng.int rng (if partitions then 5 else 4) in
        if k = 4 then 5 else k
      end
      else if ep = 1 then 4
      else Sim.Rng.int rng (if partitions then 6 else 5)
    in
    match kind with
    | 0 ->
      let r = Sim.Rng.int rng n_replicas in
      push t0 (Crash r);
      push t1 (Recover r)
    | 1 ->
      let r = Sim.Rng.int rng n_replicas in
      push t0 (Isolate r);
      push t1 Heal_all
    | 2 ->
      let p = 0.02 +. Sim.Rng.float rng 0.15 in
      push t0 (Loss p);
      push t1 (Loss 0.)
    | 3 ->
      let d = 200 + Sim.Rng.int rng 4_800 in
      push t0 (Delay d);
      push t1 (Delay 0)
    | 5 ->
      (* Region 0 holds replica 0 (Morty's truncation merger and the
         Spanner leaders), so group 0 is the leader-isolating cut and
         the others are minority read-site cuts. *)
      let g = Sim.Rng.int rng 3 in
      push t0 (Partition g);
      push t1 (Heal g)
    | _ ->
      let r = Sim.Rng.int rng n_replicas in
      if kill_free t0 t1 then begin
        kill_windows := (t0, t1) :: !kill_windows;
        push t0 (Kill r);
        push t1 (Restart r)
      end
      else begin
        (* Overlapping amnesia windows degrade to a transient crash of
           the same slot — still a fault, never a second amnesiac. *)
        push t0 (Crash r);
        push t1 (Recover r)
      end
  done;
  of_list (List.rev !acc)

let fire (ops : Harness.Run.cluster_ops) = function
  | Crash i -> ops.co_crash i
  | Recover i -> ops.co_recover i
  | Kill i -> ops.co_kill i
  | Restart i -> ops.co_restart i
  | Isolate i -> ops.co_isolate i
  | Heal_all -> ops.co_heal_all ()
  | Partition g -> ops.co_partition g
  | Heal g -> ops.co_heal g
  | Loss p -> ops.co_set_loss p
  | Delay d -> ops.co_set_extra_delay d

let apply t (ops : Harness.Run.cluster_ops) =
  List.iter
    (fun { at_us; ev } ->
      Sim.Engine.post_at ops.co_engine ~at:at_us (fun () -> fire ops ev))
    t

let pp_event ppf = function
  | Crash i -> Fmt.pf ppf "crash %d" i
  | Recover i -> Fmt.pf ppf "recover %d" i
  | Kill i -> Fmt.pf ppf "kill %d" i
  | Restart i -> Fmt.pf ppf "restart %d" i
  | Isolate i -> Fmt.pf ppf "isolate %d" i
  | Heal_all -> Fmt.pf ppf "heal-all"
  | Partition g -> Fmt.pf ppf "partition %d" g
  | Heal g -> Fmt.pf ppf "heal %d" g
  | Loss p -> Fmt.pf ppf "loss %.3f" p
  | Delay d -> Fmt.pf ppf "delay %dus" d

let pp ppf t =
  Fmt.pf ppf "[%a]"
    (Fmt.list ~sep:(Fmt.any "; ") (fun ppf { at_us; ev } ->
         Fmt.pf ppf "%d:%a" at_us pp_event ev))
    t

let to_string t = Fmt.str "%a" pp t

let ocaml_of_event = function
  | Crash i -> Printf.sprintf "Explore.Schedule.Crash %d" i
  | Recover i -> Printf.sprintf "Explore.Schedule.Recover %d" i
  | Kill i -> Printf.sprintf "Explore.Schedule.Kill %d" i
  | Restart i -> Printf.sprintf "Explore.Schedule.Restart %d" i
  | Isolate i -> Printf.sprintf "Explore.Schedule.Isolate %d" i
  | Heal_all -> "Explore.Schedule.Heal_all"
  | Partition g -> Printf.sprintf "Explore.Schedule.Partition %d" g
  | Heal g -> Printf.sprintf "Explore.Schedule.Heal %d" g
  | Loss p -> Printf.sprintf "Explore.Schedule.Loss %h" p
  | Delay d -> Printf.sprintf "Explore.Schedule.Delay %d" d

let to_ocaml t =
  let items =
    List.map
      (fun { at_us; ev } ->
        Printf.sprintf "{ Explore.Schedule.at_us = %d; ev = %s }" at_us
          (ocaml_of_event ev))
      t
  in
  "Explore.Schedule.of_list [ " ^ String.concat "; " items ^ " ]"
