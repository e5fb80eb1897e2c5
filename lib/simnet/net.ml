type node = int

(* Message-level provenance for the critical-path profiler.  [path] is
   the upstream work a message's causal chain already paid before it was
   sent — request transit, CPU queueing and CPU service at the sender —
   set by instrumented senders around [send] and read by receivers via
   [current_delivery] while their handler runs.  Purely observational:
   none of this draws randomness or affects scheduling. *)
type path = { p_transit_us : int; p_queue_us : int; p_service_us : int }

let no_path = { p_transit_us = 0; p_queue_us = 0; p_service_us = 0 }

type delivery_info = { di_send_us : int; di_recv_us : int; di_path : path }

type 'm node_state = {
  region : Latency.region;
  mutable handler : (src:node -> 'm -> unit) option;
  mutable crashed : bool;
  (* Earliest time the next message on each inbound channel may be
     delivered, indexed by sender (0 past the end): enforces per-pair
     FIFO. *)
  mutable last_delivery : int array;
}

type 'm t = {
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  setup : Latency.setup;
  base_delay_us : int;
  jitter_us : int;
  mutable nodes : 'm node_state array;
  mutable n : int;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  (* Severed directed links (network partition injection). *)
  cut_links : (node * node, unit) Hashtbl.t;
  (* Named partition groups (datacenter-granularity cuts): for each
     active name, exactly the directed links that cut NEWLY severed —
     links that were already cut (by another group or by [cut_link]) are
     not recorded, so healing a name restores exactly the pre-cut
     state. *)
  named_cuts : (string, (node * node) list) Hashtbl.t;
  (* Fault-injection knobs (deterministic exploration harness).  A
     message is lost with the per-link probability if one is set, else
     the global rate; every surviving message pays up to
     [extra_delay_us] of additional uniform delay. *)
  mutable loss_rate : float;
  link_loss : (node * node, float) Hashtbl.t;
  mutable extra_delay_us : int;
  (* Provenance plumbing, live only once a profiled component has called
     [track_provenance]: [send_path] is the sticky sender-side context
     captured by each [send]; [current] is set for the duration of a
     delivery handler invocation. *)
  mutable provenance : bool;
  mutable send_path : path;
  mutable current : delivery_info option;
  (* Read-only tap on message traffic (the flight recorder).  Observers
     see sends (including drops) and handler deliveries; they draw no
     randomness and cannot touch the message, so attaching one leaves
     the run byte-identical. *)
  mutable observer : 'm option_observer;
}

and 'm net_event =
  | Sent of { ne_ts : int; ne_src : node; ne_dst : node; ne_msg : 'm;
              ne_dropped : bool }
  | Delivered of { ne_ts : int; ne_src : node; ne_dst : node; ne_msg : 'm;
                   ne_send_us : int }

and 'm option_observer = ('m net_event -> unit) option

let create engine rng ~setup ?(base_delay_us = 60) ?(jitter_us = 20) () =
  { engine; rng; setup; base_delay_us; jitter_us; nodes = [||]; n = 0;
    sent = 0; delivered = 0; dropped = 0; cut_links = Hashtbl.create 16;
    named_cuts = Hashtbl.create 4;
    loss_rate = 0.; link_loss = Hashtbl.create 16; extra_delay_us = 0;
    provenance = false; send_path = no_path; current = None; observer = None }

let set_observer t f = t.observer <- Some f

let notify t ev = match t.observer with None -> () | Some f -> f ev

let add_node t ~region =
  let state =
    { region; handler = None; crashed = false; last_delivery = [||] }
  in
  if t.n = Array.length t.nodes then begin
    let cap = max 16 (2 * t.n) in
    let nodes' = Array.make cap state in
    Array.blit t.nodes 0 nodes' 0 t.n;
    t.nodes <- nodes'
  end;
  t.nodes.(t.n) <- state;
  t.n <- t.n + 1;
  t.n - 1

let check t node =
  if node < 0 || node >= t.n then invalid_arg "Net: unknown node";
  t.nodes.(node)

let set_handler t node f = (check t node).handler <- Some f

let region_of t node = (check t node).region

let node_count t = t.n

(* Loss probability for one message on [src -> dst]: the per-link
   setting wins over the global rate.  Only draws from the RNG when a
   non-zero probability is configured, so fault-free runs keep the exact
   event streams they had before loss injection existed.  The link
   tables are probed only when non-empty: the fault-free path hashes
   nothing. *)
let lost t ~src ~dst =
  let p =
    if Hashtbl.length t.link_loss = 0 then t.loss_rate
    else
      match Hashtbl.find_opt t.link_loss (src, dst) with
      | Some p -> p
      | None -> t.loss_rate
  in
  p > 0. && Sim.Rng.float t.rng 1.0 < p

let is_cut t ~src ~dst =
  Hashtbl.length t.cut_links > 0 && Hashtbl.mem t.cut_links (src, dst)

let earliest d src =
  if src < Array.length d.last_delivery then d.last_delivery.(src) else 0

let set_earliest t d src at =
  if src >= Array.length d.last_delivery then begin
    let a = Array.make (max t.n (src + 1)) 0 in
    Array.blit d.last_delivery 0 a 0 (Array.length d.last_delivery);
    d.last_delivery <- a
  end;
  d.last_delivery.(src) <- at

let deliver t d ~src ~dst ~send_us ~at ~path msg =
  if d.crashed then t.dropped <- t.dropped + 1
  else
    match d.handler with
    | None -> t.dropped <- t.dropped + 1
    | Some h ->
      t.delivered <- t.delivered + 1;
      notify t
        (Delivered { ne_ts = at; ne_src = src; ne_dst = dst; ne_msg = msg;
                     ne_send_us = send_us });
      if t.provenance then begin
        t.current <- Some { di_send_us = send_us; di_recv_us = at; di_path = path };
        h ~src msg;
        t.current <- None
      end
      else h ~src msg

let send t ~src ~dst msg =
  let s = check t src and d = check t dst in
  t.sent <- t.sent + 1;
  if s.crashed || d.crashed || is_cut t ~src ~dst || lost t ~src ~dst then begin
    t.dropped <- t.dropped + 1;
    notify t
      (Sent { ne_ts = Sim.Engine.now t.engine; ne_src = src; ne_dst = dst;
              ne_msg = msg; ne_dropped = true })
  end
  else begin
    let jitter = if t.jitter_us = 0 then 0 else Sim.Rng.int t.rng (t.jitter_us + 1) in
    let extra =
      if t.extra_delay_us = 0 then 0 else Sim.Rng.int t.rng (t.extra_delay_us + 1)
    in
    let delay =
      Latency.one_way_us t.setup s.region d.region + t.base_delay_us + jitter + extra
    in
    let now = Sim.Engine.now t.engine in
    let at = max (now + delay) (earliest d src) in
    set_earliest t d src at;
    let path = t.send_path in
    notify t
      (Sent { ne_ts = now; ne_src = src; ne_dst = dst; ne_msg = msg;
              ne_dropped = false });
    Sim.Engine.post_at t.engine ~kind:Sim.Engine.Delivery ~at (fun () ->
        deliver t d ~src ~dst ~send_us:now ~at ~path msg)
  end

let track_provenance t = t.provenance <- true

let set_send_path t ~transit_us ~queue_us ~service_us =
  t.send_path <-
    { p_transit_us = transit_us; p_queue_us = queue_us; p_service_us = service_us }

let clear_send_path t = t.send_path <- no_path

let current_delivery t = t.current

let serve t node cpu ~cost ?on_service handle =
  match on_service with
  | None ->
    set_handler t node (fun ~src msg ->
        Cpu.submit cpu ~cost:(cost msg) (fun () -> handle ~src msg))
  | Some note ->
    track_provenance t;
    set_handler t node (fun ~src msg ->
        (* Capture the inbound transit here (delivery info is only valid
           inside the net handler), then stamp replies sent by the CPU
           job with transit + measured queueing + service so the client
           can decompose its wait. *)
        let transit_us =
          match t.current with
          | Some d -> d.di_recv_us - d.di_send_us
          | None -> 0
        in
        let cost = cost msg in
        Cpu.submit cpu ~cost
          ~prov:(fun ~queue_us ->
            note msg ~cost_us:cost;
            set_send_path t ~transit_us ~queue_us ~service_us:cost)
          (fun () ->
            handle ~src msg;
            clear_send_path t))

let crash t node = (check t node).crashed <- true
let recover t node = (check t node).crashed <- false
let is_crashed t node = (check t node).crashed

let messages_sent t = t.sent
let messages_delivered t = t.delivered
let messages_dropped t = t.dropped

let cut_link t ~src ~dst = Hashtbl.replace t.cut_links (src, dst) ()

let heal_link t ~src ~dst = Hashtbl.remove t.cut_links (src, dst)

let partition t group_a group_b =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          cut_link t ~src:a ~dst:b;
          cut_link t ~src:b ~dst:a)
        group_b)
    group_a

let heal_all t =
  Hashtbl.reset t.cut_links;
  Hashtbl.reset t.named_cuts

let cut_group t ~name ~group ?(dir = `Both) () =
  if not (Hashtbl.mem t.named_cuts name) then begin
    let in_group = Array.make t.n false in
    List.iter
      (fun g ->
        ignore (check t g);
        in_group.(g) <- true)
      group;
    let cut = ref [] in
    let sever src dst =
      if not (Hashtbl.mem t.cut_links (src, dst)) then begin
        Hashtbl.replace t.cut_links (src, dst) ();
        cut := (src, dst) :: !cut
      end
    in
    for other = 0 to t.n - 1 do
      if not in_group.(other) then
        List.iter
          (fun g ->
            (match dir with `Both | `Out -> sever g other | `In -> ());
            match dir with `Both | `In -> sever other g | `Out -> ())
          group
    done;
    Hashtbl.replace t.named_cuts name !cut
  end

let heal_group t ~name =
  match Hashtbl.find_opt t.named_cuts name with
  | None -> ()
  | Some links ->
    List.iter (fun (src, dst) -> Hashtbl.remove t.cut_links (src, dst)) links;
    Hashtbl.remove t.named_cuts name

let partition_active t ~name = Hashtbl.mem t.named_cuts name

let set_loss_rate t p =
  if p < 0. || p >= 1. then invalid_arg "Net.set_loss_rate: need 0 <= p < 1";
  t.loss_rate <- p

let set_link_loss t ~src ~dst p =
  if p < 0. || p > 1. then invalid_arg "Net.set_link_loss: need 0 <= p <= 1";
  if p = 0. then Hashtbl.remove t.link_loss (src, dst)
  else Hashtbl.replace t.link_loss (src, dst) p

let set_extra_delay t ~max_us =
  if max_us < 0 then invalid_arg "Net.set_extra_delay: negative delay";
  t.extra_delay_us <- max_us

let clear_faults t =
  t.loss_rate <- 0.;
  Hashtbl.reset t.link_loss;
  t.extra_delay_us <- 0;
  Hashtbl.reset t.cut_links;
  Hashtbl.reset t.named_cuts
