type job = {
  cost : int;
  run : unit -> unit;
  enq_us : int;
  prov : (queue_us:int -> unit) option;
}

type t = {
  engine : Sim.Engine.t;
  n_cores : int;
  mutable free : int;
  waiting : job Queue.t;
  mutable busy_us : int;
  mutable completed : int;
  (* Virtual time of the last [reset_stats]: service time of a job in
     flight across the reset is charged only for the portion after it,
     so post-reset utilization can never exceed 1.0. *)
  mutable last_reset_us : int;
}

let create engine ~cores =
  if cores <= 0 then invalid_arg "Cpu.create: cores must be positive";
  { engine; n_cores = cores; free = cores; waiting = Queue.create ();
    busy_us = 0; completed = 0; last_reset_us = 0 }

let cores t = t.n_cores

let rec start t job =
  t.free <- t.free - 1;
  let start_us = Sim.Engine.now t.engine in
  Sim.Engine.post t.engine ~after:job.cost (fun () ->
      let end_us = Sim.Engine.now t.engine in
      t.busy_us <- t.busy_us + min job.cost (end_us - t.last_reset_us);
      t.completed <- t.completed + 1;
      (match job.prov with
      | None -> ()
      | Some f -> f ~queue_us:(start_us - job.enq_us));
      job.run ();
      t.free <- t.free + 1;
      if not (Queue.is_empty t.waiting) then start t (Queue.pop t.waiting))

let submit t ?prov ~cost f =
  let job =
    { cost = max 0 cost; run = f; enq_us = Sim.Engine.now t.engine; prov }
  in
  if t.free > 0 then start t job else Queue.push job t.waiting

let busy_us t = t.busy_us
let completed t = t.completed
let queue_length t = Queue.length t.waiting

let utilization t ~duration =
  if duration <= 0 then 0.
  else float_of_int t.busy_us /. float_of_int (t.n_cores * duration)

let reset_stats t =
  t.busy_us <- 0;
  t.completed <- 0;
  t.last_reset_us <- Sim.Engine.now t.engine
