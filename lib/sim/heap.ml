(* Struct-of-arrays 4-ary min-heap.  Heap position [i]'s children are
   [4i+1 .. 4i+4] and its parent is [(i-1)/4].  Positions hold only
   ints — time, key and the value's slot — so sifting moves ints and
   never hits the write barrier; a value is written once into its slot
   on push and cleared on pop.  Both sifts move a hole rather than
   swapping.  Index arithmetic below stays inside [0, size), which is
   why the unchecked accesses are safe. *)
type 'a t = {
  mutable times : int array;
  mutable keys : int array;
  mutable slots : int array;  (* heap position -> value slot *)
  mutable values : 'a array;  (* value slot -> value *)
  (* Stack of unused value slots: with [cap] the capacity and [n] the
     size, its [cap - n] entries are [free.(0 .. cap - n - 1)]. *)
  mutable free : int array;
  mutable size : int;
  mutable max_size : int;
  dummy : 'a;  (* fills unused value slots so popped values can be freed *)
}

let initial_capacity = 16

let create ~dummy =
  let cap = initial_capacity in
  {
    times = Array.make cap 0;
    keys = Array.make cap 0;
    slots = Array.make cap 0;
    values = Array.make cap dummy;
    free = Array.init cap (fun i -> cap - 1 - i);
    size = 0;
    max_size = 0;
    dummy;
  }

let length t = t.size
let max_size t = t.max_size
let is_empty t = t.size = 0

(* Only called when full, so every old slot is in use and the new
   slots [cap, 2cap) are exactly the free ones. *)
let grow t =
  let cap = Array.length t.times in
  let cap' = 2 * cap in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.times <- extend t.times 0;
  t.keys <- extend t.keys 0;
  t.slots <- extend t.slots 0;
  t.values <- extend t.values t.dummy;
  t.free <- Array.init cap' (fun i -> if i < cap then cap' - 1 - i else 0)

let push t ~time ~key v =
  if t.size = Array.length t.times then grow t;
  let n = t.size in
  let slot = t.free.(Array.length t.times - 1 - n) in
  t.values.(slot) <- v;
  let times = t.times and keys = t.keys and slots = t.slots in
  let i = ref n in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let pt = Array.unsafe_get times p in
    if time < pt || (time = pt && key < Array.unsafe_get keys p) then begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set keys !i (Array.unsafe_get keys p);
      Array.unsafe_set slots !i (Array.unsafe_get slots p);
      i := p
    end
    else continue := false
  done;
  times.(!i) <- time;
  keys.(!i) <- key;
  slots.(!i) <- slot;
  t.size <- n + 1;
  if n + 1 > t.max_size then t.max_size <- n + 1

let empty name = invalid_arg ("Heap." ^ name ^ ": empty heap")

let min_time t = if t.size = 0 then empty "min_time" else t.times.(0)

let min_key t = if t.size = 0 then empty "min_key" else t.keys.(0)

let pop_min t =
  if t.size = 0 then empty "pop_min";
  let times = t.times and keys = t.keys and slots = t.slots in
  let top_slot = slots.(0) in
  let top = t.values.(top_slot) in
  t.values.(top_slot) <- t.dummy;
  let n = t.size - 1 in
  t.size <- n;
  t.free.(Array.length times - 1 - n) <- top_slot;
  if n > 0 then begin
    (* Re-insert the last position's element at the root hole. *)
    let time = times.(n) and key = keys.(n) and slot = slots.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let c = (4 * !i) + 1 in
      if c >= n then continue := false
      else begin
        let m = ref c in
        let mt = ref (Array.unsafe_get times c) in
        let mk = ref (Array.unsafe_get keys c) in
        for j = c + 1 to if c + 3 < n then c + 3 else n - 1 do
          let jt = Array.unsafe_get times j in
          if jt < !mt || (jt = !mt && Array.unsafe_get keys j < !mk) then begin
            m := j;
            mt := jt;
            mk := Array.unsafe_get keys j
          end
        done;
        if !mt < time || (!mt = time && !mk < key) then begin
          Array.unsafe_set times !i !mt;
          Array.unsafe_set keys !i !mk;
          Array.unsafe_set slots !i (Array.unsafe_get slots !m);
          i := !m
        end
        else continue := false
      end
    done;
    times.(!i) <- time;
    keys.(!i) <- key;
    slots.(!i) <- slot
  end;
  top
