(* String keys get a specialised table: [String.equal] instead of the
   polymorphic [compare] on every probe.  [hash] is exactly the generic
   table's. *)
module Tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* Key -> initial value.  Never mutated once built, so one base can sit
   under every replica of a run. *)
type base = string Tbl.t

(* [own] holds every record this store has handed out: keys touched
   since creation, base keys among them.  A base key gets its own
   record on first touch, so the base is only ever read.  [shadowed]
   counts the base keys [own] holds. *)
type t = {
  own : Vrecord.t Tbl.t;
  mutable base : base option;
  mutable shadowed : int;
}

(* Sized from the data, unlike [create]: a base's key order reaches
   only catch-up replies, which the receiver merges key by key. *)
let base_of_list pairs =
  let b = Tbl.create (List.length pairs) in
  List.iter (fun (key, value) -> Tbl.replace b key value) pairs;
  b

(* The initial size is part of the behaviour: the bucket count the table
   grows to decides [iter] order, which reaches catch-up transfer order
   and monitor event order.  Do not pre-size it from the data. *)
let create () = { own = Tbl.create 1024; base = None; shadowed = 0 }

let base t = t.base

let initial t key =
  match t.base with None -> None | Some b -> Tbl.find_opt b key

(* First touch of a key: a base key starts as T_init's committed write
   [init], any other key empty. *)
let install t key init =
  let v =
    match init with
    | Some value ->
      t.shadowed <- t.shadowed + 1;
      Vrecord.of_committed ~ver:Cc_types.Version.zero value
    | None -> Vrecord.create ()
  in
  Tbl.add t.own key v;
  v

let find t key =
  match Tbl.find_opt t.own key with
  | Some v -> v
  | None -> install t key (initial t key)

let find_existing t key =
  match Tbl.find_opt t.own key with
  | Some _ as found -> found
  | None ->
    (match initial t key with
     | None -> None
     | Some _ as init -> Some (install t key init))

let attach t b =
  if Option.is_some t.base then invalid_arg "Vstore.attach: store already has a base";
  (* T_init's writes supersede whatever the store held for their keys. *)
  Tbl.filter_map_inplace
    (fun key vr -> if Tbl.mem b key then None else Some vr)
    t.own;
  t.base <- Some b

let load t pairs = attach t (base_of_list pairs)

let iter t f = Tbl.iter f t.own

let iter_untouched t f =
  match t.base with
  | None -> ()
  | Some b -> Tbl.iter (fun key v -> if not (Tbl.mem t.own key) then f key v) b

let key_count t =
  Tbl.length t.own
  + match t.base with None -> 0 | Some b -> Tbl.length b - t.shadowed
