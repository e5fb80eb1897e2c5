(* String keys get a specialised table: [String.equal] instead of the
   polymorphic [compare] on every probe.  [hash] is exactly the generic
   table's, so bucket placement, resizing and [iter] order are
   unchanged. *)
module Tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type t = Vrecord.t Tbl.t

(* The initial size is part of the behaviour: the bucket count the table
   grows to decides [iter] order, which reaches catch-up transfer order
   and monitor event order.  Do not pre-size it from the data. *)
let create () = Tbl.create 1024

let find t key =
  match Tbl.find_opt t key with
  | Some v -> v
  | None ->
    let v = Vrecord.create () in
    Tbl.replace t key v;
    v

let find_existing t key = Tbl.find_opt t key

let load t pairs =
  List.iter
    (fun (key, value) ->
      Tbl.replace t key (Vrecord.of_committed ~ver:Cc_types.Version.zero value))
    pairs

let iter t f = Tbl.iter f t

let key_count t = Tbl.length t
