type t = (string, Vrecord.t) Hashtbl.t

(* The initial size is part of the behaviour: the bucket count the table
   grows to decides [iter] order, which reaches catch-up transfer order
   and monitor event order.  Do not pre-size it from the data. *)
let create () = Hashtbl.create 1024

let find t key =
  match Hashtbl.find_opt t key with
  | Some v -> v
  | None ->
    let v = Vrecord.create () in
    Hashtbl.replace t key v;
    v

let find_existing t key = Hashtbl.find_opt t key

let load t pairs =
  List.iter
    (fun (key, value) ->
      Hashtbl.replace t key (Vrecord.of_committed ~ver:Cc_types.Version.zero value))
    pairs

let iter t f = Hashtbl.iter f t

let key_count t = Hashtbl.length t
