(* The original balanced-tree tagset, kept as the executable
   specification for the packed representation in {!Tagset}.  The
   equivalence qcheck suite in test_taintplane.ml drives both through
   the same operation sequences. *)

type tag = int

module S = Set.Make (Int)

type t = S.t

let empty = S.empty
let is_empty = S.is_empty
let singleton = S.singleton
let add = S.add
let union = S.union
let mem = S.mem
let cardinal = S.cardinal
let elements = S.elements
let equal = S.equal
let of_list l = List.fold_left (fun acc x -> S.add x acc) S.empty l
let fold = S.fold

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (elements t)
