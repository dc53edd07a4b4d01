(* Prefix doubling over cyclic rotations: after round k every rotation is
   ranked by its first 2^k characters; ranks are refined until all are
   distinct or the window covers the block.  The comparison count is
   returned because it is data-dependent — repetitive input needs more
   refinement rounds — and the fingerprinting attack observes exactly that
   run-time difference.

   [sort_rotations_work] is the original tuple-keyed [Array.sort]
   version (kept in the test suite as the executable specification of
   both the permutation and the work count) with the (rank, rank+k) key
   pair packed into a single int: the comparator runs the exact same
   comparison sequence over immediate ints instead of boxing two tuples
   per call.  [sort_rotations] — which does not need the work count —
   ranks by counting-sort passes and performs no comparisons at all. *)

(* Ranks stay below n and the initial byte ranks below 256, so a
   (rank, rank') pair packs losslessly into [rank lsl 31 lor rank'] as long
   as both fit in 31 bits; the packed ints order and compare equal exactly
   as the tuples do.  [Intsort.sort_by_key] — the stdlib heapsort with the
   comparator expanded inline — then performs the identical comparison
   sequence — the work counter advances by 2 per comparison (the reference
   evaluates [key] twice per comparison) and by 2 per re-rank step.  The
   final tie-break packs [(rank, index)] the same way with 1 work unit per
   comparison, matching the reference's comparator.

   [sort_rotations_work_sub] is the slice-and-arena entry: it sorts
   [Bytes.sub block off len] without materializing the slice, drawing
   every scratch array (and the returned permutation, whose physical
   length may then exceed [len]) from the arena's slots. *)

module Arena = Zipchannel_buf.Arena
module Intsort = Zipchannel_buf.Intsort

(* Arena int-slot assignments for the whole bzip2 block pipeline live in
   the 0..8 range; see the slot table in DESIGN.md §12.  This module owns
   slots 3 (perm, shared with Block_sort's main sort output) and 4..6;
   [sort_rotations_sub] below also borrows slot 0. *)
let slot_perm = 3
let slot_rank = 4
let slot_tmp = 5
let slot_keys = 6
let slot_last = 0 (* bytes slot: transform output *)

let sort_rotations_work_sub ?arena block ~off ~len =
  let n = len in
  if n = 0 then ([||], 0)
  else if n >= 1 lsl 31 then
    invalid_arg "Bwt.sort_rotations_work_sub: block too long to pack ranks"
  else begin
    let ints slot n =
      match arena with
      | Some a -> Arena.ints a ~slot n
      | None -> Array.make n 0
    in
    let work = ref 0 in
    let rank = ints slot_rank n in
    for i = 0 to n - 1 do
      rank.(i) <- Char.code (Bytes.unsafe_get block (off + i))
    done;
    let perm = ints slot_perm n in
    for i = 0 to n - 1 do
      perm.(i) <- i
    done;
    let tmp = ints slot_tmp n in
    let keys = ints slot_keys n in
    let k = ref 1 in
    let distinct = ref false in
    while (not !distinct) && !k < n do
      for i = 0 to n - 1 do
        let j = i + !k in
        let j = if j >= n then j - n else j in
        Array.unsafe_set keys i
          ((Array.unsafe_get rank i lsl 31) lor Array.unsafe_get rank j)
      done;
      Intsort.sort_by_key perm ~len:n ~keys ~work ~per_cmp:2;
      tmp.(perm.(0)) <- 0;
      let all_distinct = ref true in
      for j = 1 to n - 1 do
        let prev = perm.(j - 1) and cur = perm.(j) in
        work := !work + 2;
        if keys.(prev) = keys.(cur) then begin
          tmp.(cur) <- tmp.(prev);
          all_distinct := false
        end
        else tmp.(cur) <- j
      done;
      Array.blit tmp 0 rank 0 n;
      distinct := !all_distinct;
      k := !k * 2
    done;
    if not !distinct then begin
      (* (rank, index) packs like the rank pairs: index < n < 2^31. *)
      for i = 0 to n - 1 do
        Array.unsafe_set keys i ((Array.unsafe_get rank i lsl 31) lor i)
      done;
      Intsort.sort_by_key perm ~len:n ~keys ~work ~per_cmp:1
    end;
    (perm, !work)
  end

let sort_rotations_work block =
  sort_rotations_work_sub block ~off:0 ~len:(Bytes.length block)

(* Comparison-free rotation sort: Manber–Myers prefix doubling, where
   each round orders the rotations by their (rank, rank+k) pairs with one
   stable counting-sort scatter — O(n log n), no comparator, no boxing.
   Produces the same permutation as the reference (ties between identical
   rotations broken by start index).  This is the production block sorter
   of [Bzip2.compress].

   A rotation's rank is the position in the sorted order where its group
   (the rotations that share its first k characters) starts, not a dense
   class number.  Both order the groups alike, and a group start doubles
   as the group's counting-sort head: the next round's bucket for rank
   [r] begins at [r], so no count or prefix-sum pass is needed, only
   [head.(r) <- r] at each group start, set while re-ranking.  The
   scatter walks the current order and stores each rotation [v] with its
   packed (rank, rank+k) pair, so the re-ranking pass is one sequential
   compare of neighbouring keys, and it writes the new ranks in place.
   [perm] and [next_perm] swap roles every round instead of being
   copied.  Every rotation takes part in every round: at 10 kB blocks of
   text nearly all rotations still share a group after 32 characters,
   so skipping settled groups would not pay.

   With [arena] it runs in int slots 3..6 (perm, rank, next perm and the
   keys, as [sort_rotations_work_sub] uses them) plus slot 0 for the
   heads — [Block_sort]'s ftab, idle while this sorter runs. *)
let slot_next_perm = slot_tmp
let slot_head = 0

let sort_rotations_sub ?arena block ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length block then
    invalid_arg "Bwt.sort_rotations_sub";
  let n = len in
  if n >= 1 lsl 31 then
    invalid_arg "Bwt.sort_rotations_sub: block too long to pack ranks";
  if n = 0 then [||]
  else begin
    let ints slot n =
      match arena with
      | Some a -> Arena.ints a ~slot n
      | None -> Array.make n 0
    in
    let perm = ref (ints slot_perm n) in
    let rank = ints slot_rank n in
    let next_perm = ref (ints slot_next_perm n) in
    let keys = ints slot_keys (max 256 n) in
    let head = ints slot_head n in
    let byte i = Char.code (Bytes.unsafe_get block (off + i)) in
    (* Round 0: counting sort by first byte, with [keys] as the table. *)
    Array.fill keys 0 256 0;
    for i = 0 to n - 1 do
      let c = byte i in
      keys.(c) <- keys.(c) + 1
    done;
    let acc = ref 0 in
    for c = 0 to 255 do
      let v = keys.(c) in
      keys.(c) <- !acc;
      acc := !acc + v
    done;
    let p = !perm in
    for i = 0 to n - 1 do
      let c = byte i in
      p.(keys.(c)) <- i;
      keys.(c) <- keys.(c) + 1
    done;
    let groups = ref 1 and start = ref 0 in
    head.(0) <- 0;
    rank.(p.(0)) <- 0;
    for j = 1 to n - 1 do
      if byte p.(j) <> byte p.(j - 1) then begin
        incr groups;
        start := j;
        head.(j) <- j
      end;
      rank.(p.(j)) <- !start
    done;
    let k = ref 1 in
    while !groups < n && !k < n do
      let p = !perm and q = !next_perm and k' = !k in
      (* Shifting the current order left by k lists the rotations sorted
         by characters [k, 2k); a stable scatter by rank into each
         group's bucket then sorts them by the pair. *)
      for i = 0 to n - 1 do
        let s = Array.unsafe_get p i in
        let v = if s < k' then s - k' + n else s - k' in
        let r = Array.unsafe_get rank v in
        let at = Array.unsafe_get head r in
        Array.unsafe_set head r (at + 1);
        Array.unsafe_set q at v;
        Array.unsafe_set keys at ((r lsl 31) lor Array.unsafe_get rank s)
      done;
      (* Re-rank: a new group starts wherever the pair changes. *)
      let prev = ref (Array.unsafe_get keys 0) and start = ref 0 in
      groups := 1;
      head.(0) <- 0;
      rank.(q.(0)) <- 0;
      for j = 1 to n - 1 do
        let key = Array.unsafe_get keys j in
        if key <> !prev then begin
          prev := key;
          incr groups;
          start := j;
          Array.unsafe_set head j j
        end;
        Array.unsafe_set rank (Array.unsafe_get q j) !start
      done;
      next_perm := p;
      perm := q;
      k := 2 * k'
    done;
    let perm = !perm in
    (* Identical rotations (period divides n): a final stable scatter over
       ascending start indices orders each group by index. *)
    if !groups < n then
      for i = 0 to n - 1 do
        let r = rank.(i) in
        perm.(head.(r)) <- i;
        head.(r) <- head.(r) + 1
      done;
    perm
  end

let sort_rotations block =
  sort_rotations_sub block ~off:0 ~len:(Bytes.length block)

let check_perm n perm =
  if Array.length perm <> n then invalid_arg "Bwt: permutation length";
  let seen = Array.make (max 1 n) false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then invalid_arg "Bwt: not a permutation";
      seen.(i) <- true)
    perm

let transform_with ~perm block =
  let n = Bytes.length block in
  check_perm n perm;
  if n = 0 then (Bytes.create 0, 0)
  else begin
    let last = Bytes.create n in
    let primary = ref (-1) in
    for k = 0 to n - 1 do
      let start = perm.(k) in
      if start = 0 then primary := k;
      Bytes.set last k (Bytes.get block ((start + n - 1) mod n))
    done;
    (last, !primary)
  end

let transform block = transform_with ~perm:(sort_rotations block) block

let transform_with_sub ?arena ~perm block ~off ~len =
  (* Pipeline-internal slice variant: [perm] comes straight from the
     block sorts above (physical length possibly > [len]) and is trusted
     rather than re-validated; the returned last column is the arena's
     bytes slot with logical length [len]. *)
  let n = len in
  if n = 0 then (Bytes.create 0, 0)
  else begin
    let last =
      match arena with
      | Some a -> Arena.bytes a ~slot:slot_last n
      | None -> Bytes.create n
    in
    let primary = ref (-1) in
    for k = 0 to n - 1 do
      let start = Array.unsafe_get perm k in
      if start = 0 then primary := k;
      let p = if start = 0 then n - 1 else start - 1 in
      Bytes.unsafe_set last k (Bytes.get block (off + p))
    done;
    (last, !primary)
  end

let inverse last primary =
  let n = Bytes.length last in
  if n = 0 then Bytes.create 0
  else begin
    if primary < 0 || primary >= n then invalid_arg "Bwt.inverse: index";
    (* LF mapping: T.(i) is the row whose rotation is the left-rotation of
       row i; walking T from the primary row spells the input backwards. *)
    let counts = Array.make 256 0 in
    Bytes.iter (fun c -> counts.(Char.code c) <- counts.(Char.code c) + 1) last;
    let base = Array.make 256 0 in
    let acc = ref 0 in
    for c = 0 to 255 do
      base.(c) <- !acc;
      acc := !acc + counts.(c)
    done;
    let t = Array.make n 0 in
    let seen = Array.make 256 0 in
    for i = 0 to n - 1 do
      let c = Char.code (Bytes.get last i) in
      t.(i) <- base.(c) + seen.(c);
      seen.(c) <- seen.(c) + 1
    done;
    let out = Bytes.create n in
    let idx = ref primary in
    for k = n - 1 downto 0 do
      Bytes.set out k (Bytes.get last !idx);
      idx := t.(!idx)
    done;
    out
  end
