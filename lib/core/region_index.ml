module Region = Standoff_interval.Region
module Area = Standoff_interval.Area
module Metrics = Standoff_obs.Metrics

let m_builds_total =
  Metrics.counter "standoff_index_builds_total"
    ~help:"Region indexes built (full and restricted)"

let m_rows_built_total =
  Metrics.counter "standoff_index_rows_built_total"
    ~help:"Rows written into region indexes"

let m_restricts_total =
  Metrics.counter "standoff_index_restricts_total"
    ~help:"Candidate restrictions applied to a region index"

type t = {
  starts : int array;
  ends : int array;
  ids : int array;
  region_ranks : int array;
}

let empty = { starts = [||]; ends = [||]; ids = [||]; region_ranks = [||] }

(* ------------------------------------------------------------------ *)
(* Run-adaptive sort of a row permutation                             *)

(* Total order: does row [a] precede row [c]?  [(start asc, end desc,
   id asc, rank asc)] — [rank] breaks the last tie, so any permutation
   of the same rows sorts to the same array. *)
let before rows a c =
  let sa = Array.unsafe_get rows.starts a and sc = Array.unsafe_get rows.starts c in
  if sa <> sc then sa < sc
  else
    let ea = Array.unsafe_get rows.ends a and ec = Array.unsafe_get rows.ends c in
    if ea <> ec then ea > ec
    else
      let ia = Array.unsafe_get rows.ids a and ic = Array.unsafe_get rows.ids c in
      if ia <> ic then ia < ic
      else Array.unsafe_get rows.region_ranks a < Array.unsafe_get rows.region_ranks c

(* Runs shorter than this are extended by insertion sort, so random
   input does not degrade into thousands of two-row merges. *)
let min_run = 32

let reverse (perm : int array) lo hi =
  let i = ref lo and j = ref (hi - 1) in
  while !i < !j do
    let x = perm.(!i) in
    perm.(!i) <- perm.(!j);
    perm.(!j) <- x;
    incr i;
    decr j
  done

(* Insert [perm.(k)] into the sorted prefix [perm.(lo) .. perm.(k-1)]. *)
let insert rows perm lo k =
  let x = perm.(k) in
  let j = ref k in
  while !j > lo && before rows x perm.(!j - 1) do
    perm.(!j) <- perm.(!j - 1);
    decr j
  done;
  perm.(!j) <- x

(* Cut [perm] into sorted runs: each maximal ascending stretch, or a
   strictly descending one reversed in place, extended to [min_run].
   Returns the run boundaries [0 = r0 < r1 < ... < rk = n]. *)
let find_runs rows perm n =
  let bounds = ref [ 0 ] in
  let lo = ref 0 in
  while !lo < n do
    let hi = ref (!lo + 1) in
    if !hi < n then
      if before rows perm.(!hi) perm.(!lo) then begin
        while !hi + 1 < n && before rows perm.(!hi + 1) perm.(!hi) do incr hi done;
        incr hi;
        reverse perm !lo !hi
      end
      else begin
        while !hi + 1 < n && not (before rows perm.(!hi + 1) perm.(!hi)) do
          incr hi
        done;
        incr hi
      end;
    let stop = min n (!lo + min_run) in
    while !hi < stop do
      insert rows perm !lo !hi;
      incr hi
    done;
    bounds := !hi :: !bounds;
    lo := !hi
  done;
  Array.of_list (List.rev !bounds)

(* [Array.blit] and [Array.init] store through the write barrier, one
   call per element, into arrays outside the minor heap; int arrays
   need none, so the sort copies with plain typed loops. *)
let copy_ints (src : int array) src_pos (dst : int array) dst_pos len =
  for k = 0 to len - 1 do
    Array.unsafe_set dst (dst_pos + k) (Array.unsafe_get src (src_pos + k))
  done

(* [gallop p lo hi]: [p] holds on a prefix of [lo, hi); the end of
   that prefix, found by doubling steps and then bisecting, in
   O(log (prefix length)) probes. *)
let gallop p lo hi =
  let ok = ref lo and step = ref 1 and probe = ref lo in
  while !probe < hi && p !probe do
    ok := !probe + 1;
    step := 2 * !step;
    probe := !ok + !step - 1
  done;
  let l = ref !ok and r = ref (min !probe hi) in
  while !l < !r do
    let m = (!l + !r) / 2 in
    if p m then l := m + 1 else r := m
  done;
  !l

(* Merge the sorted runs [perm.(lo, mid)] and [perm.(mid, hi)] in
   place, through [tmp].  The left run's prefix that precedes the
   right run's head stays put; after that, stretches that come from
   one side are found by galloping and moved by one copy each, so
   runs that interleave in long blocks cost a few comparisons per
   block rather than one per row. *)
let merge rows perm tmp lo mid hi =
  let head = perm.(mid) in
  if before rows head perm.(mid - 1) then begin
    let lo = gallop (fun i -> not (before rows head perm.(i))) lo mid in
    let nl = mid - lo in
    copy_ints perm lo tmp 0 nl;
    let i = ref 0 and j = ref mid and k = ref lo in
    while !i < nl do
      (* Right rows preceding the next left row. *)
      let x = tmp.(!i) in
      let j' = gallop (fun j -> before rows perm.(j) x) !j hi in
      (* [k <= j]: a forward copy is safe. *)
      copy_ints perm !j perm !k (j' - !j);
      k := !k + (j' - !j);
      j := j';
      (* Left rows not after the next right row (all of them once the
         right run is spent). *)
      let i' =
        if !j >= hi then nl
        else
          let y = perm.(!j) in
          gallop (fun i -> not (before rows y tmp.(i))) !i nl
      in
      copy_ints tmp !i perm !k (i' - !i);
      k := !k + (i' - !i);
      i := i'
    done
  end

let sort_permutation rows =
  let n = Array.length rows.starts in
  let perm = Array.make n 0 in
  for k = 1 to n - 1 do
    Array.unsafe_set perm k k
  done;
  let bounds = ref (find_runs rows perm n) in
  if Array.length !bounds > 2 then begin
    let tmp = Array.make n 0 in
    while Array.length !bounds > 2 do
      let bs = !bounds in
      let runs = Array.length bs - 1 in
      let next = Array.make (((runs + 1) / 2) + 1) n in
      let k = ref 0 in
      while 2 * !k < runs do
        let lo = bs.(2 * !k) in
        if (2 * !k) + 2 <= runs then
          merge rows perm tmp lo bs.((2 * !k) + 1) bs.((2 * !k) + 2);
        next.(!k) <- lo;
        incr k
      done;
      bounds := next
    done
  end;
  perm

let of_rows ~starts ~ends ~ids ~ranks =
  let n = Array.length starts in
  if Array.length ends <> n || Array.length ids <> n || Array.length ranks <> n
  then invalid_arg "Region_index.of_rows: columns differ in length";
  Metrics.incr m_builds_total;
  Metrics.add m_rows_built_total n;
  let rows = { starts; ends; ids; region_ranks = ranks } in
  let perm = sort_permutation rows in
  let idx =
    {
      starts = Array.make n 0;
      ends = Array.make n 0;
      ids = Array.make n 0;
      region_ranks = Array.make n 0;
    }
  in
  for k = 0 to n - 1 do
    let row = Array.unsafe_get perm k in
    Array.unsafe_set idx.starts k (Array.unsafe_get starts row);
    Array.unsafe_set idx.ends k (Array.unsafe_get ends row);
    Array.unsafe_set idx.ids k (Array.unsafe_get ids row);
    Array.unsafe_set idx.region_ranks k (Array.unsafe_get ranks row)
  done;
  idx

let pos_of_int64 p =
  let i = Int64.to_int p in
  if Int64.of_int i <> p then
    invalid_arg
      (Printf.sprintf "Region_index: position %Ld does not fit in 63 bits" p);
  i

let build annots =
  let rows =
    Array.of_list
      (List.concat_map
         (fun (id, area) -> List.mapi (fun rank r -> (id, rank, r)) (Area.regions area))
         annots)
  in
  let col f = Array.map f rows in
  of_rows
    ~starts:(col (fun (_, _, r) -> pos_of_int64 (Region.start_pos r)))
    ~ends:(col (fun (_, _, r) -> pos_of_int64 (Region.end_pos r)))
    ~ids:(col (fun (id, _, _) -> id))
    ~ranks:(col (fun (_, rank, _) -> rank))

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

let row_count idx = Array.length idx.starts

let max_id idx =
  let m = ref (-1) in
  Array.iter (fun id -> if id > !m then m := id) idx.ids;
  !m

let annotation_ids idx =
  let n = Array.length idx.ids in
  if n = 0 then [||]
  else begin
    (* Ids are clustered on start position, not sorted, but they are
       dense small ints: mark presence in a bitmap sized by the max id
       and read the survivors back out in ascending order — no copy,
       no polymorphic sort. *)
    let m = max_id idx in
    let seen = Bytes.make (m + 1) '\000' in
    let distinct = ref 0 in
    Array.iter
      (fun id ->
        if Bytes.unsafe_get seen id = '\000' then begin
          Bytes.unsafe_set seen id '\001';
          incr distinct
        end)
      idx.ids;
    let out = Array.make !distinct 0 in
    let k = ref 0 in
    for id = 0 to m do
      if Bytes.unsafe_get seen id = '\001' then begin
        out.(!k) <- id;
        incr k
      end
    done;
    out
  end

let restrict idx ~ids =
  Metrics.incr m_restricts_total;
  let n_rows = Array.length idx.ids in
  let n_ids = Array.length ids in
  if n_rows = 0 || n_ids = 0 then empty
  else begin
    (* [idx.ids] is clustered on start position, not on id, so a
       two-pointer merge with the sorted [ids] is impossible; instead
       build a bitmap over the candidate ids once and sweep the rows
       with O(1) membership tests. *)
    let max_cand = ids.(n_ids - 1) in
    let member = Bytes.make (max_cand + 1) '\000' in
    Array.iter (fun id -> Bytes.unsafe_set member id '\001') ids;
    let mem id = id <= max_cand && Bytes.unsafe_get member id = '\001' in
    let total = ref 0 in
    Array.iter (fun id -> if mem id then incr total) idx.ids;
    let out =
      {
        starts = Array.make !total 0;
        ends = Array.make !total 0;
        ids = Array.make !total 0;
        region_ranks = Array.make !total 0;
      }
    in
    let k = ref 0 in
    for row = 0 to n_rows - 1 do
      if mem idx.ids.(row) then begin
        out.starts.(!k) <- idx.starts.(row);
        out.ends.(!k) <- idx.ends.(row);
        out.ids.(!k) <- idx.ids.(row);
        out.region_ranks.(!k) <- idx.region_ranks.(row);
        incr k
      end
    done;
    out
  end

let region idx row =
  Region.make (Int64.of_int idx.starts.(row)) (Int64.of_int idx.ends.(row))

let pp fmt idx =
  Format.fprintf fmt "@[<v>start|end|id|rank@,";
  for i = 0 to row_count idx - 1 do
    Format.fprintf fmt "%d|%d|%d|%d@," idx.starts.(i) idx.ends.(i)
      idx.ids.(i) idx.region_ranks.(i)
  done;
  Format.fprintf fmt "@]"
