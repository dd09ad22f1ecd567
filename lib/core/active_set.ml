module Vec = Standoff_util.Vec

type kind =
  | Sorted_list
  | Lazy_heap

let kind_of_string = function
  | "list" -> Sorted_list
  | "heap" -> Lazy_heap
  | s -> invalid_arg (Printf.sprintf "Active_set.kind_of_string: %S" s)

let kind_to_string = function Sorted_list -> "list" | Lazy_heap -> "heap"

type callbacks = {
  on_add : iter:int -> ctx:int -> unit;
  on_skip : iter:int -> ctx:int -> unit;
  on_replace : iter:int -> removed:int -> by:int -> unit;
  on_trim : iter:int -> ctx:int -> unit;
}

let no_callbacks =
  {
    on_add = (fun ~iter:_ ~ctx:_ -> ());
    on_skip = (fun ~iter:_ ~ctx:_ -> ());
    on_replace = (fun ~iter:_ ~removed:_ ~by:_ -> ());
    on_trim = (fun ~iter:_ ~ctx:_ -> ());
  }

(* ------------------------------------------------------------------ *)
(* Shared: the per-iteration table backing the single-region
   skip/replace refinements.                                          *)

type per_iter = (int, int * int) Hashtbl.t

(* ------------------------------------------------------------------ *)
(* Sorted list (the paper's structure)                                *)

type list_impl = {
  l_ends : int Vec.t;  (* descending *)
  l_iters : int Vec.t;
  l_ctxs : int Vec.t;
}

(* First position whose end is strictly below [e]. *)
let list_position_below li e =
  let lo = ref 0 and hi = ref (Vec.length li.l_ends) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Vec.get li.l_ends mid >= e then lo := mid + 1
    else hi := mid
  done;
  !lo

let list_remove_slot li pos =
  Vec.remove li.l_ends pos;
  Vec.remove li.l_iters pos;
  Vec.remove li.l_ctxs pos

(* Locate the slot holding exactly (iter, end_). *)
let list_find_slot li ~iter ~end_ =
  let lo = ref 0 and hi = ref (Vec.length li.l_ends) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Vec.get li.l_ends mid > end_ then lo := mid + 1
    else hi := mid
  done;
  let pos = ref !lo in
  while
    !pos < Vec.length li.l_ends
    && Vec.get li.l_ends !pos = end_
    && Vec.get li.l_iters !pos <> iter
  do
    incr pos
  done;
  if
    !pos < Vec.length li.l_ends
    && Vec.get li.l_ends !pos = end_
    && Vec.get li.l_iters !pos = iter
  then Some !pos
  else None

let list_insert li ~iter ~ctx ~end_ =
  let pos = list_position_below li end_ in
  Vec.insert li.l_ends pos end_;
  Vec.insert li.l_iters pos iter;
  Vec.insert li.l_ctxs pos ctx

(* ------------------------------------------------------------------ *)
(* Lazy two-heap implementation                                       *)

(* Entries are pushed on both a max-heap (for the emit scan) and a
   min-heap (for trimming); [by_iter] is the source of truth and an
   entry is live iff it matches its iteration's table row.  Stale
   entries are skipped on contact and both heaps are rebuilt when they
   outnumber the live ones. *)
type heap_impl = {
  mutable max_ends : int array;
  mutable max_iters : int array;
  mutable max_ctxs : int array;
  mutable max_len : int;
  mutable min_ends : int array;
  mutable min_iters : int array;
  mutable min_ctxs : int array;
  mutable min_len : int;
}

let heap_make () =
  {
    max_ends = Array.make 16 0;
    max_iters = Array.make 16 0;
    max_ctxs = Array.make 16 0;
    max_len = 0;
    min_ends = Array.make 16 0;
    min_iters = Array.make 16 0;
    min_ctxs = Array.make 16 0;
    min_len = 0;
  }

(* [dir] is 1 for a max-heap, -1 for a min-heap. *)
let heap_push ends iters ctxs len ~dir e it cx =
  let n = !len in
  let cap = Array.length !ends in
  if n >= cap then begin
    let grow a fill =
      let b = Array.make (2 * cap) fill in
      Array.blit !a 0 b 0 n;
      a := b
    in
    grow ends 0;
    grow iters 0;
    grow ctxs 0
  end;
  let ea = !ends and ia = !iters and ca = !ctxs in
  ea.(n) <- e;
  ia.(n) <- it;
  ca.(n) <- cx;
  len := n + 1;
  let i = ref n in
  let better (a : int) b = if dir > 0 then a > b else a < b in
  while !i > 0 && better ea.(!i) ea.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    let swap (a : int array) = let t = a.(!i) in a.(!i) <- a.(p); a.(p) <- t in
    swap ea;
    swap ia;
    swap ca;
    i := p
  done

(* Remove the root; [len] is the length before removal and the caller
   records the new length [len - 1]. *)
let heap_pop_root ends iters ctxs ~len ~dir =
  let n = len - 1 in
  ends.(0) <- ends.(n);
  iters.(0) <- iters.(n);
  ctxs.(0) <- ctxs.(n);
  let better (a : int) b = if dir > 0 then a > b else a < b in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let best = ref !i in
    if l < n && better ends.(l) ends.(!best) then best := l;
    if r < n && better ends.(r) ends.(!best) then best := r;
    if !best = !i then continue := false
    else begin
      let b = !best in
      let swap (a : int array) = let t = a.(!i) in a.(!i) <- a.(b); a.(b) <- t in
      swap ends;
      swap iters;
      swap ctxs;
      i := b
    end
  done

(* ------------------------------------------------------------------ *)
(* The public type                                                    *)

type impl =
  | List of list_impl
  | Heap of heap_impl

type t = {
  impl : impl;
  by_iter : per_iter;
  single_region : bool;
  cb : callbacks;
}

let create kind ~single_region ~callbacks =
  let impl =
    match kind with
    | Sorted_list ->
        List { l_ends = Vec.create (); l_iters = Vec.create (); l_ctxs = Vec.create () }
    | Lazy_heap ->
        if not single_region then
          invalid_arg
            "Active_set.create: Lazy_heap requires single-region mode";
        Heap (heap_make ())
  in
  { impl; by_iter = Hashtbl.create 16; single_region; cb = callbacks }

let size t =
  match t.impl with
  | List li -> Vec.length li.l_ends
  | Heap _ -> Hashtbl.length t.by_iter

let heap_entry_live t e it cx =
  match Hashtbl.find_opt t.by_iter it with
  | Some (live_end, live_ctx) -> live_end = e && live_ctx = cx
  | None -> false

let heap_compact t h =
  h.max_len <- 0;
  h.min_len <- 0;
  let max_ends = ref h.max_ends and max_iters = ref h.max_iters and max_ctxs = ref h.max_ctxs in
  let min_ends = ref h.min_ends and min_iters = ref h.min_iters and min_ctxs = ref h.min_ctxs in
  let max_len = ref 0 and min_len = ref 0 in
  Hashtbl.iter
    (fun it (e, cx) ->
      heap_push max_ends max_iters max_ctxs max_len ~dir:1 e it cx;
      heap_push min_ends min_iters min_ctxs min_len ~dir:(-1) e it cx)
    t.by_iter;
  h.max_ends <- !max_ends;
  h.max_iters <- !max_iters;
  h.max_ctxs <- !max_ctxs;
  h.max_len <- !max_len;
  h.min_ends <- !min_ends;
  h.min_iters <- !min_iters;
  h.min_ctxs <- !min_ctxs;
  h.min_len <- !min_len

let heap_insert t h e it cx =
  let live = Hashtbl.length t.by_iter in
  if h.max_len > (2 * live) + 8 then heap_compact t h;
  let max_ends = ref h.max_ends and max_iters = ref h.max_iters and max_ctxs = ref h.max_ctxs in
  let min_ends = ref h.min_ends and min_iters = ref h.min_iters and min_ctxs = ref h.min_ctxs in
  let max_len = ref h.max_len and min_len = ref h.min_len in
  heap_push max_ends max_iters max_ctxs max_len ~dir:1 e it cx;
  heap_push min_ends min_iters min_ctxs min_len ~dir:(-1) e it cx;
  h.max_ends <- !max_ends;
  h.max_iters <- !max_iters;
  h.max_ctxs <- !max_ctxs;
  h.max_len <- !max_len;
  h.min_ends <- !min_ends;
  h.min_iters <- !min_iters;
  h.min_ctxs <- !min_ctxs;
  h.min_len <- !min_len

let add t ~iter ~ctx ~end_ =
  let insert () =
    (match t.impl with
    | List li -> list_insert li ~iter ~ctx ~end_
    | Heap h -> heap_insert t h end_ iter ctx);
    t.cb.on_add ~iter ~ctx
  in
  if not t.single_region then insert ()
  else
    match Hashtbl.find_opt t.by_iter iter with
    | Some (old_end, _) when old_end >= end_ ->
        t.cb.on_skip ~iter ~ctx
    | Some (old_end, old_ctx) ->
        (match t.impl with
        | List li -> (
            match list_find_slot li ~iter ~end_:old_end with
            | Some pos -> list_remove_slot li pos
            | None -> assert false)
        | Heap _ -> () (* the old entry goes stale *));
        Hashtbl.replace t.by_iter iter (end_, ctx);
        t.cb.on_replace ~iter ~removed:old_ctx ~by:ctx;
        insert ()
    | None ->
        Hashtbl.replace t.by_iter iter (end_, ctx);
        insert ()

let trim t ~start =
  match t.impl with
  | List li ->
      while
        Vec.length li.l_ends > 0
        && Vec.last li.l_ends < start
      do
        let pos = Vec.length li.l_ends - 1 in
        let iter = Vec.get li.l_iters pos and ctx = Vec.get li.l_ctxs pos in
        list_remove_slot li pos;
        if t.single_region then Hashtbl.remove t.by_iter iter;
        t.cb.on_trim ~iter ~ctx
      done
  | Heap h ->
      let continue = ref true in
      while !continue && h.min_len > 0 do
        let e = h.min_ends.(0) and it = h.min_iters.(0) and cx = h.min_ctxs.(0) in
        if e >= start then continue := false
        else begin
          if heap_entry_live t e it cx then begin
            Hashtbl.remove t.by_iter it;
            t.cb.on_trim ~iter:it ~ctx:cx
          end;
          heap_pop_root h.min_ends h.min_iters h.min_ctxs ~len:h.min_len
            ~dir:(-1);
          h.min_len <- h.min_len - 1
        end
      done

let iter_end_ge t threshold f =
  match t.impl with
  | List li ->
      let k = ref 0 in
      while
        !k < Vec.length li.l_ends
        && Vec.get li.l_ends !k >= threshold
      do
        f ~iter:(Vec.get li.l_iters !k) ~ctx:(Vec.get li.l_ctxs !k);
        incr k
      done
  | Heap h ->
      (* Pruned DFS over the max-heap: a node's end bounds its whole
         subtree, stale or not. *)
      let rec visit i =
        if i < h.max_len && h.max_ends.(i) >= threshold then begin
          if heap_entry_live t h.max_ends.(i) h.max_iters.(i) h.max_ctxs.(i)
          then f ~iter:h.max_iters.(i) ~ctx:h.max_ctxs.(i);
          visit ((2 * i) + 1);
          visit ((2 * i) + 2)
        end
      in
      visit 0

let iter_all t f =
  match t.impl with
  | List li ->
      for k = 0 to Vec.length li.l_ends - 1 do
        f ~iter:(Vec.get li.l_iters k) ~ctx:(Vec.get li.l_ctxs k)
      done
  | Heap _ -> Hashtbl.iter (fun iter (_, ctx) -> f ~iter ~ctx) t.by_iter

let covered t ~iter ~end_ =
  t.single_region
  &&
  match Hashtbl.find_opt t.by_iter iter with
  | Some (old_end, _) -> old_end >= end_
  | None -> false
