module Vec = Standoff_util.Vec
module Search = Standoff_util.Search
module Doc = Standoff_store.Doc
module Collection = Standoff_store.Collection
module Item = Standoff_relalg.Item
module Table = Standoff_relalg.Table

exception Not_a_node of Item.t

(* Split the context table into per-document row streams, preserving
   (iter, pre) order within each document.  Attribute items map to
   their owner for the Parent axis and vanish otherwise; the document
   node participates like any other node. *)
let partition_by_doc (context : Table.t) ~keep_attribute_owner =
  let by_doc : (int, (int Vec.t * int Vec.t)) Hashtbl.t = Hashtbl.create 4 in
  let doc_ids = Vec.create () in
  let push doc_id iter pre =
    let iters, pres =
      match Hashtbl.find_opt by_doc doc_id with
      | Some cols -> cols
      | None ->
          let cols = (Vec.create (), Vec.create ()) in
          Hashtbl.add by_doc doc_id cols;
          Vec.push doc_ids doc_id;
          cols
    in
    Vec.push iters iter;
    Vec.push pres pre
  in
  for r = 0 to Table.row_count context - 1 do
    let iter = Table.iter_at context r in
    match Table.item_at context r with
    | Item.Node n -> push n.Collection.doc_id iter n.Collection.pre
    | Item.Attribute (owner, _, _) ->
        if keep_attribute_owner then
          push owner.Collection.doc_id iter owner.Collection.pre
    | (Item.Bool _ | Item.Int _ | Item.Float _ | Item.Str _) as item ->
        raise (Not_a_node item)
  done;
  let ids = Vec.to_array doc_ids in
  Array.sort compare ids;
  Array.to_list ids
  |> List.map (fun doc_id ->
         let iters, pres = Hashtbl.find by_doc doc_id in
         (doc_id, Vec.to_array iters, Vec.to_array pres))

(* A fused positional predicate: keep the [k]-th row of every
   iteration group.  Step results are per-iteration duplicate-free and
   in document order, so row rank within the group {e is} the XPath
   position. *)
let positional (t : Table.t) k =
  if k < 1 then Table.of_rows []
  else begin
    let rows = ref [] in
    let n = Table.row_count t in
    let r = ref 0 in
    while !r < n do
      let iter = Table.iter_at t !r in
      let lo = !r in
      while !r < n && Table.iter_at t !r = iter do
        incr r
      done;
      if lo + k - 1 < !r then
        rows := (iter, Table.item_at t (lo + k - 1)) :: !rows
    done;
    Table.of_rows (List.rev !rows)
  end

(* A child/descendant step restricted to [hits] (sorted pres), answered
   from the hit side: each hit matching [test] is joined to the context
   rows holding its parent (child) or any proper ancestor (descendant),
   found by binary search over the context in pre order (a for-loop
   over a path has it so already; otherwise it is sorted here).  The
   pairs are then put in (iter, pre) order without duplicates — what
   [Axes.eval_lifted] returns. *)
let hits_step doc axis ~test ~hits ~context_iters ~context_pres =
  let n = Array.length context_pres in
  let rec ascending i =
    i >= n || (context_pres.(i - 1) <= context_pres.(i) && ascending (i + 1))
  in
  let row =
    if ascending 1 then Fun.id
    else begin
      let by_pre = Array.init n Fun.id in
      Array.stable_sort
        (fun a b -> Int.compare context_pres.(a) context_pres.(b))
        by_pre;
      fun k -> by_pre.(k)
    end
  in
  let out_iters = Vec.create () and out_pres = Vec.create () in
  let join_to hit anc =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if context_pres.(row mid) < anc then lo := mid + 1 else hi := mid
    done;
    let k = ref !lo in
    while !k < n && context_pres.(row !k) = anc do
      Vec.push out_iters context_iters.(row !k);
      Vec.push out_pres hit;
      incr k
    done
  in
  Array.iter
    (fun hit ->
      if Node_test.matches doc test hit then
        match axis with
        | Axes.Child -> join_to hit doc.Doc.parent.(hit)
        | _ ->
            let anc = ref doc.Doc.parent.(hit) in
            while !anc >= 0 do
              join_to hit !anc;
              anc := doc.Doc.parent.(!anc)
            done)
    hits;
  (* Hits were visited in pre order, so a stable sort on iter leaves
     each iteration's pres ascending. *)
  let iters = Vec.to_array out_iters and pres = Vec.to_array out_pres in
  let order = Array.init (Array.length pres) Fun.id in
  Array.stable_sort (fun a b -> Int.compare iters.(a) iters.(b)) order;
  let keep = Vec.create () in
  Array.iteri
    (fun k r ->
      let prev = if k = 0 then -1 else order.(k - 1) in
      if prev < 0 || iters.(prev) <> iters.(r) || pres.(prev) <> pres.(r) then
        Vec.push keep r)
    order;
  let keep = Vec.to_array keep in
  (Array.map (fun r -> iters.(r)) keep, Array.map (fun r -> pres.(r)) keep)

(* The step's result restricted to [hits]: from the hit side when the
   hits are no more than the context rows (child and descendant axes),
   else by running the step and keeping the rows whose pre is a hit. *)
let restricted_step doc axis ~test ~hits ~context_iters ~context_pres =
  match axis with
  | (Axes.Child | Axes.Descendant)
    when Array.length hits <= Array.length context_pres ->
      hits_step doc axis ~test ~hits ~context_iters ~context_pres
  | _ ->
      let iters, pres =
        Axes.eval_lifted doc axis ~context_iters ~context_pres ~test
      in
      let keep = Vec.create () in
      Array.iteri
        (fun r pre -> if Search.mem_sorted_int hits pre then Vec.push keep r)
        pres;
      let keep = Vec.to_array keep in
      (Array.map (fun r -> iters.(r)) keep, Array.map (fun r -> pres.(r)) keep)

let axis_step coll axis ?position ?within ~test (context : Table.t) =
  let keep_attribute_owner = axis = Axes.Parent in
  let parts = partition_by_doc context ~keep_attribute_owner in
  let tables =
    List.map
      (fun (doc_id, context_iters, context_pres) ->
        let doc = Collection.doc coll doc_id in
        let out_iters, out_pres =
          match within with
          | None -> Axes.eval_lifted doc axis ~context_iters ~context_pres ~test
          | Some hits_of ->
              restricted_step doc axis ~test ~hits:(hits_of doc)
                ~context_iters ~context_pres
        in
        let items =
          Array.map (fun pre -> Item.Node { Collection.doc_id; pre }) out_pres
        in
        Table.make out_iters items)
      parts
  in
  (* Folding in ascending doc id keeps each iteration's sequence in
     global document order; per-document results are already sorted and
     duplicate-free. *)
  let out = Table.concat tables in
  match position with None -> out | Some k -> positional out k

let attribute_step coll ~test (context : Table.t) =
  let rows = ref [] in
  for r = Table.row_count context - 1 downto 0 do
    let iter = Table.iter_at context r in
    match Table.item_at context r with
    | Item.Node n ->
        let doc = Collection.doc coll n.Collection.doc_id in
        if Doc.kind_of doc n.Collection.pre = Doc.Element then
          List.iter
            (fun (name, value) ->
              if Node_test.matches_attribute test name then
                rows := (iter, Item.Attribute (n, name, value)) :: !rows)
            (Doc.attributes doc n.Collection.pre)
    | Item.Attribute _ | Item.Bool _ | Item.Int _ | Item.Float _ | Item.Str _
      ->
        ()
  done;
  Table.distinct_doc_order (Table.of_rows !rows)
