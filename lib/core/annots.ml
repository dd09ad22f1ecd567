module Vec = Standoff_util.Vec
module Search = Standoff_util.Search
module Doc = Standoff_store.Doc
module Name_pool = Standoff_store.Name_pool
module Region = Standoff_interval.Region
module Area = Standoff_interval.Area
module Trace = Standoff_obs.Trace

exception Invalid_region of { pre : int; msg : string }

module Lru = Standoff_cache.Lru

(* Restricted-index cache: keyed structurally on the candidate array,
   so structurally equal candidate sets from separate [prepare] calls
   hit, and bounded so it cannot grow without limit.  [Lru] holds its
   mutex under [Fun.protect], so sharing one [Annots.t] across pool
   domains is safe even on exception paths — the hand-rolled
   predecessor could leak its lock and deadlock every later lookup.
   Hits and misses surface as [standoff_cache_*{cache="restricted"}]. *)
type restricted_cache = (int array, Region_index.t) Lru.t

let restricted_cache_capacity = 8

let cache_create () =
  Lru.create ~name:"restricted" ~max_entries:restricted_cache_capacity
    ~weight:(fun idx -> (Region_index.row_count idx * 24) + 64)
    ()

type t = {
  doc : Doc.t;
  ids : int array;
  first_row : int array;
  starts : int array;
  ends : int array;
  index : Region_index.t;
  max_regions_per_area : int;
  restricted_cache : restricted_cache;
}

let fail pre fmt = Printf.ksprintf (fun msg -> raise (Invalid_region { pre; msg })) fmt

(* The value of the decimal digit string [s], or [-1] as soon as a
   character is not a digit. *)
let rec decimal s i v =
  if i = String.length s then v
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c -> decimal s (i + 1) ((v * 10) + Char.code c - 48)
    | _ -> -1

(* Plain decimal positions of up to 18 digits (< 10^18 < 2^62) parse
   here without allocating; everything else — whitespace, signs,
   [0x]/[0o]/[0b]/[0u] prefixes, [_] separators, longer numbers — takes
   the [Int64.of_string_opt (String.trim s)] path, so the accepted
   inputs and the error messages are exactly that function's. *)
let position_of_string ~pre ~what s =
  let n = String.length s in
  let v = if n = 0 || n > 18 then -1 else decimal s 0 0 in
  if v >= 0 then v
  else
    match Int64.of_string_opt (String.trim s) with
    | None -> fail pre "%s position %S is not an integer" what s
    | Some p ->
        let v = Int64.to_int p in
        if Int64.of_int v = p then v
        else fail pre "%s position %S does not fit in 63 bits" what s

let checked_order pre s e =
  if s > e then fail pre "start %d exceeds end %d" s e

(* A growable int column; presized right, it is handed over without a
   copy. *)
type column = { mutable col : int array; mutable len : int }

let column capacity = { col = Array.make (max 1 capacity) 0; len = 0 }

let push c v =
  if c.len = Array.length c.col then begin
    let col = Array.make (2 * c.len) 0 in
    Array.blit c.col 0 col 0 c.len;
    c.col <- col
  end;
  Array.unsafe_set c.col c.len v;
  c.len <- c.len + 1

let contents c = if c.len = Array.length c.col then c.col else Array.sub c.col 0 c.len

(* The annotation table under construction: one row per region, in
   (pre, rank) order, and per annotation its pre and first row. *)
type table = {
  tb_ids : column;
  tb_first : column;
  tb_starts : column;
  tb_ends : column;
}

let table capacity =
  let tb =
    {
      tb_ids = column capacity;
      tb_first = column (capacity + 1);
      tb_starts = column capacity;
      tb_ends = column capacity;
    }
  in
  push tb.tb_first 0;
  tb

let add_region tb ~start ~end_ =
  push tb.tb_starts start;
  push tb.tb_ends end_

(* Seals the annotation [pre] whose regions were just added. *)
let add_annotation tb pre =
  push tb.tb_ids pre;
  push tb.tb_first tb.tb_starts.len

let resolve_name doc name =
  Option.value ~default:(-1) (Name_pool.find doc.Doc.names name)

(* Attribute representation: an element is an area-annotation iff it
   carries both attributes; one without the other is malformed.  The
   two names are resolved to interned ids once, and each element's
   attribute rows are compared on ids. *)
let scan_attributes config doc tb =
  let start_id = resolve_name doc config.Config.start_name
  and end_id = resolve_name doc config.Config.end_name in
  let attr_first = doc.Doc.attr_first
  and attr_name = doc.Doc.attr_name
  and attr_value = doc.Doc.attr_value in
  if start_id >= 0 || end_id >= 0 then
    for pre = 0 to Doc.node_count doc - 1 do
      let lo = attr_first.(pre) and hi = attr_first.(pre + 1) in
      if lo < hi then begin
        let s = ref (-1) and e = ref (-1) in
        for row = lo to hi - 1 do
          let name = attr_name.(row) in
          if name = start_id && !s < 0 then s := row;
          if name = end_id && !e < 0 then e := row
        done;
        match (!s >= 0, !e >= 0) with
        | false, false -> ()
        | true, true ->
            let start = position_of_string ~pre ~what:"start" attr_value.(!s) in
            let end_ = position_of_string ~pre ~what:"end" attr_value.(!e) in
            checked_order pre start end_;
            add_region tb ~start ~end_;
            add_annotation tb pre
        | true, false ->
            fail pre "attribute %S without %S" config.Config.start_name
              config.Config.end_name
        | false, true ->
            fail pre "attribute %S without %S" config.Config.end_name
              config.Config.start_name
      end
    done

(* Element representation: region children carry start/end child
   elements whose text content is the position.  An element's regions
   are normalised into canonical area form ({!Area.make}) before they
   enter the table. *)
let scan_region_elements config doc region_name tb =
  let child_named el_pre name =
    let found = ref None in
    Doc.iter_children doc el_pre (fun c ->
        if
          Doc.kind_of doc c = Doc.Element
          && Option.fold ~none:false ~some:(String.equal name) (Doc.name_of doc c)
        then found := Some c);
    !found
  in
  let region_of pre start_s end_s =
    let s = position_of_string ~pre ~what:"start" start_s
    and e = position_of_string ~pre ~what:"end" end_s in
    checked_order pre s e;
    Region.make (Int64.of_int s) (Int64.of_int e)
  in
  for pre = 0 to Doc.node_count doc - 1 do
    if Doc.kind_of doc pre = Doc.Element then begin
      let regions = ref [] in
      Doc.iter_children doc pre (fun c ->
          if
            Doc.kind_of doc c = Doc.Element
            && Option.fold ~none:false ~some:(String.equal region_name)
                 (Doc.name_of doc c)
          then begin
            let start_el = child_named c config.Config.start_name in
            let end_el = child_named c config.Config.end_name in
            match (start_el, end_el) with
            | Some s, Some e ->
                regions :=
                  region_of pre (Doc.string_value doc s) (Doc.string_value doc e)
                  :: !regions
            | None, _ -> fail pre "region element without <%s>" config.Config.start_name
            | _, None -> fail pre "region element without <%s>" config.Config.end_name
          end);
      match !regions with
      | [] -> ()
      | rs ->
          List.iter
            (fun r ->
              add_region tb
                ~start:(Int64.to_int (Region.start_pos r))
                ~end_:(Int64.to_int (Region.end_pos r)))
            (Area.regions (Area.make (List.rev rs)));
          add_annotation tb pre
    end
  done

(* The table's columns, and the region index over them: rows
   [first_row.(i) .. first_row.(i+1) - 1] belong to annotation
   [ids.(i)], which gives each row its id and rank. *)
let seal tb =
  let ids = contents tb.tb_ids and first_row = contents tb.tb_first in
  let starts = contents tb.tb_starts and ends = contents tb.tb_ends in
  let n_rows = Array.length starts in
  let ranks = Array.make n_rows 0 in
  let row_ids =
    if n_rows = Array.length ids then ids (* one region each: row = slot *)
    else begin
      let row_ids = Array.make n_rows 0 in
      for slot = 0 to Array.length ids - 1 do
        for row = first_row.(slot) to first_row.(slot + 1) - 1 do
          row_ids.(row) <- ids.(slot);
          ranks.(row) <- row - first_row.(slot)
        done
      done;
      row_ids
    end
  in
  (ids, first_row, starts, ends, Region_index.of_rows ~starts ~ends ~ids:row_ids ~ranks)

let extract config doc =
  (* In the attribute representation every start attribute belongs to
     one annotation of one row, so one pass over the attribute names
     sizes every column exactly. *)
  let capacity =
    match config.Config.region_name with
    | Some _ -> 1024
    | None ->
        let start_id = resolve_name doc config.Config.start_name in
        let n = ref 0 in
        Array.iter (fun (name : int) -> if name = start_id then incr n) doc.Doc.attr_name;
        !n
  in
  let tb = table capacity in
  (match config.Config.region_name with
  | None -> scan_attributes config doc tb
  | Some region_name -> scan_region_elements config doc region_name tb);
  let ids, first_row, starts, ends, index = seal tb in
  let max_regions = ref 1 in
  for slot = 0 to Array.length ids - 1 do
    max_regions := max !max_regions (first_row.(slot + 1) - first_row.(slot))
  done;
  {
    doc;
    ids;
    first_row;
    starts;
    ends;
    index;
    max_regions_per_area = !max_regions;
    restricted_cache = cache_create ();
  }

let annotation_count t = Array.length t.ids

let find_slot t pre =
  let i = Search.lower_bound_int t.ids pre in
  if i < Array.length t.ids && t.ids.(i) = pre then Some i else None

let area_at t slot =
  let region row =
    Region.make (Int64.of_int t.starts.(row)) (Int64.of_int t.ends.(row))
  in
  let lo = t.first_row.(slot) and hi = t.first_row.(slot + 1) in
  if hi - lo = 1 then Area.of_region (region lo)
  else Area.make (List.init (hi - lo) (fun k -> region (lo + k)))

let area_of t pre = Option.map (area_at t) (find_slot t pre)
let is_annotation t pre = find_slot t pre <> None

let region_count t pre =
  match find_slot t pre with
  | Some slot -> t.first_row.(slot + 1) - t.first_row.(slot)
  | None -> 0

let iter_regions t pre f =
  match find_slot t pre with
  | Some slot ->
      for row = t.first_row.(slot) to t.first_row.(slot + 1) - 1 do
        f ~start:t.starts.(row) ~end_:t.ends.(row)
      done
  | None -> ()

let restrict_ids t ~candidates =
  let out = Vec.create () in
  Array.iter
    (fun pre -> if is_annotation t pre then Vec.push out pre)
    candidates;
  Vec.to_array out

let candidate_index_scan t ~candidates =
  match candidates with
  | None -> t.index
  | Some ids -> Region_index.restrict t.index ~ids

let candidate_index ?trace ?(cache = true) t ~candidates =
  match candidates with
  | None -> t.index
  | Some ids -> (
      match if cache then Lru.find t.restricted_cache ids else None with
      | Some idx -> idx
      | None ->
          (* §4.3 index intersection on node-id, done from the
             candidate side: the candidates' rows are gathered from the
             annotation table into a table of their own and indexed
             like the full one.  Candidates come in document order, so
             the rows arrive as ordered as the full table's. *)
          let idx =
            Trace.index_build trace ~index:"restricted" ~mode:"warm"
              ~rows:Region_index.row_count (fun () ->
                let sub = table (Array.length ids) in
                Array.iter
                  (fun pre ->
                    match find_slot t pre with
                    | Some slot ->
                        for row = t.first_row.(slot) to t.first_row.(slot + 1) - 1 do
                          add_region sub ~start:t.starts.(row) ~end_:t.ends.(row)
                        done;
                        add_annotation sub pre
                    | None -> ())
                  ids;
                let _, _, _, _, idx = seal sub in
                idx)
          in
          if cache then Lru.add t.restricted_cache ids idx;
          idx)
