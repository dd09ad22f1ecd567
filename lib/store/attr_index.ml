(* Attribute-value index: for one interned attribute name, a permutation
   of that name's attribute rows sorted by (value hash, owner pre), with
   the hashes alongside.  Only equality is ever asked of it, so the
   order need not be lexicographic: an int key sorts by radix and keeps
   the build off the string bodies, which lie scattered over the heap.
   A probe binary-searches the hash column for the value's run and
   keeps the rows whose value really is equal; the run is in owner
   order, so the owners come out ascending.

   Indexes build lazily, one attribute name at a time: a document may
   hold hundreds of thousands of region attributes (start/end) that no
   query looks up by value, and an index over them would cost memory
   and build time for nothing. *)

module Vec = Standoff_util.Vec
module Metrics = Standoff_obs.Metrics
module Trace = Standoff_obs.Trace

let m_builds =
  Metrics.counter "standoff_attr_index_builds_total"
    ~help:"Attribute-value index constructions (first probe of a name, or \
           post-update rebuild)"

let m_probes =
  Metrics.counter "standoff_attr_index_probes_total"
    ~help:"Attribute-value lookups answered from an attribute-value index"

let hash (s : string) = Hashtbl.hash s

(* Positions [0, n) stably sorted on [keys] (non-negative, below
   2^33): three counting-sort passes of 11 bits, least significant
   first. *)
let radix_order keys =
  let n = Array.length keys in
  let src = ref (Array.init n Fun.id) and dst = ref (Array.make n 0) in
  let count = Array.make 2049 0 in
  List.iter
    (fun shift ->
      Array.fill count 0 2049 0;
      let digit i = (keys.(i) lsr shift) land 2047 in
      Array.iter (fun i -> count.(digit i + 1) <- count.(digit i + 1) + 1) !src;
      for b = 1 to 2048 do
        count.(b) <- count.(b) + count.(b - 1)
      done;
      Array.iter
        (fun i ->
          let b = digit i in
          !dst.(count.(b)) <- i;
          count.(b) <- count.(b) + 1)
        !src;
      let t = !src in
      src := !dst;
      dst := t)
    [ 0; 11; 22 ];
  !src

let build ~generation (d : Doc.t) nid =
  let names = d.Doc.attr_name in
  let count = ref 0 in
  for row = 0 to Array.length names - 1 do
    if names.(row) = nid then incr count
  done;
  let rows = Array.make !count 0 in
  let k = ref 0 in
  for row = 0 to Array.length names - 1 do
    if names.(row) = nid then begin
      rows.(!k) <- row;
      incr k
    end
  done;
  let values = d.Doc.attr_value in
  let keys = Array.map (fun row -> hash values.(row)) rows in
  (* Stable on rows, which ascend in owner order. *)
  let order = radix_order keys in
  Metrics.incr m_builds;
  {
    Doc.vi_name = nid;
    vi_rows = Array.map (fun i -> rows.(i)) order;
    vi_hashes = Array.map (fun i -> keys.(i)) order;
    vi_generation = generation;
  }

let empty =
  { Doc.vi_name = -1; vi_rows = [||]; vi_hashes = [||]; vi_generation = -1 }

let get ?trace ~generation (d : Doc.t) name =
  match Name_pool.find d.Doc.names name with
  | None -> empty
  | Some nid -> (
      match Doc.value_index_cache d nid with
      | Some vi when vi.Doc.vi_generation = generation -> vi
      | _ ->
          Doc.with_index_lock d (fun () ->
              match Doc.value_index_cache d nid with
              | Some vi when vi.Doc.vi_generation = generation -> vi
              | _ ->
                  let vi =
                    Trace.index_build trace ~index:"attr-value" ~mode:"cold"
                      ~rows:(fun vi -> Array.length vi.Doc.vi_rows)
                      (fun () -> build ~generation d nid)
                  in
                  Doc.publish_value_index d vi;
                  vi))

let probe (d : Doc.t) (vi : Doc.value_index) value =
  Metrics.incr m_probes;
  let h = hash value in
  let hashes = vi.Doc.vi_hashes in
  let lo = ref 0 and hi = ref (Array.length hashes) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if hashes.(mid) < h then lo := mid + 1 else hi := mid
  done;
  (* The hash run is in owner order; an owner repeats only if it
     carries the attribute twice, which the shredder never produces,
     but the result is duplicate-free either way. *)
  let out = Vec.create () in
  let i = ref !lo in
  while !i < Array.length hashes && hashes.(!i) = h do
    let row = vi.Doc.vi_rows.(!i) in
    if String.equal d.Doc.attr_value.(row) value then begin
      let owner = d.Doc.attr_owner.(row) in
      if Vec.length out = 0 || Vec.get out (Vec.length out - 1) <> owner then
        Vec.push out owner
    end;
    incr i
  done;
  Vec.to_array out
