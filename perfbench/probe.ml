(* The serving benchmark's in-process half; run.py drives it.

   - [xmark]: generate the seeded XMark collection, save it as a .sodb,
     and compute the reference reply of every point/scan request before
     any server starts.
   - [tei]: generate the seeded TEI-style corpus and the per-connection
     op sequences of the annotate workload, and replay each connection
     in-process to get the reference reply of every op.
   - [trace-xmark] / [trace-tei]: the traced ledger.  Calls into each
     library's public functions are timed from here; the eval /
     serialize / operator split comes from the span tree that
     [Engine.run_prepared ~trace] returns.

   Every command writes one JSON document (to --out or stdout). *)

module Engine = Standoff_xquery.Engine
module Parse = Standoff_xquery.Parse
module Collection = Standoff_store.Collection
module Doc = Standoff_store.Doc
module Blob = Standoff_store.Blob
module Persist = Standoff_store.Persist
module Dataguide = Standoff_store.Dataguide
module Wal = Standoff_store.Wal
module Catalog = Standoff.Catalog
module Config = Standoff.Config
module Annots = Standoff.Annots
module Durable = Standoff.Durable
module Region = Standoff_interval.Region
module Prng = Standoff_util.Prng
module Trace = Standoff_obs.Trace
module Queries = Standoff_xmark.Queries
module Gen = Standoff_xmark.Gen
module Convert = Standoff_convert.Convert
module Parser = Standoff_xml.Parser

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let md5 s = Digest.to_hex (Digest.string s)

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)

type json =
  | S of string
  | I of int
  | F of float
  | L of json list
  | O of (string * json) list

let rec write_json buf = function
  | S s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (Standoff_obs.Metrics.json_escape s);
      Buffer.add_char buf '"'
  | I i -> Buffer.add_string buf (string_of_int i)
  | F f ->
      Buffer.add_string buf
        (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | L xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write_json buf x)
        xs;
      Buffer.add_char buf ']'
  | O kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write_json buf (S k);
          Buffer.add_char buf ':';
          write_json buf v)
        kvs;
      Buffer.add_char buf '}'

let emit_json out j =
  let buf = Buffer.create 65536 in
  write_json buf j;
  Buffer.add_char buf '\n';
  match out with
  | None -> print_string (Buffer.contents buf)
  | Some path ->
      let oc = open_out_bin path in
      Buffer.output_buffer oc buf;
      close_out oc

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum = List.fold_left ( +. ) 0.0
let ms s = s *. 1e3
let mb bytes = float_of_int bytes /. 1048576.0

(* ------------------------------------------------------------------ *)
(* XMark requests                                                      *)

let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then invalid_arg ("replace_first: " ^ sub)
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let standoff_name scale = Printf.sprintf "xmark-standoff-%g.xml" scale
let standard_name scale = Printf.sprintf "xmark-%g.xml" scale

(* Point pool: Q1 in both forms for seed-drawn persons, and a
   single-auction lookup (open_auction[@id] -> bidder[1] -> increase)
   in both forms for seed-drawn open auctions.  The ids depend only on
   the seed and the entity counts of the scale, so the traced run
   rebuilds the same pool without the data. *)
let point_pool ~seed ~scale ~pool =
  let rng = Prng.create (Int64.of_int (seed * 7919 + 17)) in
  let counts = Gen.counts_for scale in
  let so = standoff_name scale and st = standard_name scale in
  let persons = List.init pool (fun _ -> Prng.int rng (max 1 counts.Gen.persons)) in
  let auctions =
    List.init pool (fun _ -> Prng.int rng (max 1 counts.Gen.open_auctions))
  in
  let q1 n form text =
    ( Printf.sprintf "Q1-%s-person%d" form n,
      replace_first ~sub:"\"person0\"" ~by:(Printf.sprintf "\"person%d\"" n) text )
  in
  let auction n =
    [
      ( Printf.sprintf "A1-standoff-open_auction%d" n,
        Printf.sprintf
          "for $a in doc(\"%s\")//site/select-narrow::open_auctions\n\
          \    /select-narrow::open_auction[@id = \"open_auction%d\"]\n\
           return $a/select-narrow::bidder[1]/select-narrow::increase"
          so n );
      ( Printf.sprintf "A1-standard-open_auction%d" n,
        Printf.sprintf
          "for $a in doc(\"%s\")/site/open_auctions/open_auction[@id = \
           \"open_auction%d\"]\n\
           return $a/bidder[1]/increase/text()"
          st n );
    ]
  in
  List.concat_map
    (fun n ->
      [ q1 n "standoff" (Queries.q1.standoff so); q1 n "standard" (Queries.q1.standard st) ])
    persons
  @ List.concat_map auction auctions

let scan_pool ~scale =
  let so = standoff_name scale and st = standard_name scale in
  List.concat_map
    (fun (q : Queries.query) ->
      [ (q.id ^ "-standoff", q.standoff so); (q.id ^ "-standard", q.standard st) ])
    [ Queries.q2; Queries.q6; Queries.q7 ]

let run_text eng ?(optimize = true) ?deadline text =
  let p = Engine.prepare eng ~optimize text in
  (Engine.run_prepared eng ?deadline ~rollback_constructed:true p).Engine.serialized

(* ------------------------------------------------------------------ *)
(* TEI-style corpus                                                    *)

let words =
  [| "lorem"; "ipsum"; "dolor"; "sit"; "amet"; "consetetur"; "sadipscing";
     "elitr"; "sed"; "diam"; "nonumy"; "eirmod"; "tempor"; "invidunt"; "ut";
     "labore"; "et"; "dolore"; "magna"; "aliquyam"; "erat"; "voluptua" |]

let resps = [| "R0"; "R1"; "R2"; "R3" |]

(* An inline document of about [bytes] bytes shaped like a transcribed
   TEI text: paragraphs of numbered sentences of words, some words
   wrapped in editorial <add>, <del> and <note resp=…> markup. *)
let tei_doc rng ~title ~bytes =
  let b = Buffer.create (bytes + 2048) in
  let add fmt = Printf.bprintf b fmt in
  add "<TEI><teiHeader><title>%s</title></teiHeader><text><body>" title;
  let p = ref 0 and s = ref 0 in
  while Buffer.length b < bytes do
    incr p;
    add "<p n=\"%d\">" !p;
    for _ = 1 to 2 + Prng.int rng 4 do
      incr s;
      add "<s n=\"%d\">" !s;
      for i = 1 to 6 + Prng.int rng 12 do
        if i > 1 then Buffer.add_char b ' ';
        let w = Prng.choice rng words in
        match Prng.int rng 20 with
        | 0 -> add "<add><w>%s</w></add>" w
        | 1 -> add "<del><w>%s</w></del>" w
        | 2 -> add "<note resp=\"%s\"><w>%s</w></note>" (Prng.choice rng resps) w
        | _ -> add "<w>%s</w>" w
      done;
      add ".</s>"
    done;
    add "</p>"
  done;
  add "</body></text></TEI>";
  Buffer.contents b

(* What the server does with one ingest part (convert=standoff). *)
let convert_part ~name xml =
  let conv = Convert.to_standoff (Parser.parse_string xml) in
  (Doc.of_dom ~name conv.Convert.doc, (name ^ ".blob", conv.Convert.blob))

(* Facts the op generator needs about one converted document. *)
type doc_facts = {
  f_name : string;
  f_words : int array;  (** pres of the <w> annotations *)
  f_sentences : int;
  f_paragraphs : int;
  f_blob_len : int;
}

let facts_of (d, (_, blob)) =
  {
    f_name = d.Doc.doc_name;
    f_words = Doc.elements_named d "w";
    f_sentences = Array.length (Doc.elements_named d "s");
    f_paragraphs = Array.length (Doc.elements_named d "p");
    f_blob_len = String.length blob;
  }

type op =
  | Query of string
  | Set_region of { doc : string; pre : int; start : int; end_ : int }
  | Shift of { doc : string; from : int; by : int }
  | Ingest of (string * string) list  (** (name, inline xml) *)

(* All four StandOff axes, each from a small seed-drawn context. *)
let draw_query rng f =
  let d = f.f_name in
  match Prng.int rng 4 with
  | 0 ->
      Printf.sprintf
        "count(doc(\"%s\")//s[@n = \"%d\"]/select-narrow::w)" d
        (1 + Prng.int rng f.f_sentences)
  | 1 ->
      Printf.sprintf
        "for $s in doc(\"%s\")//note[@resp = \"%s\"]/select-wide::s\n\
         return string($s/@n)"
        d (Prng.choice rng resps)
  | 2 ->
      Printf.sprintf
        "count(doc(\"%s\")//p[@n = \"%d\"]/reject-narrow::w)" d
        (1 + Prng.int rng f.f_paragraphs)
  | _ ->
      Printf.sprintf
        "count(doc(\"%s\")//s[@n = \"%d\"]/reject-wide::w)" d
        (1 + Prng.int rng f.f_sentences)

let draw_update rng f =
  if Prng.bool rng then
    let start = Prng.int rng (max 1 f.f_blob_len) in
    Set_region
      {
        doc = f.f_name;
        pre = Prng.choice rng f.f_words;
        start;
        end_ = start + Prng.int rng 12;
      }
  else
    (* Every moved annotation starts at or after [from], so a negative
       [by] no larger than [from] can never make a region negative. *)
    let from = Prng.int rng (max 1 f.f_blob_len) in
    let mag = 1 + Prng.int rng 40 in
    let by = if Prng.bool rng && from >= mag then -mag else mag in
    Shift { doc = f.f_name; from; by }

type corpus = {
  bulk : (string * string) list;  (** the initial corpus, in ingest order *)
  owner : (string * int) list;  (** document -> owning connection *)
  ops : op array array;  (** per connection, in sending order *)
}

(* The op mix, exact in every block of [mix_block] consecutive ops of a
   connection (shuffled within the block): 70% queries, 25% updates, 5%
   ingests.  Exact counts keep every seed's work the same size, so a
   per-op figure over a fixed prefix does not follow the draw. *)
let mix_block = 20
let block_kinds = Array.concat [ Array.make 14 `Q; Array.make 5 `U; [| `I |] ]

(* Documents are dealt to connections round-robin; a connection only
   ever queries, updates or ingests documents it owns, so each
   connection's replies depend on its own op sequence alone. *)
let make_corpus ~seed ~docs ~doc_bytes ~conns ~ops_per_conn =
  let rng = Prng.create (Int64.of_int (seed * 104729 + 3)) in
  let bulk =
    List.init docs (fun i ->
        let name = Printf.sprintf "tei-%03d.xml" i in
        (name, tei_doc rng ~title:name ~bytes:doc_bytes))
  in
  let pools = Array.make conns [] in
  List.iteri
    (fun i (name, xml) ->
      let c = i mod conns in
      pools.(c) <- facts_of (convert_part ~name xml) :: pools.(c))
    bulk;
  let owner = List.mapi (fun i (name, _) -> (name, i mod conns)) bulk in
  let owner = ref owner in
  let ops =
    Array.init conns (fun c ->
        let rng = Prng.split rng in
        let pool = ref (Array.of_list (List.rev pools.(c))) in
        let fresh = ref 0 and ingests = ref 0 in
        let block = Array.copy block_kinds in
        Array.init ops_per_conn (fun i ->
            if i mod mix_block = 0 then Prng.shuffle rng block;
            match block.(i mod mix_block) with
            | `Q -> Query (draw_query rng (Prng.choice rng !pool))
            | `U -> draw_update rng (Prng.choice rng !pool)
            | `I ->
              (* Batches of one and two new documents, alternately. *)
              incr ingests;
              let parts =
                List.init (1 + (!ingests land 1)) (fun _ ->
                    incr fresh;
                    let name = Printf.sprintf "c%d-new-%04d.xml" c !fresh in
                    (name, tei_doc rng ~title:name ~bytes:(doc_bytes / 4)))
              in
              List.iter
                (fun (name, xml) ->
                  pool := Array.append !pool [| facts_of (convert_part ~name xml) |];
                  owner := (name, c) :: !owner)
                parts;
              Ingest parts))
  in
  { bulk; owner = List.rev !owner; ops }

(* The first queries to reach each document after the bulk ingest, one
   per StandOff axis: the first builds the document's indexes, each
   optimizes a plan no query has needed before. *)
let first_queries c =
  c.bulk
  |> List.concat_map (fun (name, _) ->
         [
           Printf.sprintf "count(doc(\"%s\")//s/select-narrow::w)" name;
           Printf.sprintf
             "for $s in doc(\"%s\")//note[@resp = \"R0\"]/select-wide::s\n\
              return string($s/@n)"
             name;
           Printf.sprintf "count(doc(\"%s\")//p[@n = \"1\"]/reject-narrow::w)" name;
           Printf.sprintf "count(doc(\"%s\")//s[@n = \"1\"]/reject-wide::w)" name;
         ])

let ingest_batches ~batch parts =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | p :: rest ->
        if n = batch then go (List.rev cur :: acc) [ p ] 1 rest
        else go acc (p :: cur) (n + 1) rest
  in
  go [] [] 0 parts

(* One op applied in-process exactly as the server applies it; the
   result is the reply fields run.py checks. *)
let apply_op eng op =
  let coll = Engine.collection eng and cat = Engine.catalog eng in
  let doc_of name =
    match Collection.doc_id_of_name coll name with
    | Some id -> Collection.doc coll id
    | None -> invalid_arg ("unknown document " ^ name)
  in
  match op with
  | Query text ->
      let out = run_text eng text in
      [ ("k", S "q"); ("q", S text); ("md5", S (md5 (out ^ "\n"))) ]
  | Set_region { doc; pre; start; end_ } ->
      Engine.set_region eng Config.default (doc_of doc) ~pre
        (Region.make (Int64.of_int start) (Int64.of_int end_));
      [
        ("k", S "u"); ("doc", S doc); ("pre", I pre); ("start", I start);
        ("end", I end_); ("generation", I (Catalog.generation cat doc));
      ]
  | Shift { doc; from; by } ->
      let moved =
        Engine.shift_annotations eng Config.default (doc_of doc)
          ~from:(Int64.of_int from) ~by:(Int64.of_int by)
      in
      [
        ("k", S "s"); ("doc", S doc); ("from", I from); ("by", I by);
        ("moved", I moved); ("generation", I (Catalog.generation cat doc));
      ]
  | Ingest parts ->
      let docs, blobs = List.split (List.map (fun (n, x) -> convert_part ~name:n x) parts) in
      let n = Engine.ingest eng docs blobs in
      [
        ("k", S "i"); ("ingested", I n);
        ("docs", L (List.map (fun (name, xml) -> O [ ("name", S name); ("xml", S xml) ]) parts));
      ]

(* ------------------------------------------------------------------ *)
(* Command: xmark                                                      *)

let cmd_xmark ~seed ~scale ~pool ~ref_budget ~out_dir =
  let setup, gen_s =
    timed (fun () ->
        Standoff_xmark.Setup.build ~seed:(Int64.of_int seed) ~jobs:1 ~scale ())
  in
  let coll = setup.Standoff_xmark.Setup.coll in
  let sodb = Filename.concat out_dir "xmark.sodb" in
  let (), save_s = timed (fun () -> Persist.save_collection coll sodb) in
  let eng = Engine.create ~jobs:1 ~cache:Engine.Cache_off coll in
  let so_id = Option.get (Collection.doc_id_of_name coll setup.standoff_doc) in
  let so_doc = Collection.doc coll so_id in
  (* Area annotations: the stand-off elements carrying an extent. *)
  let n_annots =
    Array.fold_left
      (fun n pre -> if Doc.attribute so_doc pre "start" <> None then n + 1 else n)
      0 (Doc.all_elements so_doc)
  in
  let blob_len =
    match Collection.blob coll setup.blob_name with
    | Some b -> Int64.to_int (Blob.length b)
    | None -> 0
  in
  (* References.  The unoptimized plan is the oracle: each request is
     run through it while the budget lasts (capped per request), one
     request of every kind (Q1-standoff, A1-standard, Q7-standoff, ...)
     before a second of any; the rest fall back to the optimized plan. *)
  let point = point_pool ~seed ~scale ~pool and scan = scan_pool ~scale in
  let kind id =
    match String.index_opt id '-' with
    | Some i -> (
        match String.index_from_opt id (i + 1) '-' with
        | Some j -> String.sub id 0 j
        | None -> id)
    | None -> id
  in
  let is_standoff id = String.length id >= 11 && String.sub id 3 8 = "standoff" in
  let seen = Hashtbl.create 16 in
  let order =
    List.map
      (fun ((id, _) as r) ->
        let k = kind id in
        let rank = Option.value ~default:0 (Hashtbl.find_opt seen k) in
        Hashtbl.replace seen k (rank + 1);
        (rank, r))
      (point @ scan)
    (* Within a rank, standard forms first: their unoptimized plans are
       cheap, the stand-off ones sweep every annotation. *)
    |> List.stable_sort (fun (a, (ida, _)) (b, (idb, _)) ->
           compare (a, is_standoff ida) (b, is_standoff idb))
    |> List.map snd
  in
  let refs = Hashtbl.create 64 in
  let t_end = now () +. ref_budget in
  List.iter
    (fun (id, text) ->
      let remaining = Float.min (t_end -. now ()) 2.0 in
      let unoptimized =
        if remaining <= 0.0 then None
        else
          match
            run_text eng ~optimize:false
              ~deadline:(Standoff_util.Timing.deadline_after remaining) text
          with
          | out -> Some out
          | exception Standoff_util.Timing.Deadline_exceeded -> None
      in
      Hashtbl.replace refs id
        (match unoptimized with
        | Some out -> (out, "unoptimized")
        | None -> (run_text eng text, "optimized")))
    order;
  let requests ids =
    L
      (List.map
         (fun (id, text) ->
           let out, kind = Hashtbl.find refs id in
           O
             [
               ("id", S id); ("text", S text); ("md5", S (md5 (out ^ "\n")));
               ("bytes", I (String.length out + 1)); ("ref", S kind);
             ])
         ids)
  in
  let count_unopt ids =
    List.length (List.filter (fun (id, _) -> snd (Hashtbl.find refs id) = "unoptimized") ids)
  in
  emit_json
    (Some (Filename.concat out_dir "plan.json"))
    (O
       [
         ( "sizes",
           O
             [
               ("xml_bytes", I setup.serialized_size); ("blob_bytes", I blob_len);
               ("sodb_bytes", I (Unix.stat sodb).Unix.st_size);
               ("annotations", I n_annots); ("documents", I (Collection.doc_count coll));
             ] );
         ("gen_s", F gen_s); ("save_s", F save_s);
         ("point_unoptimized_refs", I (count_unopt point));
         ("scan_unoptimized_refs", I (count_unopt scan));
         ("point", requests point); ("scan", requests scan);
       ])

(* ------------------------------------------------------------------ *)
(* Command: tei                                                        *)

let corpus_params = (64, 30_000)

let cmd_tei ~seed ~conns ~ops_per_conn ~conn ~out =
  let docs, doc_bytes = corpus_params in
  let c = make_corpus ~seed ~docs ~doc_bytes ~conns ~ops_per_conn in
  let coll = Collection.create () in
  let eng = Engine.create ~jobs:1 ~cache:Engine.Cache_off coll in
  let bulk = ingest_batches ~batch:8 c.bulk in
  let bulk_json =
    List.map (fun parts -> O (apply_op eng (Ingest parts))) bulk
  in
  let first_queries =
    L (List.map (fun q -> O (apply_op eng (Query q))) (first_queries c))
  in
  let xml_bytes = List.fold_left (fun acc (_, x) -> acc + String.length x) 0 c.bulk in
  let annotations =
    Collection.fold_docs
      (fun acc _ d -> acc + Annots.annotation_count (Annots.extract Config.default d))
      0 coll
  in
  let blob_bytes =
    Collection.fold_blobs (fun acc b -> acc + Int64.to_int (Blob.length b)) 0 coll
  in
  (* The reference replay of one connection.  A connection owns its
     documents, so its replies depend on its own ops alone and the
     connections replay in separate processes. *)
  let ops_json =
    L (Array.to_list (Array.map (fun op -> O (apply_op eng op)) c.ops.(conn)))
  in
  emit_json (Some out)
    (O
       [
         ("conn", I conn); ("ops", ops_json);
         ( "sizes",
           O
             [
               ("xml_bytes", I xml_bytes); ("blob_bytes", I blob_bytes);
               ("annotations", I annotations); ("documents", I docs);
             ] );
         ("owner", O (List.map (fun (n, c) -> (n, I c)) c.owner));
         ("bulk", L bulk_json); ("first_queries", first_queries);
       ])

(* ------------------------------------------------------------------ *)
(* The traced ledger                                                   *)

(* Per-query layer numbers of one traced run, read from the span tree
   that [Engine.run_prepared ~trace] returns (prepare's parse/optimize
   spans share the collector). *)
type sample = {
  wall : float;  (** prepare + run_prepared, timed from here *)
  parse : float;
  optimize : float;
  eval : float;
  serialize : float;
  join : float;
  index_rows : int;
  items : int;
}

let span_sum root name =
  sum (List.map Trace.duration (Trace.find_all (fun sp -> Trace.name sp = name) root))

let traced_run eng text =
  let tr = Trace.create () in
  let res, wall =
    timed (fun () ->
        let p = Engine.prepare eng ~trace:tr text in
        Engine.run_prepared eng ~rollback_constructed:true ~trace:tr p)
  in
  let root = Trace.finish tr in
  let joins =
    Trace.find_all
      (fun sp ->
        let n = Trace.name sp in
        String.length n >= 13 && String.sub n 0 13 = "standoff-join")
      root
  in
  {
    wall;
    parse = span_sum root "parse";
    optimize = span_sum root "optimize";
    eval = span_sum root "eval";
    serialize = span_sum root "serialize";
    join = sum (List.map Trace.duration joins);
    index_rows =
      List.fold_left
        (fun acc sp -> acc + Option.value ~default:0 (Trace.int_attr sp "index_rows"))
        0 joins;
    items = List.length res.Engine.items;
  }

(* One untraced run, with the words it allocated. *)
let plain_run eng text =
  let a0 = Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words in
  let (), wall = timed (fun () -> ignore (run_text eng text)) in
  let st = Gc.quick_stat () in
  let a1 = Gc.minor_words () +. st.Gc.major_words in
  (wall, a1 -. a0)

type ledger = {
  mutable samples : sample list;
  mutable plain : float list;  (** untraced walls *)
  mutable alloc : float list;
  mutable parse_direct : float list;
}

let new_ledger () = { samples = []; plain = []; alloc = []; parse_direct = [] }

(* Measure one request: Parse.parse_query alone, an untraced run and a
   traced run, in alternating order so drift hits both sides. *)
let measure lg eng ~flip text =
  let (), p = timed (fun () -> ignore (Parse.parse_query text)) in
  lg.parse_direct <- p :: lg.parse_direct;
  let plain () =
    let wall, words = plain_run eng text in
    lg.plain <- wall :: lg.plain;
    lg.alloc <- words :: lg.alloc
  in
  let traced () = lg.samples <- traced_run eng text :: lg.samples in
  if flip then (traced (); plain ()) else (plain (); traced ())

(* Layer times are means per query, so that they add up to the mean
   wall time; the remainder is what no phase span covers. *)
let ledger_metrics lg =
  let ss = lg.samples in
  let mean xs = sum xs /. float_of_int (max 1 (List.length xs)) in
  let per_query f = ms (mean (List.map f ss)) in
  let wall = sum (List.map (fun s -> s.wall) ss) in
  let layers =
    sum (List.map (fun s -> s.parse +. s.optimize +. s.eval +. s.serialize) ss)
  in
  let traced_total = wall and plain_total = sum lg.plain in
  let rows = List.fold_left (fun a s -> a + s.index_rows) 0 ss in
  let items = List.fold_left (fun a s -> a + s.items) 0 ss in
  [
    ("xquery.parse_ms", F (ms (mean lg.parse_direct)));
    ("xquery.optimize_ms", F (per_query (fun s -> s.optimize)));
    ("xquery.eval_ms", F (per_query (fun s -> s.eval)));
    ("xquery.serialize_ms", F (per_query (fun s -> s.serialize)));
    ("core.join_ms", F (per_query (fun s -> s.join)));
    ("core.index_rows_per_result", F (float_of_int rows /. float_of_int (max 1 items)));
    ("index_rows", I rows); ("result_items", I items);
    ("gc.alloc_mw_per_query", F (mean lg.alloc /. 1e6));
    ("xquery.remainder_frac", F ((wall -. layers) /. wall));
    ("ledger_wall_s", F wall);
    ("obs.trace_overhead_frac", F ((traced_total -. plain_total) /. plain_total));
    ("traced_queries", I (List.length ss));
  ]

(* In-process cost of the query [1]: the server's per-request fixed
   cost is its HTTP round trip minus this. *)
let trivial_ms eng =
  ignore (run_text eng "1");
  ms (median (List.init 200 (fun _ -> snd (timed (fun () -> ignore (run_text eng "1"))))))

let top_heap_mb () = mb ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))

(* ------------------------------------------------------------------ *)
(* Command: trace-xmark                                                *)

let cmd_trace_xmark ~seed ~scale ~pool ~workload ~dir ~seconds =
  let sodb = Filename.concat dir "xmark.sodb" in
  let sodb_bytes = (Unix.stat sodb).Unix.st_size in
  let loads = ref [] in
  (* Three loads, one at a time: cold index builds on the first, the
     cold first query on the second, the warm ledger on the third. *)
  let load () =
    Gc.compact ();
    let c, dt = timed (fun () -> Persist.load_collection sodb) in
    loads := dt :: !loads;
    c
  in
  let requests =
    match workload with
    | "point" -> point_pool ~seed ~scale ~pool
    | _ -> scan_pool ~scale
  in
  let annots_s, guide_s =
    let c = load () in
    let so_doc =
      Collection.doc c (Option.get (Collection.doc_id_of_name c (standoff_name scale)))
    in
    let _, annots_s =
      timed (fun () -> Catalog.annots (Catalog.create ()) Config.default so_doc)
    in
    let (), guide_s =
      timed (fun () ->
          Collection.fold_docs (fun () _ d -> ignore (Dataguide.get ~generation:0 d)) () c)
    in
    (annots_s, guide_s)
  in
  (* The heap high-water mark of one load plus its index builds. *)
  let top_heap = top_heap_mb () in
  let cold =
    traced_run (Engine.create ~jobs:1 ~cache:Engine.Cache_off (load ()))
      (snd (List.hd requests))
  in
  let coll = load () in
  let eng = Engine.create ~jobs:1 ~cache:Engine.Cache_off coll in
  (* Warm every plan once, then measure the mix until time is up. *)
  List.iter (fun (_, text) -> ignore (run_text eng text)) requests;
  let lg = new_ledger () in
  let rng = Prng.create (Int64.of_int (seed * 13 + 1)) in
  let reqs = Array.of_list requests in
  let t_end = now () +. seconds in
  let i = ref 0 in
  while now () < t_end || !i < Array.length reqs do
    let r =
      if workload = "point" then Prng.choice rng reqs else reqs.(!i mod Array.length reqs)
    in
    measure lg eng ~flip:(!i mod 2 = 1) (snd r);
    incr i
  done;
  let blob_bytes =
    Collection.fold_blobs (fun acc b -> acc + Int64.to_int (Blob.length b)) 0 coll
  in
  emit_json None
    (O
       ([
          ("store.load_s", F (median !loads));
          ("store.sodb_bytes", I sodb_bytes);
          ("store.blob_bytes", I blob_bytes);
          ("gc.top_heap_mb", F top_heap);
          ("core.annots_build_ms", F (ms annots_s));
          ("store.dataguide_build_ms", F (ms guide_s));
          ("xquery.optimize_cold_ms", F (ms cold.optimize));
          ("trivial_ms", F (trivial_ms eng));
        ]
       @ ledger_metrics lg))

(* ------------------------------------------------------------------ *)
(* Command: trace-tei                                                  *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Replays exactly the ops the HTTP phase completed ([done_]) on a
   durable in-process store, timing each layer from here: XML parse,
   conversion and shredding of every ingested part, [Engine.ingest],
   the WAL append (through the update hook), the update itself, the
   index rebuild the next query would pay, and every query's ledger. *)
let max_ledger_queries = 1500

let cmd_trace_tei ~seed ~conns ~ops_per_conn ~done_ ~dir =
  let docs, doc_bytes = corpus_params in
  let c = make_corpus ~seed ~docs ~doc_bytes ~conns ~ops_per_conn in
  let wal_dir = Filename.concat dir "trace-wal" in
  rm_rf wal_dir;
  let d, _ =
    Durable.open_dir ~policy:Wal.Always ~snapshot_every:1000
      ~seed:Collection.create wal_dir
  in
  let coll = Durable.collection d in
  let eng = Engine.create ~jobs:1 ~cache:Engine.Cache_off coll in
  let cat = Engine.catalog eng in
  let log_times = ref [] in
  Engine.set_on_update eng
    (Some
       (fun op ->
         let (), dt = timed (fun () -> ignore (Durable.log d op)) in
         log_times := dt :: !log_times));
  let parse_s = ref 0.0 and convert_s = ref 0.0 and shred_s = ref 0.0 in
  let in_bytes = ref 0 and ingest_s = ref [] in
  let ingest parts =
    let converted =
      List.map
        (fun (name, xml) ->
          in_bytes := !in_bytes + String.length xml;
          let dom, a = timed (fun () -> Parser.parse_string xml) in
          let conv, b = timed (fun () -> Convert.to_standoff dom) in
          let doc, s = timed (fun () -> Doc.of_dom ~name conv.Convert.doc) in
          parse_s := !parse_s +. a;
          convert_s := !convert_s +. b;
          shred_s := !shred_s +. s;
          (doc, (name ^ ".blob", conv.Convert.blob)))
        parts
    in
    let docs, blobs = List.split converted in
    let _, dt = timed (fun () -> Engine.ingest eng docs blobs) in
    ingest_s := dt :: !ingest_s;
    ignore (Durable.maybe_snapshot d ~generation:(Catalog.version cat))
  in
  List.iter ingest (ingest_batches ~batch:8 c.bulk);
  let bulk_log = List.length !log_times in
  (* Cold builds per document on a catalogue and guides no query has
     touched (the ingest path built its own), and the first optimize. *)
  let bulk_docs = List.map (fun (n, x) -> fst (convert_part ~name:n x)) c.bulk in
  let annots_s =
    List.map
      (fun d -> snd (timed (fun () -> Catalog.annots (Catalog.create ()) Config.default d)))
      bulk_docs
  in
  let guide_s =
    List.map (fun d -> snd (timed (fun () -> Dataguide.build ~generation:0 d))) bulk_docs
  in
  let cold = traced_run eng (List.hd (first_queries c)) in
  let update_s = ref [] and rebuild_s = ref [] in
  let lg = new_ledger () in
  let doc_of name =
    Collection.doc coll (Option.get (Collection.doc_id_of_name coll name))
  in
  let rebuild name =
    let doc = doc_of name in
    let (), dt =
      timed (fun () ->
          ignore (Catalog.annots cat Config.default doc);
          ignore (Dataguide.get ~generation:(Catalog.generation cat name) doc))
    in
    rebuild_s := dt :: !rebuild_s
  in
  let update name f =
    let before = List.length !log_times in
    let (), dt = timed f in
    let logged =
      if List.length !log_times > before then List.hd !log_times else 0.0
    in
    update_s := (dt -. logged) :: !update_s;
    ignore (Durable.maybe_snapshot d ~generation:(Catalog.version cat));
    rebuild name
  in
  (* Queries change nothing, so only every [stride]-th is run (and
     measured): the ledger then costs about the same at any op count. *)
  let total_queries =
    Array.fold_left ( + ) 0
      (Array.mapi
         (fun i ops ->
           let n = min (List.nth done_ i) (Array.length ops) in
           Array.fold_left
             (fun a op -> match op with Query _ -> a + 1 | _ -> a)
             0 (Array.sub ops 0 n))
         c.ops)
  in
  let stride = max 1 (total_queries / max_ledger_queries) in
  let nq = ref 0 in
  let replay ops n =
    for k = 0 to min n (Array.length ops) - 1 do
      match ops.(k) with
      | Query text ->
          if !nq mod stride = 0 then
            measure lg eng ~flip:(!nq / stride mod 2 = 1) text;
          incr nq
      | Set_region { doc; pre; start; end_ } ->
          update doc (fun () ->
              Engine.set_region eng Config.default (doc_of doc) ~pre
                (Region.make (Int64.of_int start) (Int64.of_int end_)))
      | Shift { doc; from; by } ->
          update doc (fun () ->
              ignore
                (Engine.shift_annotations eng Config.default (doc_of doc)
                   ~from:(Int64.of_int from) ~by:(Int64.of_int by)))
      | Ingest parts -> ingest parts
    done
  in
  Array.iteri (fun i ops -> replay ops (List.nth done_ i)) c.ops;
  let trivial = trivial_ms eng in
  Durable.close ~generation:(Catalog.version cat) d;
  (* Boot-time recovery of what was written: the annotate analogue of
     loading a .sodb. *)
  let loads =
    List.init 3 (fun _ ->
        let d, dt = timed (fun () -> Durable.open_dir ~policy:Wal.Always wal_dir) in
        Durable.close (fst d);
        dt)
  in
  rm_rf wal_dir;
  let per_mb s = ms s /. mb !in_bytes in
  emit_json None
    (O
       ([
          ("gc.top_heap_mb", F (top_heap_mb ()));
          ("store.load_s", F (median loads));
          ("core.annots_build_ms", F (ms (median annots_s)));
          ("store.dataguide_build_ms", F (ms (median guide_s)));
          ("xquery.optimize_cold_ms", F (ms cold.optimize));
          ("trivial_ms", F trivial);
          ("xml.parse_ms_per_mb", F (per_mb !parse_s));
          ("convert.to_standoff_ms_per_mb", F (per_mb !convert_s));
          ("store.shred_ms_per_mb", F (per_mb !shred_s));
          ("xquery.ingest_ms", F (ms (median !ingest_s)));
          ("ingest_batches", I (List.length !ingest_s));
          ("core.durable_log_ms", F (ms (median !log_times)));
          ("wal_records", I (List.length !log_times));
          ("bulk_wal_records", I bulk_log);
          ("core.update_ms", F (ms (median !update_s)));
          ("updates", I (List.length !update_s));
          ("core.rebuild_after_update_ms", F (ms (median !rebuild_s)));
        ]
       @ ledger_metrics lg))

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let cmd, rest = match args with c :: r -> (c, r) | [] -> ("", []) in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | x :: _ -> failwith ("unexpected argument " ^ x)
  in
  let o = opts [] rest in
  let get k =
    match List.assoc_opt k o with
    | Some v -> v
    | None -> failwith ("missing --" ^ k)
  in
  let int k = int_of_string (get k) and float k = float_of_string (get k) in
  match cmd with
  | "xmark" ->
      cmd_xmark ~seed:(int "seed") ~scale:(float "scale") ~pool:(int "pool")
        ~ref_budget:(float "ref-budget") ~out_dir:(get "dir")
  | "tei" ->
      cmd_tei ~seed:(int "seed") ~conns:(int "conns")
        ~ops_per_conn:(int "ops") ~conn:(int "conn") ~out:(get "out")
  | "trace-xmark" ->
      cmd_trace_xmark ~seed:(int "seed") ~scale:(float "scale") ~pool:(int "pool")
        ~workload:(get "workload") ~dir:(get "dir") ~seconds:(float "seconds")
  | "trace-tei" ->
      cmd_trace_tei ~seed:(int "seed") ~conns:(int "conns")
        ~ops_per_conn:(int "ops")
        ~done_:(List.map int_of_string (String.split_on_char ',' (get "done")))
        ~dir:(get "dir")
  | _ ->
      prerr_endline
        "usage: probe (xmark|tei|trace-xmark|trace-tei) --key value ...";
      exit 2
