(* Structured query tracing: one collector per query run, producing a
   span tree (parse -> optimize -> per-physical-operator eval).

   A span records a name, an optional plan-node id (so EXPLAIN ANALYZE
   can aggregate spans back onto the plan), wall-clock start/end, a
   small attribute list (row counts, index probes, chunk counts,
   strategy), and its children.

   The collector is single-domain by design: the evaluator's recursion
   stays on the domain that called [Engine.run_prepared] (pool workers
   run join sweeps and index builds, not [eval]), so span mutation
   needs no locking.  Exception safety is the caller's contract —
   [enter] attaches the span to its parent immediately and [finish]
   closes whatever is still open — so a query killed mid-flight by
   [Deadline_exceeded] still yields a well-formed partial trace with no
   dangling open spans. *)

type value = Int of int | Float of float | Str of string

type span = {
  sp_name : string;
  sp_node : int;  (** plan-node id, or -1 for phase spans *)
  sp_start : float;
  mutable sp_end : float;  (** [nan] while the span is open *)
  mutable sp_attrs : (string * value) list;
  mutable sp_rev_children : span list;
}

type t = {
  tr_root : span;
  mutable tr_stack : span list;  (** open spans, innermost first *)
  mutable tr_spans : int;
}

let now () = Unix.gettimeofday ()

let fresh_span ~node name =
  {
    sp_name = name;
    sp_node = node;
    sp_start = now ();
    sp_end = Float.nan;
    sp_attrs = [];
    sp_rev_children = [];
  }

let create ?(name = "query") () =
  let root = fresh_span ~node:(-1) name in
  { tr_root = root; tr_stack = [ root ]; tr_spans = 1 }

let root t = t.tr_root
let span_count t = t.tr_spans

(* Open a child of the innermost open span.  The child is attached to
   the tree right away, so even if it never closes it is visible in
   the (partial) trace. *)
let enter t ?(node = -1) name =
  let sp = fresh_span ~node name in
  (match t.tr_stack with
  | parent :: _ -> parent.sp_rev_children <- sp :: parent.sp_rev_children
  | [] ->
      (* After [finish]: keep late arrivals under the root rather than
         losing them. *)
      t.tr_root.sp_rev_children <- sp :: t.tr_root.sp_rev_children);
  t.tr_stack <- sp :: t.tr_stack;
  t.tr_spans <- t.tr_spans + 1;
  sp

let close_span sp = if Float.is_nan sp.sp_end then sp.sp_end <- now ()

(* Close [sp]; any deeper spans still open (a callee that died without
   exiting) are closed along the way. *)
let exit t sp =
  if List.memq sp t.tr_stack then begin
    let rec pop = function
      | top :: rest ->
          close_span top;
          if top == sp then rest else pop rest
      | [] -> []
    in
    t.tr_stack <- pop t.tr_stack
  end
  else close_span sp

(* Close every open span (the root included) and return the root.
   Safe to call after an exception unwound past any number of [exit]s:
   this is what makes partial traces well-formed. *)
let finish t =
  List.iter close_span t.tr_stack;
  t.tr_stack <- [];
  close_span t.tr_root;
  t.tr_root

(* Run [f] under a fresh child span, closed however [f] returns. *)
let with_span t ?node name f =
  let sp = enter t ?node name in
  Fun.protect ~finally:(fun () -> exit t sp) (fun () -> f sp)

(* ------------------------------------------------------------------ *)
(* Attributes                                                          *)

let set_attr sp key v =
  sp.sp_attrs <- (key, v) :: List.remove_assoc key sp.sp_attrs

let set_int sp key n = set_attr sp key (Int n)
let set_str sp key s = set_attr sp key (Str s)
let set_float sp key f = set_attr sp key (Float f)

(* Run the index build [f] under an ["index-build"] span of [trace]
   (when given), recording which [index] it builds, its [mode]
   (["cold"] for a build from the document, ["warm"] for one derived
   from built structures) and the [rows] of the index it returns. *)
let index_build trace ~index ~mode ~rows f =
  match trace with
  | None -> f ()
  | Some tr ->
      with_span tr "index-build" (fun sp ->
          set_str sp "index" index;
          set_str sp "mode" mode;
          let built = f () in
          set_int sp "rows" (rows built);
          built)

(* Accumulate: per-shard contributions to one join span sum up. *)
let add_int sp key n =
  let base =
    match List.assoc_opt key sp.sp_attrs with Some (Int i) -> i | _ -> 0
  in
  set_attr sp key (Int (base + n))

let attr sp key = List.assoc_opt key sp.sp_attrs

let int_attr sp key =
  match attr sp key with Some (Int i) -> Some i | _ -> None

let str_attr sp key =
  match attr sp key with Some (Str s) -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* Reading the tree                                                    *)

let name sp = sp.sp_name
let node sp = sp.sp_node
let children sp = List.rev sp.sp_rev_children
let is_closed sp = not (Float.is_nan sp.sp_end)

let duration sp =
  if is_closed sp then sp.sp_end -. sp.sp_start else Float.nan

(* Pre-order walk. *)
let rec iter f sp =
  f sp;
  List.iter (iter f) (children sp)

let find_all p sp =
  let out = ref [] in
  iter (fun s -> if p s then out := s :: !out) sp;
  List.rev !out

let rec all_closed sp =
  is_closed sp && List.for_all all_closed (children sp)

let rec depth sp =
  1 + List.fold_left (fun acc c -> max acc (depth c)) 0 (children sp)

(* A one-line digest for the slow-query log: total spans, tree depth,
   the slowest operator span, and the time spent in index builds (they
   nest inside [optimize] or a join, so the slowest span alone would
   hide them). *)
let summary t =
  let root = t.tr_root in
  let slowest = ref None in
  iter
    (fun sp ->
      if sp != root && is_closed sp then
        match !slowest with
        | Some (_, d) when d >= duration sp -> ()
        | _ -> slowest := Some (sp.sp_name, duration sp))
    root;
  let slow_part =
    match !slowest with
    | Some (n, d) -> Printf.sprintf " slowest=%s:%.3fms" n (d *. 1e3)
    | None -> ""
  in
  let build_part =
    match find_all (fun sp -> sp.sp_name = "index-build" && is_closed sp) root with
    | [] -> ""
    | builds ->
        Printf.sprintf " index-build=%.3fms"
          (List.fold_left (fun acc sp -> acc +. duration sp) 0.0 builds *. 1e3)
  in
  Printf.sprintf "spans=%d depth=%d%s%s" t.tr_spans (depth root) slow_part
    build_part

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let json_value buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (Printf.sprintf "%.9g" f)
  | Str s -> Buffer.add_string buf (Printf.sprintf "\"%s\"" (Metrics.json_escape s))

let rec json_of_span buf ~t0 sp =
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":\"%s\"" (Metrics.json_escape sp.sp_name));
  if sp.sp_node >= 0 then
    Buffer.add_string buf (Printf.sprintf ",\"node\":%d" sp.sp_node);
  Buffer.add_string buf
    (Printf.sprintf ",\"start_ms\":%.6g" ((sp.sp_start -. t0) *. 1e3));
  if is_closed sp then
    Buffer.add_string buf
      (Printf.sprintf ",\"duration_ms\":%.6g" (duration sp *. 1e3))
  else Buffer.add_string buf ",\"duration_ms\":null";
  (match sp.sp_attrs with
  | [] -> ()
  | attrs ->
      Buffer.add_string buf ",\"attrs\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",";
          Buffer.add_string buf (Printf.sprintf "\"%s\":" (Metrics.json_escape k));
          json_value buf v)
        (List.rev attrs);
      Buffer.add_string buf "}");
  (match children sp with
  | [] -> ()
  | kids ->
      Buffer.add_string buf ",\"children\":[";
      List.iteri
        (fun i kid ->
          if i > 0 then Buffer.add_string buf ",";
          json_of_span buf ~t0 kid)
        kids;
      Buffer.add_string buf "]");
  Buffer.add_string buf "}"

let to_json t =
  let buf = Buffer.create 1024 in
  json_of_span buf ~t0:t.tr_root.sp_start t.tr_root;
  Buffer.contents buf

let span_to_json sp =
  let buf = Buffer.create 1024 in
  json_of_span buf ~t0:sp.sp_start sp;
  Buffer.contents buf
