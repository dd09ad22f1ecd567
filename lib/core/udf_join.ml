module Vec = Standoff_util.Vec
module Timing = Standoff_util.Timing
module Area = Standoff_interval.Area

(* Keep only area-annotations, pairing each pre with its area. *)
let annotation_pairs annots pres =
  let out = Vec.create () in
  Array.iter
    (fun pre ->
      match Annots.area_of annots pre with
      | Some a -> Vec.push out (pre, a)
      | None -> ())
    pres;
  out

let join op annots ~deadline ~context ~candidates =
  let context_pairs = annotation_pairs annots context in
  let candidate_pairs =
    match candidates with
    | Some pres -> annotation_pairs annots pres
    | None ->
        (* Figure 2: the inner loop ranges over every area-annotation
           of the document. *)
        let out = Vec.create () in
        Array.iteri
          (fun i id -> Vec.push out (id, Annots.area_at annots i))
          annots.Annots.ids;
        out
  in
  let pred =
    if Op.is_narrow op then Area.contains else Area.overlaps
  in
  let want_match = Op.is_select op in
  let out = Vec.create () in
  (* Candidate-major nested loop: the literal [some $q in $input
     satisfies ...] evaluation of the UDF, negated for the reject
     operators. *)
  Vec.iter
    (fun (cand_pre, cand_area) ->
      Timing.checkpoint deadline;
      let matched =
        Vec.exists (fun (_, ctx_area) -> pred ctx_area cand_area) context_pairs
      in
      if matched = want_match then Vec.push out cand_pre)
    candidate_pairs;
  let arr = Vec.to_array out in
  Array.sort compare arr;
  let dedup = Vec.create () in
  Array.iteri
    (fun i pre -> if i = 0 || arr.(i - 1) <> pre then Vec.push dedup pre)
    arr;
  Vec.to_array dedup
