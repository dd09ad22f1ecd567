exception Malformed of string

let malformed fmt = Printf.ksprintf (fun msg -> raise (Malformed msg)) fmt

let scan body on_part =
  let n = String.length body in
  let pos = ref 0 in
  let skip_ws () =
    while
      !pos < n
      && match body.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false
    do
      incr pos
    done
  in
  skip_ws ();
  if !pos >= n then malformed "empty ingest body";
  while !pos < n do
    let nl =
      match String.index_from_opt body !pos '\n' with
      | Some i -> i
      | None -> malformed "truncated ingest frame header"
    in
    let header = String.trim (String.sub body !pos (nl - !pos)) in
    let name, len =
      match String.rindex_opt header ' ' with
      | Some i -> (
          let name = String.trim (String.sub header 0 i) in
          let len_s =
            String.sub header (i + 1) (String.length header - i - 1)
          in
          match int_of_string_opt len_s with
          | Some l when l >= 0 && name <> "" -> (name, l)
          | _ -> malformed "malformed ingest frame header %S" header)
      | None ->
          malformed
            "malformed ingest frame header %S (want \"<name> <length>\")" header
    in
    (* Compared as a remainder: [nl + 1 + len] wraps for a length near
       [max_int]. *)
    if len > n - (nl + 1) then
      malformed "ingest frame %S: payload truncated" name;
    on_part name (String.sub body (nl + 1) len);
    pos := nl + 1 + len;
    skip_ws ()
  done

let add buf name payload =
  if name = "" || String.contains name '\n' || String.trim name <> name then
    invalid_arg (Printf.sprintf "Ingest_frame.add: unframeable name %S" name);
  Printf.bprintf buf "%s %d\n%s\n" name (String.length payload) payload

let encode parts =
  let buf = Buffer.create 1024 in
  List.iter (fun (name, payload) -> add buf name payload) parts;
  Buffer.contents buf
