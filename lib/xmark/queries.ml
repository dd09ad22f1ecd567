type query = {
  id : string;
  description : string;
  standard : string -> string;
  standoff : string -> string;
}

let q1 =
  {
    id = "Q1";
    description = "Return the name of the person with ID person0";
    standard =
      (fun doc ->
        Printf.sprintf
          "for $b in doc(\"%s\")/site/people/person[@id = \"person0\"]\n\
           return $b/name/text()"
          doc);
    standoff =
      (fun doc ->
        Printf.sprintf
          "for $b in doc(\"%s\")//site/select-narrow::people\n\
          \    /select-narrow::person[@id = \"person0\"]\n\
           return $b/select-narrow::name"
          doc);
  }

(* Figure 5 of the paper. *)
let q2 =
  {
    id = "Q2";
    description = "Return the initial increases of all open auctions";
    standard =
      (fun doc ->
        Printf.sprintf
          "for $b in doc(\"%s\")/site/open_auctions/open_auction\n\
           return <increase>{$b/bidder[1]/increase/text()}</increase>"
          doc);
    standoff =
      (fun doc ->
        Printf.sprintf
          "for $b in doc(\"%s\")//site/select-narrow::open_auctions\n\
          \    /select-narrow::open_auction\n\
           return <increase>{\n\
          \  $b/select-narrow::bidder[1]/select-narrow::increase\n\
           }</increase>"
          doc);
  }

let q6 =
  {
    id = "Q6";
    description = "How many items are listed on all continents?";
    standard =
      (fun doc ->
        Printf.sprintf
          "for $b in doc(\"%s\")//site/regions return count($b//item)" doc);
    standoff =
      (fun doc ->
        Printf.sprintf
          "for $b in doc(\"%s\")//site/select-narrow::regions\n\
           return count($b/select-narrow::item)"
          doc);
  }

let q7 =
  {
    id = "Q7";
    description = "How many pieces of prose are in our database?";
    standard =
      (fun doc ->
        Printf.sprintf
          "for $p in doc(\"%s\")/site\n\
           return count($p//description) + count($p//annotation) + \
           count($p//emailaddress)"
          doc);
    standoff =
      (fun doc ->
        Printf.sprintf
          "for $p in doc(\"%s\")//site\n\
           return count($p/select-narrow::description)\n\
          \     + count($p/select-narrow::annotation)\n\
          \     + count($p/select-narrow::emailaddress)"
          doc);
  }

let all = [ q1; q2; q6; q7 ]

(* Not in the paper: the single-auction lookup of the serving
   benchmark's point workload — one open auction by id, then its first
   bidder's increase. *)
let a1 =
  {
    id = "A1";
    description =
      "Return the first increase of the open auction with ID open_auction0";
    standard =
      (fun doc ->
        Printf.sprintf
          "for $a in doc(\"%s\")/site/open_auctions/open_auction[@id = \
           \"open_auction0\"]\n\
           return $a/bidder[1]/increase/text()"
          doc);
    standoff =
      (fun doc ->
        Printf.sprintf
          "for $a in doc(\"%s\")//site/select-narrow::open_auctions\n\
          \    /select-narrow::open_auction[@id = \"open_auction0\"]\n\
           return $a/select-narrow::bidder[1]/select-narrow::increase"
          doc);
  }

type extended_query = {
  ext_id : string;
  ext_description : string;
  ext_standard : string -> string;
}

let extended =
  [
    {
      ext_id = "Q3";
      ext_description =
        "Auctions where the first bid doubled within the bid history";
      ext_standard =
        (fun doc ->
          Printf.sprintf
            "for $b in doc(\"%s\")/site/open_auctions/open_auction\n\
             where count($b/bidder) > 0 and \
             $b/bidder[1]/increase * 2 <= $b/bidder[last()]/increase\n\
             return <increase first=\"{$b/bidder[1]/increase}\" \
             last=\"{$b/bidder[last()]/increase}\"/>"
            doc);
    };
    {
      ext_id = "Q5";
      ext_description = "How many sold items cost more than 40?";
      ext_standard =
        (fun doc ->
          Printf.sprintf
            "count(for $i in doc(\"%s\")/site/closed_auctions/closed_auction\n\
             where $i/price >= 40 return $i/price)"
            doc);
    };
    {
      ext_id = "Q8";
      ext_description = "How many items did each person buy? (value join)";
      ext_standard =
        (fun doc ->
          Printf.sprintf
            "for $p in doc(\"%s\")/site/people/person\n\
             let $a := for $t in doc(\"%s\")/site/closed_auctions/closed_auction\n\
            \          where $t/buyer/@person = $p/@id return $t\n\
             return <item person=\"{$p/name}\">{count($a)}</item>"
            doc doc);
    };
    {
      ext_id = "Q14";
      ext_description = "Items whose description mentions 'gold'";
      ext_standard =
        (fun doc ->
          Printf.sprintf
            "for $i in doc(\"%s\")//item\n\
             where contains(string($i/description), \"gold\")\n\
             return $i/name/text()"
            doc);
    };
    {
      ext_id = "Q17";
      ext_description = "Which persons do not have a homepage?";
      ext_standard =
        (fun doc ->
          Printf.sprintf
            "for $p in doc(\"%s\")/site/people/person\n\
             where empty($p/homepage)\n\
             return <person name=\"{$p/name}\"/>"
            doc);
    };
    {
      ext_id = "Q20";
      ext_description = "Income distribution of the customers";
      ext_standard =
        (fun doc ->
          Printf.sprintf
            "let $people := doc(\"%s\")/site/people/person\n\
             return <result>\n\
             <high>{count($people[profile/@income >= 60000])}</high>\n\
             <standard>{count($people[profile/@income < 60000])}</standard>\n\
             <unknown>{count($people[empty(profile/@income)])}</unknown>\n\
             </result>"
            doc);
    };
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.find (fun q -> String.equal q.id id) all
