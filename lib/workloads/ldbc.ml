module Schema = Gopt_graph.Schema
module G = Gopt_graph.Property_graph
module Value = Gopt_graph.Value
module Prng = Gopt_util.Prng

let schema =
  Schema.create
    ~vtypes:
      [
        ( "Person",
          [
            ("id", Schema.P_int);
            ("firstName", Schema.P_string);
            ("lastName", Schema.P_string);
            ("gender", Schema.P_string);
            ("birthday", Schema.P_int);
            ("creationDate", Schema.P_int);
            ("browserUsed", Schema.P_string);
          ] );
        ("City", [ ("id", Schema.P_int); ("name", Schema.P_string) ]);
        ("Country", [ ("id", Schema.P_int); ("name", Schema.P_string) ]);
        ("University", [ ("id", Schema.P_int); ("name", Schema.P_string) ]);
        ("Company", [ ("id", Schema.P_int); ("name", Schema.P_string) ]);
        ( "Forum",
          [ ("id", Schema.P_int); ("title", Schema.P_string); ("creationDate", Schema.P_int) ] );
        ( "Post",
          [
            ("id", Schema.P_int);
            ("creationDate", Schema.P_int);
            ("length", Schema.P_int);
            ("language", Schema.P_string);
            ("content", Schema.P_string);
          ] );
        ( "Comment",
          [
            ("id", Schema.P_int);
            ("creationDate", Schema.P_int);
            ("length", Schema.P_int);
            ("content", Schema.P_string);
            ("browserUsed", Schema.P_string);
          ] );
        ("Tag", [ ("id", Schema.P_int); ("name", Schema.P_string) ]);
        ("TagClass", [ ("id", Schema.P_int); ("name", Schema.P_string) ]);
      ]
    ~etypes:
      [
        ("KNOWS", [ ("creationDate", Schema.P_int) ]);
        ("IS_LOCATED_IN", []);
        ("IS_PART_OF", []);
        ("STUDY_AT", [ ("classYear", Schema.P_int) ]);
        ("WORK_AT", [ ("workFrom", Schema.P_int) ]);
        ("HAS_MODERATOR", []);
        ("HAS_MEMBER", [ ("joinDate", Schema.P_int) ]);
        ("CONTAINER_OF", []);
        ("HAS_CREATOR", []);
        ("REPLY_OF", []);
        ("LIKES", [ ("creationDate", Schema.P_int) ]);
        ("HAS_TAG", []);
        ("HAS_TYPE", []);
        ("IS_SUBCLASS_OF", []);
        ("HAS_INTEREST", []);
      ]
    ~triples:
      [
        ("Person", "KNOWS", "Person");
        ("Person", "IS_LOCATED_IN", "City");
        ("University", "IS_LOCATED_IN", "City");
        ("Company", "IS_LOCATED_IN", "Country");
        ("Post", "IS_LOCATED_IN", "Country");
        ("Comment", "IS_LOCATED_IN", "Country");
        ("City", "IS_PART_OF", "Country");
        ("Person", "STUDY_AT", "University");
        ("Person", "WORK_AT", "Company");
        ("Forum", "HAS_MODERATOR", "Person");
        ("Forum", "HAS_MEMBER", "Person");
        ("Forum", "CONTAINER_OF", "Post");
        ("Post", "HAS_CREATOR", "Person");
        ("Comment", "HAS_CREATOR", "Person");
        ("Comment", "REPLY_OF", "Post");
        ("Comment", "REPLY_OF", "Comment");
        ("Person", "LIKES", "Post");
        ("Person", "LIKES", "Comment");
        ("Post", "HAS_TAG", "Tag");
        ("Comment", "HAS_TAG", "Tag");
        ("Forum", "HAS_TAG", "Tag");
        ("Tag", "HAS_TYPE", "TagClass");
        ("TagClass", "IS_SUBCLASS_OF", "TagClass");
        ("Person", "HAS_INTEREST", "Tag");
      ]

let first_names = [| "Jan"; "Wei"; "Maria"; "Ahmed"; "Olga"; "Chen"; "Lena"; "Raj"; "Ana"; "Omar" |]
let last_names = [| "Smith"; "Li"; "Garcia"; "Khan"; "Ivanova"; "Wang"; "Muller"; "Patel"; "Silva"; "Hassan" |]
let browsers = [| "Firefox"; "Chrome"; "Safari"; "InternetExplorer" |]
let languages = [| "en"; "zh"; "es"; "de"; "ru" |]

let default_persons = 1500

let scale_ladder = [ ("S1", 200); ("S2", 600); ("S3", 2000); ("S4", 6000) ]

let generate ?(seed = 42) ~persons () =
  let rng = Prng.create seed in
  let b = G.Builder.create schema in
  let vt name = Schema.vtype_id schema name in
  let et name = Schema.etype_id schema name in
  let n_cities = 40 and n_countries = 15 and n_universities = 30 and n_companies = 40 in
  let n_tags = 90 and n_tagclasses = 15 in
  let n_forums = max 1 (persons / 5) in
  let n_posts = persons * 2 and n_comments = persons * 4 in
  let day = 86400 in
  let date () = 1262304000 + (Prng.int rng 3650 * day) in

  (* --- places --- *)
  let countries =
    Array.init n_countries (fun i ->
        G.Builder.add_vertex b ~vtype:(vt "Country")
          [ ("id", Value.Int i); ("name", Value.Str (Printf.sprintf "country_%d" i)) ])
  in
  let cities =
    Array.init n_cities (fun i ->
        G.Builder.add_vertex b ~vtype:(vt "City")
          [ ("id", Value.Int i); ("name", Value.Str (Printf.sprintf "city_%d" i)) ])
  in
  Array.iteri
    (fun i c ->
      ignore (G.Builder.add_edge b ~src:c ~dst:countries.(i mod n_countries) ~etype:(et "IS_PART_OF") []))
    cities;
  let universities =
    Array.init n_universities (fun i ->
        let u =
          G.Builder.add_vertex b ~vtype:(vt "University")
            [ ("id", Value.Int i); ("name", Value.Str (Printf.sprintf "university_%d" i)) ]
        in
        ignore
          (G.Builder.add_edge b ~src:u ~dst:cities.(Prng.int rng n_cities)
             ~etype:(et "IS_LOCATED_IN") []);
        u)
  in
  let companies =
    Array.init n_companies (fun i ->
        let c =
          G.Builder.add_vertex b ~vtype:(vt "Company")
            [ ("id", Value.Int i); ("name", Value.Str (Printf.sprintf "company_%d" i)) ]
        in
        ignore
          (G.Builder.add_edge b ~src:c ~dst:countries.(Prng.int rng n_countries)
             ~etype:(et "IS_LOCATED_IN") []);
        c)
  in

  (* --- tags --- *)
  let tagclasses =
    Array.init n_tagclasses (fun i ->
        G.Builder.add_vertex b ~vtype:(vt "TagClass")
          [ ("id", Value.Int i); ("name", Value.Str (Printf.sprintf "tagclass_%d" i)) ])
  in
  Array.iteri
    (fun i tc ->
      if i > 0 then
        ignore
          (G.Builder.add_edge b ~src:tc ~dst:tagclasses.(Prng.int rng i)
             ~etype:(et "IS_SUBCLASS_OF") []))
    tagclasses;
  let tags =
    Array.init n_tags (fun i ->
        let t =
          G.Builder.add_vertex b ~vtype:(vt "Tag")
            [ ("id", Value.Int i); ("name", Value.Str (Printf.sprintf "tag_%d" i)) ]
        in
        ignore
          (G.Builder.add_edge b ~src:t
             ~dst:tagclasses.(Prng.zipf rng ~n:n_tagclasses ~s:1.2)
             ~etype:(et "HAS_TYPE") []);
        t)
  in
  let zipf_tag () = tags.(Prng.zipf rng ~n:n_tags ~s:1.1) in

  (* --- persons --- *)
  let people =
    Array.init persons (fun i ->
        G.Builder.add_vertex b ~vtype:(vt "Person")
          [
            ("id", Value.Int i);
            ("firstName", Value.Str first_names.(Prng.zipf rng ~n:(Array.length first_names) ~s:1.0));
            ("lastName", Value.Str last_names.(Prng.zipf rng ~n:(Array.length last_names) ~s:1.0));
            ("gender", Value.Str (if Prng.bool rng then "male" else "female"));
            ("birthday", Value.Int (Prng.int_in rng 1950 2005));
            ("creationDate", Value.Int (date ()));
            ("browserUsed", Value.Str (Prng.choice rng browsers));
          ])
  in
  let zipf_person () = people.(Prng.zipf rng ~n:persons ~s:1.05) in
  Array.iteri
    (fun i p ->
      ignore
        (G.Builder.add_edge b ~src:p ~dst:cities.(Prng.zipf rng ~n:n_cities ~s:1.1)
           ~etype:(et "IS_LOCATED_IN") []);
      if Prng.int rng 10 < 7 then
        ignore
          (G.Builder.add_edge b ~src:p ~dst:universities.(Prng.int rng n_universities)
             ~etype:(et "STUDY_AT")
             [ ("classYear", Value.Int (Prng.int_in rng 1970 2024)) ]);
      if Prng.int rng 10 < 8 then
        ignore
          (G.Builder.add_edge b ~src:p ~dst:companies.(Prng.int rng n_companies)
             ~etype:(et "WORK_AT")
             [ ("workFrom", Value.Int (Prng.int_in rng 1990 2024)) ]);
      (* KNOWS: skewed out-degree, mixing local and global targets *)
      let degree = 2 + Prng.zipf rng ~n:24 ~s:1.3 in
      for _ = 1 to degree do
        let target =
          if Prng.int rng 10 < 7 then begin
            let offset = 1 + Prng.int rng 60 in
            (* non-negative modulo: [persons - offset] is negative below 61
               persons; equal to the plain [mod] whenever that is in range *)
            let j =
              (((i + if Prng.bool rng then offset else persons - offset) mod persons) + persons)
              mod persons
            in
            people.(j)
          end
          else zipf_person ()
        in
        if target <> p then
          ignore
            (G.Builder.add_edge b ~src:p ~dst:target ~etype:(et "KNOWS")
               [ ("creationDate", Value.Int (date ())) ])
      done;
      let interests = 3 + Prng.int rng 4 in
      for _ = 1 to interests do
        ignore (G.Builder.add_edge b ~src:p ~dst:(zipf_tag ()) ~etype:(et "HAS_INTEREST") [])
      done)
    people;

  (* --- forums --- *)
  let forums =
    Array.init n_forums (fun i ->
        let f =
          G.Builder.add_vertex b ~vtype:(vt "Forum")
            [
              ("id", Value.Int i);
              ("title", Value.Str (Printf.sprintf "forum_%d" i));
              ("creationDate", Value.Int (date ()));
            ]
        in
        ignore (G.Builder.add_edge b ~src:f ~dst:(zipf_person ()) ~etype:(et "HAS_MODERATOR") []);
        let members = 5 + Prng.zipf rng ~n:40 ~s:1.2 in
        for _ = 1 to members do
          ignore
            (G.Builder.add_edge b ~src:f ~dst:(zipf_person ()) ~etype:(et "HAS_MEMBER")
               [ ("joinDate", Value.Int (date ())) ])
        done;
        for _ = 1 to 1 + Prng.int rng 2 do
          ignore (G.Builder.add_edge b ~src:f ~dst:(zipf_tag ()) ~etype:(et "HAS_TAG") [])
        done;
        f)
  in

  (* --- posts --- *)
  let posts =
    Array.init n_posts (fun i ->
        let p =
          G.Builder.add_vertex b ~vtype:(vt "Post")
            [
              ("id", Value.Int i);
              ("creationDate", Value.Int (date ()));
              ("length", Value.Int (10 + Prng.int rng 500));
              ("language", Value.Str (Prng.choice rng languages));
              ("content", Value.Str (Printf.sprintf "post content %d" i));
            ]
        in
        ignore
          (G.Builder.add_edge b
             ~src:forums.(Prng.zipf rng ~n:n_forums ~s:1.1)
             ~dst:p ~etype:(et "CONTAINER_OF") []);
        ignore (G.Builder.add_edge b ~src:p ~dst:(zipf_person ()) ~etype:(et "HAS_CREATOR") []);
        ignore
          (G.Builder.add_edge b ~src:p ~dst:countries.(Prng.zipf rng ~n:n_countries ~s:1.1)
             ~etype:(et "IS_LOCATED_IN") []);
        for _ = 1 to 1 + Prng.int rng 3 do
          ignore (G.Builder.add_edge b ~src:p ~dst:(zipf_tag ()) ~etype:(et "HAS_TAG") [])
        done;
        p)
  in

  (* --- comments --- *)
  let comments = Array.make n_comments (-1) in
  for i = 0 to n_comments - 1 do
    let c =
      G.Builder.add_vertex b ~vtype:(vt "Comment")
        [
          ("id", Value.Int i);
          ("creationDate", Value.Int (date ()));
          ("length", Value.Int (5 + Prng.int rng 200));
          ("content", Value.Str (Printf.sprintf "comment %d" i));
          ("browserUsed", Value.Str (Prng.choice rng browsers));
        ]
    in
    comments.(i) <- c;
    ignore (G.Builder.add_edge b ~src:c ~dst:(zipf_person ()) ~etype:(et "HAS_CREATOR") []);
    let parent =
      if i = 0 || Prng.int rng 10 < 6 then posts.(Prng.zipf rng ~n:n_posts ~s:1.1)
      else comments.(Prng.int rng i)
    in
    ignore (G.Builder.add_edge b ~src:c ~dst:parent ~etype:(et "REPLY_OF") []);
    ignore
      (G.Builder.add_edge b ~src:c ~dst:countries.(Prng.zipf rng ~n:n_countries ~s:1.1)
         ~etype:(et "IS_LOCATED_IN") []);
    for _ = 1 to Prng.int rng 3 do
      ignore (G.Builder.add_edge b ~src:c ~dst:(zipf_tag ()) ~etype:(et "HAS_TAG") [])
    done
  done;

  (* --- likes --- *)
  Array.iter
    (fun p ->
      let likes = 3 + Prng.zipf rng ~n:20 ~s:1.2 in
      for _ = 1 to likes do
        let target =
          if Prng.bool rng then posts.(Prng.zipf rng ~n:n_posts ~s:1.1)
          else comments.(Prng.zipf rng ~n:n_comments ~s:1.1)
        in
        ignore
          (G.Builder.add_edge b ~src:p ~dst:target ~etype:(et "LIKES")
             [ ("creationDate", Value.Int (date ())) ])
      done)
    people;

  G.Builder.freeze b
