(** Tests for [ipa_spec]: the DSL parser, validation and the application
    catalog. *)

open Ipa_logic
open Ipa_spec

let parse = Spec_parser.parse_string

(* ------------------------------------------------------------------ *)
(* DSL parser                                                          *)
(* ------------------------------------------------------------------ *)

let minimal_src =
  {|
app Mini
sort Thing
predicate thing(Thing)
invariant triv: forall(Thing:t) :- thing(t) => thing(t)
rule thing: add-wins
operation add(Thing:t)
  thing(t) := true
|}

let test_parse_minimal () =
  let s = parse minimal_src in
  Alcotest.(check string) "app name" "Mini" s.Types.app_name;
  Alcotest.(check int) "one sort" 1 (List.length s.sorts);
  Alcotest.(check int) "one predicate" 1 (List.length s.preds);
  Alcotest.(check int) "one invariant" 1 (List.length s.invariants);
  Alcotest.(check int) "one operation" 1 (List.length s.operations);
  Alcotest.(check bool) "rule recorded" true
    (Types.conv_rule_of s "thing" = Types.Add_wins)

let test_parse_effects () =
  let src =
    {|
app Effects
sort A
sort B
predicate p(A)
predicate q(A, B)
numeric n(A) in [0, 8]
numeric m(B) in [ 0, 4 ]
invariant t: forall(A:a) :- p(a) => p(a)
operation o(A:a, B:b)
  p(a) := true
  q(a, b) := false
  q(*, b) := false
  n(a) += 2
  n(a) -= 1
  p(a) := true touch
|}
  in
  let s = parse src in
  let op = List.hd s.Types.operations in
  Alcotest.(check int) "six effects" 6 (List.length op.oeffects);
  let eff i = List.nth op.oeffects i in
  Alcotest.(check bool) "set true" true ((eff 0).eff.evalue = Types.Set true);
  Alcotest.(check bool) "set false" true ((eff 1).eff.evalue = Types.Set false);
  Alcotest.(check bool) "wildcard arg" true
    (List.hd (eff 2).eff.eargs = Ast.Star);
  Alcotest.(check bool) "delta +2" true ((eff 3).eff.evalue = Types.Delta 2);
  Alcotest.(check bool) "delta -1" true ((eff 4).eff.evalue = Types.Delta (-1));
  Alcotest.(check bool) "touch mode" true ((eff 5).mode = Types.Touch);
  Alcotest.(check bool) "spaced bounds" true
    ((Option.get (Types.find_pred s "m")).pkind
    = Types.Numeric { lo = 0; hi = 4 })

let test_parse_multiline_invariant () =
  let src =
    {|
app M
sort A
predicate p(A)
predicate q(A)
invariant long: forall(A:a) :-
    p(a) =>
    q(a)
operation o(A:a)
  p(a) := true
|}
  in
  let s = parse src in
  let inv = List.hd s.Types.invariants in
  Alcotest.(check string) "joined formula" "forall(A:a) :- p(a) => q(a)"
    (Pp.formula_to_string inv.iformula);
  (* a continuation line may start with a cardinality [#p]; only [#]
     without an identifier character after it starts a comment, on its
     own line or after a declaration *)
  let capacity split =
    parse
      (Fmt.str
         {|
app C
sort P
sort T  # entity types
const Capacity = 3 // seats
predicate enrolled(P, T)
invariant capacity: forall(T:t) :-%s#enrolled(*, t) <= Capacity
# a comment line
operation enroll(P:p, T:t)
  enrolled(p, t) := true
|}
         split)
  in
  let one_line = capacity " " and two_lines = capacity "\n" in
  Alcotest.(check bool) "split capacity = one-line capacity" true
    (one_line = two_lines);
  Alcotest.(check (list string)) "comments stripped from names"
    [ "P"; "T" ] one_line.Types.sorts;
  Alcotest.(check (list (pair string int))) "comment after a const"
    [ ("Capacity", 3) ] one_line.Types.consts

let test_parse_tags () =
  let src =
    {|
app M
sort A
sort Id
predicate hasId(A, Id)
invariant [unique] u: forall(A:a, b, Id:i) :- hasId(a,i) and hasId(b,i) => a == b
invariant [sequential] s: forall(A:a) :- hasId(a, a) => hasId(a, a)
operation o(A:a, Id:i)
  hasId(a, i) := true
|}
  in
  let s = parse src in
  let tags = List.map (fun i -> i.Types.itag) s.Types.invariants in
  Alcotest.(check bool) "unique tag" true
    (List.mem (Some Types.Tag_unique_id) tags);
  Alcotest.(check bool) "sequential tag" true
    (List.mem (Some Types.Tag_sequential_id) tags)

let expect_syntax_error src =
  match parse src with
  | exception Spec_parser.Syntax_error _ -> ()
  | exception Validate.Invalid _ -> ()
  | _ -> Alcotest.failf "expected rejection of %S" src

let test_parse_errors () =
  expect_syntax_error "app X\nbogus line here\n";
  expect_syntax_error "app X\nconst Capacity = many\n";
  expect_syntax_error "app X\nsort A\noperation o(A)\n" (* param w/o name *);
  expect_syntax_error
    "app X\nsort A\npredicate p(A)\noperation o(A:a)\n  p(a) = true\n";
  (* an unnamed invariant names the form it lacks, at its line *)
  match
    parse "app X\nsort A\npredicate p(A)\ninvariant forall(A:a) :- p(a)\n"
  with
  | exception Spec_parser.Syntax_error { line; msg } ->
      Alcotest.(check int) "error line" 4 line;
      Alcotest.(check bool)
        ("names the invariant form: " ^ msg)
        true
        (Astring.String.is_infix ~affix:"invariant name: formula" msg)
  | _ -> Alcotest.fail "an unnamed invariant must be rejected"

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let test_validate_unknown_pred_in_effect () =
  expect_syntax_error
    {|
app V
sort A
predicate p(A)
invariant t: forall(A:a) :- p(a) => p(a)
operation o(A:a)
  ghost(a) := true
|}

let test_validate_unknown_pred_in_invariant () =
  expect_syntax_error
    {|
app V
sort A
predicate p(A)
invariant t: forall(A:a) :- ghost(a) => p(a)
operation o(A:a)
  p(a) := true
|}

let test_validate_arity () =
  expect_syntax_error
    {|
app V
sort A
predicate p(A)
invariant t: forall(A:a) :- p(a) => p(a)
operation o(A:a)
  p(a, a) := true
|}

let test_validate_unbound_param () =
  expect_syntax_error
    {|
app V
sort A
predicate p(A)
invariant t: forall(A:a) :- p(a) => p(a)
operation o(A:a)
  p(z) := true
|}

let test_validate_numeric_mismatch () =
  expect_syntax_error
    {|
app V
sort A
numeric n(A) in [0, 4]
invariant t: forall(A:a) :- n(a) >= 0
operation o(A:a)
  n(a) := true
|}

let test_validate_free_var_invariant () =
  expect_syntax_error
    {|
app V
sort A
predicate p(A)
invariant t: p(x)
operation o(A:a)
  p(a) := true
|}

let test_validate_undeclared_sort () =
  List.iter
    (fun decl ->
      match parse (Fmt.str "app V\nsort A\n%s\n" decl) with
      | exception Validate.Invalid [ { what; _ } ] ->
          Alcotest.(check string) decl "undeclared sort Ghost" what
      | _ -> Alcotest.failf "%s must be rejected" decl)
    [ "predicate p(A, Ghost)"; "numeric n(Ghost) in [0, 4]" ]

let test_validate_named_const_ok () =
  (* free variables that are declared consts are fine *)
  let s =
    parse
      {|
app V
sort A
const K = 3
predicate p(A)
invariant t: #p(*) <= K
operation o(A:a)
  p(a) := true
|}
  in
  Alcotest.(check int) "const recorded" 3 (List.assoc "K" s.Types.consts)

(* ------------------------------------------------------------------ *)
(* Catalog                                                             *)
(* ------------------------------------------------------------------ *)

let test_catalog_all_parse () =
  let specs = Catalog.all () in
  Alcotest.(check int) "five applications" 5 (List.length specs);
  List.iter
    (fun (s : Types.t) ->
      Alcotest.(check bool)
        (s.app_name ^ " validates")
        true
        (Validate.check s = []))
    specs

let test_catalog_tournament_shape () =
  let s = Catalog.tournament () in
  Alcotest.(check int) "figure 1 has 6 invariants" 6
    (List.length s.Types.invariants);
  Alcotest.(check int) "nine operations" 9 (List.length s.Types.operations);
  (* the capacity invariant uses a cardinality *)
  Alcotest.(check bool) "capacity is a cardinality constraint" true
    (List.exists
       (fun i -> Ast.has_cardinality i.Types.iformula)
       s.Types.invariants);
  Alcotest.(check int) "Capacity constant" 3
    (List.assoc "Capacity" s.Types.consts)

let test_catalog_signature () =
  let s = Catalog.tournament () in
  let sg = Types.signature s in
  Alcotest.(check int) "six boolean predicates" 6
    (List.length sg.Ground.pred_sorts);
  Alcotest.(check (list string)) "enrolled sorts" [ "Player"; "Tournament" ]
    (List.assoc "enrolled" sg.Ground.pred_sorts)

let test_catalog_ticket_numeric () =
  let s = Catalog.ticket () in
  let bounds =
    Types.int_bounds s { Ground.gfun = "available"; gnargs = [ "e1" ] }
  in
  Alcotest.(check (pair int int)) "declared bounds" (0, 16) bounds;
  let op = Option.get (Types.find_op s "buy_ticket") in
  Alcotest.(check (list string)) "buy writes available" [ "available" ]
    (Types.written_nfuns op)

let test_catalog_written_preds () =
  let s = Catalog.tournament () in
  let op = Option.get (Types.find_op s "finish_tourn") in
  Alcotest.(check (list string)) "finish writes active+finished"
    [ "active"; "finished" ] (Types.written_preds op)

let test_invariant_formula_conjunction () =
  let s = Catalog.tournament () in
  let inv = Types.invariant_formula s in
  Alcotest.(check int) "six clauses" 6 (List.length (Ast.clauses inv))

(* round-trip: pp an operation and check it mentions its effects *)
let test_pp_operation () =
  let s = Catalog.tournament () in
  let op = Option.get (Types.find_op s "enroll") in
  let str = Types.operation_to_string op in
  Alcotest.(check bool) "mentions effect" true
    (Astring.String.is_infix ~affix:"enrolled(p, t) := true" str)

(* ------------------------------------------------------------------ *)
(* Composition (§5.1.4)                                                *)
(* ------------------------------------------------------------------ *)

let album_src =
  {|
app Album
sort User
sort Photo
predicate user(User)
predicate photo(Photo)
predicate ownedBy(Photo, User)
invariant owner_ref: forall(Photo:p, User:u) :- ownedBy(p,u) => photo(p) and user(u)
rule user: add-wins
rule photo: add-wins
rule ownedBy: add-wins
operation upload(Photo:p, User:u)
  photo(p) := true
  ownedBy(p, u) := true
|}

let chat_src =
  {|
app Chat
sort User
sort Msg
predicate user(User)
predicate msg(Msg)
predicate sentBy(Msg, User)
invariant sender_ref: forall(Msg:m, User:u) :- sentBy(m,u) => msg(m) and user(u)
rule user: add-wins
rule msg: add-wins
rule sentBy: add-wins
operation send(Msg:m, User:u)
  msg(m) := true
  sentBy(m, u) := true
operation rem_user(User:u)
  user(u) := false
|}

let test_compose_merge () =
  let album = parse album_src and chat = parse chat_src in
  let merged = Compose.merge [ album; chat ] in
  Alcotest.(check (list string)) "sorts unified"
    [ "User"; "Photo"; "Msg" ] merged.Types.sorts;
  (* shared predicate [user] appears once *)
  Alcotest.(check int) "five predicates" 5 (List.length merged.Types.preds);
  Alcotest.(check int) "two invariants" 2 (List.length merged.Types.invariants);
  Alcotest.(check int) "three operations" 3
    (List.length merged.Types.operations)

let test_compose_finds_cross_app_conflict () =
  (* Chat's rem_user conflicts with Album's upload — only visible in the
     combined specification *)
  let album = parse album_src and chat = parse chat_src in
  Alcotest.(check int) "album alone is clean" 0
    (List.length (Ipa_core.Ipa.diagnose album));
  let merged = Compose.merge [ album; chat ] in
  let conflicts = Ipa_core.Ipa.diagnose merged in
  Alcotest.(check bool) "cross-application conflict found" true
    (List.exists
       (fun (o1, o2, _) ->
         (o1 = "rem_user" && o2 = "upload")
         || (o1 = "upload" && o2 = "rem_user"))
       conflicts)

let test_compose_rule_clash_rejected () =
  let album = parse album_src in
  let chat_rw =
    parse
      (Astring.String.cuts ~sep:"rule user: add-wins" chat_src
      |> String.concat "rule user: rem-wins")
  in
  match Compose.merge [ album; chat_rw ] with
  | exception Compose.Incompatible _ -> ()
  | _ -> Alcotest.fail "conflicting convergence rules must be rejected"

let test_compose_name_clash_qualified () =
  let album = parse album_src in
  let merged = Compose.merge [ album; album ] in
  (* the second copy's operation gets qualified *)
  Alcotest.(check bool) "qualified op name" true
    (Option.is_some (Types.find_op merged "Album.upload"))

(* ------------------------------------------------------------------ *)
(* Renderer round-trip: parse (render s) = s                           *)
(* ------------------------------------------------------------------ *)

let catalog_specs () =
  [
    ("tournament", Catalog.tournament ());
    ("twitter", Catalog.twitter ());
    ("ticket", Catalog.ticket ());
    ("tpcw", Catalog.tpcw ());
    ("tpcc", Catalog.tpcc ());
  ]

let check_roundtrip (name : string) (spec : Types.t) =
  let rendered = Render.to_string spec in
  match parse rendered with
  | reparsed ->
      if reparsed <> spec then
        Alcotest.failf "round-trip changed %s; rendered:@.%s" name rendered
  | exception e ->
      Alcotest.failf "rendered %s does not reparse (%s):@.%s" name
        (Printexc.to_string e) rendered

let test_roundtrip_catalog () =
  List.iter (fun (name, spec) -> check_roundtrip name spec) (catalog_specs ());
  (* Compose's qualified names [App.name] and a raw app name *)
  let album = parse album_src in
  let twice = Compose.merge ~name:"Album+Again" [ album; album ] in
  let rendered = Render.to_string twice in
  List.iter
    (fun affix ->
      Alcotest.(check bool) ("renders " ^ affix) true
        (Astring.String.is_infix ~affix rendered))
    [
      "app Album+Again";
      "invariant Album.owner_ref:";
      "operation Album.upload(";
    ];
  check_roundtrip "Album+Again" twice;
  (* qualifiers spelled with tokens of their own: TPC-C.add_item *)
  check_roundtrip "tpcw+tpcc"
    (Compose.merge [ Catalog.tpcw (); Catalog.tpcc () ])

(* the identity must hold on a whole neighbourhood of mutated specs,
   not just the hand-written catalog (negative deltas, toggled touch
   annotations, rotated rules, fresh consts/sorts) *)
let test_roundtrip_mutations seed =
  let rng = Ipa_sim.Rng.create seed in
  List.iter
    (fun (name, spec) ->
      for i = 1 to 25 do
        let m = Ipa_check.Specmut.mutations rng spec (1 + (i mod 4)) in
        check_roundtrip (Fmt.str "%s/mutant-%d" name i) m
      done)
    (catalog_specs ())

(* a rendered spec is stable: render (parse (render s)) = render s *)
let test_roundtrip_render_fixpoint () =
  List.iter
    (fun (name, spec) ->
      let r1 = Render.to_string spec in
      let r2 = Render.to_string (parse r1) in
      Alcotest.(check string) (name ^ " render fixpoint") r1 r2)
    (catalog_specs ())

(* [Specmut.grow] and [Specmut.edit_operation] feed the incremental
   benchmarks: every spec they produce must validate, [grow] must keep
   the signature (so a warm analysis context survives), and an edit must
   touch exactly the operation it names *)
let test_specmut_grow_edit seed =
  let rng = Ipa_sim.Rng.create seed in
  List.iter
    (fun (name, spec) ->
      let grown = Ipa_check.Specmut.grow rng spec 6 in
      Alcotest.(check int)
        (name ^ ": grow validates") 0
        (List.length (Validate.check grown));
      Alcotest.(check bool) (name ^ ": grow keeps signature") true
        (Types.signature grown = Types.signature spec);
      Alcotest.(check int)
        (name ^ ": grow adds the requested operations")
        (List.length spec.Types.operations + 6)
        (List.length grown.Types.operations);
      List.iter
        (fun (edited, what) ->
          Alcotest.(check int)
            (Fmt.str "%s: edit %s validates" name what)
            0
            (List.length (Validate.check edited));
          let changed =
            List.filter
              (fun (o : Types.operation) ->
                match Types.find_op grown o.oname with
                | Some o' -> o' <> o
                | None -> true)
              edited.Types.operations
          in
          Alcotest.(check int)
            (Fmt.str "%s: edit %s touches exactly one operation" name what)
            1 (List.length changed))
        (Ipa_check.Specmut.edit_stream rng grown 1))
    [ ("twitter", Catalog.twitter ()); ("ticket", Catalog.ticket ()) ]

let () =
  Alcotest.run "ipa_spec"
    [
      ( "parser",
        [
          Alcotest.test_case "minimal" `Quick test_parse_minimal;
          Alcotest.test_case "effects" `Quick test_parse_effects;
          Alcotest.test_case "multiline invariant" `Quick
            test_parse_multiline_invariant;
          Alcotest.test_case "tags" `Quick test_parse_tags;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "validate",
        [
          Alcotest.test_case "unknown pred in effect" `Quick
            test_validate_unknown_pred_in_effect;
          Alcotest.test_case "unknown pred in invariant" `Quick
            test_validate_unknown_pred_in_invariant;
          Alcotest.test_case "arity" `Quick test_validate_arity;
          Alcotest.test_case "unbound parameter" `Quick
            test_validate_unbound_param;
          Alcotest.test_case "numeric mismatch" `Quick
            test_validate_numeric_mismatch;
          Alcotest.test_case "free var invariant" `Quick
            test_validate_free_var_invariant;
          Alcotest.test_case "undeclared sort" `Quick
            test_validate_undeclared_sort;
          Alcotest.test_case "named const" `Quick test_validate_named_const_ok;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "all parse" `Quick test_catalog_all_parse;
          Alcotest.test_case "tournament shape" `Quick
            test_catalog_tournament_shape;
          Alcotest.test_case "signature" `Quick test_catalog_signature;
          Alcotest.test_case "ticket numeric" `Quick test_catalog_ticket_numeric;
          Alcotest.test_case "written preds" `Quick test_catalog_written_preds;
          Alcotest.test_case "invariant conjunction" `Quick
            test_invariant_formula_conjunction;
          Alcotest.test_case "pp operation" `Quick test_pp_operation;
        ] );
      ( "compose",
        [
          Alcotest.test_case "merge" `Quick test_compose_merge;
          Alcotest.test_case "cross-app conflict" `Quick
            test_compose_finds_cross_app_conflict;
          Alcotest.test_case "rule clash rejected" `Quick
            test_compose_rule_clash_rejected;
          Alcotest.test_case "name clash qualified" `Quick
            test_compose_name_clash_qualified;
        ] );
      ( "render round-trip",
        [
          Alcotest.test_case "catalog identity" `Quick test_roundtrip_catalog;
          Testutil.seeded_case "mutated specs" `Quick ~default:2024
            test_roundtrip_mutations;
          Testutil.seeded_case "grow/edit mutators" `Quick ~default:2024
            test_specmut_grow_edit;
          Alcotest.test_case "render fixpoint" `Quick
            test_roundtrip_render_fixpoint;
        ] );
    ]
