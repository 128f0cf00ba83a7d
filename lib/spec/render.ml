(** Render a specification back to [.ipa] concrete syntax.

    The output is re-parseable: [Spec_parser.parse_string (to_string s)]
    yields a spec structurally equal to [s] for every valid input (the
    property the round-trip tests assert on the catalog apps and on
    fuzzer-generated mutations).  In particular touch annotations are
    emitted in the parser's [effect touch] suffix form, invariants on a
    single line, and numeric declarations with their bounds. *)

open Ipa_logic
open Types

let pp_args ppf (args : string list) =
  Fmt.(list ~sep:(any ", ") string) ppf args

let pp_pred ppf (p : pred_decl) =
  match p.pkind with
  | Bool -> Fmt.pf ppf "predicate %s(%a)" p.pname pp_args p.psorts
  | Numeric { lo; hi } ->
      Fmt.pf ppf "numeric %s(%a) in [%d, %d]" p.pname pp_args p.psorts lo hi

let pp_invariant ppf (i : invariant) =
  let tag =
    match i.itag with
    | Some Tag_unique_id -> "[unique] "
    | Some Tag_sequential_id -> "[sequential] "
    | None -> ""
  in
  Fmt.pf ppf "invariant %s%s: %a" tag i.iname Pp.pp_formula i.iformula

let pp_effect ppf (ae : annotated_effect) =
  Fmt.pf ppf "%a%s" Types.pp_effect ae.eff
    (match ae.mode with Write -> "" | Touch -> " touch")

let pp_operation ppf (op : operation) =
  Fmt.pf ppf "operation %s(%a)" op.oname
    Fmt.(list ~sep:(any ", ") Pp.pp_tvar)
    op.oparams;
  List.iter (fun e -> Fmt.pf ppf "@\n  %a" pp_effect e) op.oeffects

let to_string (s : t) : string =
  let buf = Buffer.create 1024 in
  let ppf = Fmt.with_buffer buf in
  let line fmt = Fmt.pf ppf (fmt ^^ "@\n") in
  line "app %s" s.app_name;
  if s.sorts <> [] then line "";
  List.iter (fun srt -> line "sort %s" srt) s.sorts;
  if s.consts <> [] then line "";
  List.iter (fun (c, v) -> line "const %s = %d" c v) s.consts;
  if s.preds <> [] then line "";
  List.iter (fun p -> line "%a" pp_pred p) s.preds;
  if s.invariants <> [] then line "";
  List.iter (fun i -> line "%a" pp_invariant i) s.invariants;
  if s.rules <> [] then line "";
  List.iter
    (fun (p, r) -> line "rule %s: %s" p (conv_rule_to_string r))
    s.rules;
  List.iter (fun op -> line "" ; line "%a" pp_operation op) s.operations;
  Fmt.flush ppf ();
  Buffer.contents buf
