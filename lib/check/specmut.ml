(** Validity-preserving random specification mutations.

    Used by the parser/renderer round-trip property: the identity
    [parse ∘ render] must hold not just on the hand-written catalog
    specs but on a whole neighbourhood of structurally distinct specs
    around them.  Every mutation keeps the spec well-formed (it still
    passes [Validate.check]), exercising renderer paths the catalog
    alone would not: negative and zero deltas, touch annotations on
    arbitrary effects, every convergence rule, fresh consts and
    sorts. *)

open Ipa_spec.Types
open Ipa_sim

(* replace the [i]th element *)
let replace_nth (i : int) (f : 'a -> 'a) (l : 'a list) : 'a list =
  List.mapi (fun j x -> if j = i then f x else x) l

(* one validity-preserving perturbation of an operation's effect list;
   the name, parameters and spec signature are untouched *)
let perturb_op (rng : Rng.t) (op : operation) : operation =
  match op.oeffects with
  | [] -> op
  | effs -> (
      let ei = Rng.int rng (List.length effs) in
      match Rng.int rng 4 with
      | 0 ->
          (* flip a boolean assignment / negate a delta *)
          let flip (ae : annotated_effect) =
            let eff =
              match ae.eff.evalue with
              | Set b -> { ae.eff with evalue = Set (not b) }
              | Delta d -> { ae.eff with evalue = Delta (-d) }
            in
            { ae with eff }
          in
          { op with oeffects = replace_nth ei flip effs }
      | 1 ->
          (* toggle the touch annotation *)
          let toggle (ae : annotated_effect) =
            {
              ae with
              mode = (match ae.mode with Write -> Touch | Touch -> Write);
            }
          in
          { op with oeffects = replace_nth ei toggle effs }
      | 2 ->
          (* bump a delta (no-op for boolean effects) *)
          let bump (ae : annotated_effect) =
            match ae.eff.evalue with
            | Delta d -> { ae with eff = { ae.eff with evalue = Delta (d + 1) } }
            | Set _ -> ae
          in
          { op with oeffects = replace_nth ei bump effs }
      | _ ->
          (* duplicate an effect *)
          { op with oeffects = effs @ [ List.nth effs ei ] })

let mutate_operation (rng : Rng.t) (spec : t) : t =
  match spec.operations with
  | [] -> spec
  | ops ->
      let oi = Rng.int rng (List.length ops) in
      let mutate_op (op : operation) =
        match op.oeffects with
        | [] -> { op with oname = op.oname ^ "_m" }
        | _ -> perturb_op rng op
      in
      { spec with operations = replace_nth oi mutate_op ops }

let rotate_rule : conv_rule -> conv_rule = function
  | Add_wins -> Rem_wins
  | Rem_wins -> Lww
  | Lww -> Add_wins

(** Apply one random validity-preserving mutation. *)
let mutate (rng : Rng.t) (spec : t) : t =
  match Rng.int rng 5 with
  | 0 -> { spec with consts = spec.consts @ [ ("K_mut", Rng.int rng 10) ] }
  | 1 -> { spec with sorts = spec.sorts @ [ "MutSort" ] }
  | 2 when spec.rules <> [] ->
      let ri = Rng.int rng (List.length spec.rules) in
      {
        spec with
        rules = replace_nth ri (fun (p, r) -> (p, rotate_rule r)) spec.rules;
      }
  | 3 when spec.operations <> [] ->
      let oi = Rng.int rng (List.length spec.operations) in
      {
        spec with
        operations =
          replace_nth oi
            (fun (op : operation) -> { op with oname = op.oname ^ "_m" })
            spec.operations;
      }
  | _ -> mutate_operation rng spec

(** Apply [n] random mutations in sequence. *)
let mutations (rng : Rng.t) (spec : t) (n : int) : t =
  let rec go spec n = if n <= 0 then spec else go (mutate rng spec) (n - 1) in
  go spec n

(** [grow rng spec n] appends [n] operations cloned from existing ones
    under fresh names, with perturbed effects.  The signature (sorts,
    predicates, constants) is untouched, so analysis contexts survive:
    growing inflates the pair matrix — which is what the incremental
    edit-loop benchmark needs — without resembling a different
    application. *)
let grow (rng : Rng.t) (spec : t) (n : int) : t =
  match spec.operations with
  | [] -> spec
  | ops ->
      let base = Array.of_list ops in
      let clones =
        List.init n (fun i ->
            let src = base.(Rng.int rng (Array.length base)) in
            let src = perturb_op rng src in
            { src with oname = Fmt.str "%s_g%d" src.oname (i + 1) })
      in
      { spec with operations = ops @ clones }

(** [edit_operation rng spec] perturbs the effects of one randomly
    chosen operation {e in place} — name, parameters and signature
    preserved — modelling the canonical single-operation edit of an
    editing session.  Returns the edited spec and the operation's name
    (the empty string when nothing is editable).  Retries a few
    perturbations so the edit is a real change whenever one exists. *)
let edit_operation (rng : Rng.t) (spec : t) : t * string =
  match
    List.filter (fun (o : operation) -> o.oeffects <> []) spec.operations
  with
  | [] -> (spec, "")
  | editable ->
      let name =
        (List.nth editable (Rng.int rng (List.length editable))).oname
      in
      let edit () =
        List.map
          (fun (o : operation) ->
            if o.oname = name then perturb_op rng o else o)
          spec.operations
      in
      let rec try_ n =
        let ops' = edit () in
        if ops' <> spec.operations || n = 0 then ops' else try_ (n - 1)
      in
      ({ spec with operations = try_ 8 }, name)

(** [edit_stream rng spec k]: a session of [k] cumulative
    single-operation edits; element [i] is the spec after edits
    [0..i] together with the name of the operation edit [i] touched. *)
let edit_stream (rng : Rng.t) (spec : t) (k : int) : (t * string) list =
  let rec go spec k acc =
    if k <= 0 then List.rev acc
    else
      let spec', name = edit_operation rng spec in
      go spec' (k - 1) ((spec', name) :: acc)
  in
  go spec k []

(* Link-layout pad, ROADMAP (g); the twin of [Ground.layout_pad].
   Perfbench's store workloads run the store code linked after the
   perfbench helpers, whose size moves whenever an analysis interface
   they call changes.  This never-called function is sized so that the
   libraries linked after [ipa_check] ([ipa_apps] through [ipa_store])
   keep their offset mod 64: check [camlIpa_store__Replica.code_begin]
   with [nm -n] on the perfbench executable against the parent commit
   and resize or drop the pad whenever it moves. *)
let[@warning "-32"] layout_pad (x : int) (y : int) =
  (x * y) + (x lsl 3) - (y lxor x) + (x land y) - (y lsr 2)
