(* [Genie_core.Pipeline.run], stage by stage, with a span around each
   layer's public call. [Pipeline.run] exposes no per-stage timing, so the
   traced run composes the same calls with the same seeds itself; the
   caller checks the result against an untraced [Pipeline.run] (same
   corpus, same model digest), so this copy cannot drift unnoticed. *)

open Genie_thingtalk
module P = Genie_core.Pipeline
module Config = Genie_core.Config
module Example = Genie_dataset.Example
module Synth = Genie_synthesis.Engine

type counts = {
  memo_hits : int;  (** synthesis memo-cache hits, both synthesis runs *)
  memo_misses : int;
  collected : int;  (** paraphrases the simulated workers wrote *)
}

let programs derivations =
  List.filter_map
    (fun (d : Genie_templates.Derivation.t) ->
      match d.Genie_templates.Derivation.value with
      | Genie_templates.Derivation.V_frag (Ast.F_program p) ->
          Some (d.Genie_templates.Derivation.tokens, p)
      | _ -> None)
    derivations

let mk_examples ~source start pairs =
  List.mapi (fun i (tokens, program) -> Example.make ~id:(start + i) ~tokens ~program ~source ()) pairs

let run tr (g : Common.grammar) scale : P.artifacts * counts =
  let cfg = Common.pipeline_config scale in
  let seed = cfg.Config.seed in
  let lib = g.Common.lib in
  Trace.span tr "build" @@ fun () ->
  let grammar, (synthesized, st1) =
    Trace.span tr "synthesis.synthesize" (fun () ->
        let grammar =
          Genie_templates.Grammar.create lib ~prims:g.Common.prims ~rules:g.Common.rules
            ~rng:(Genie_util.Rng.create (seed + 10)) ~extra_terminals:[] ()
        in
        let ds, st =
          Synth.synthesize_derivations_stats grammar
            { Synth.default_config with
              seed = seed + 20;
              target_per_rule = cfg.Config.synth_target;
              max_depth = cfg.Config.synth_depth }
        in
        (grammar, (programs ds, st)))
  in
  let lm_programs, st2 =
    Trace.span tr "synthesis.lm_synthesize" (fun () ->
        let ds, st =
          Synth.synthesize_derivations_stats grammar
            { Synth.default_config with
              seed = seed + 30;
              target_per_rule = cfg.Config.lm_target;
              max_depth = cfg.Config.synth_depth }
        in
        (List.map snd (programs ds), st))
  in
  let crowd =
    Trace.span tr "crowd.collect" (fun () ->
        let selected =
          Genie_crowd.Pipeline.select
            { Genie_crowd.Pipeline.seed = seed + 40;
              compound_budget = cfg.Config.compound_paraphrase_budget;
              primitive_per_function = cfg.Config.primitive_per_function;
              easy_functions = Genie_thingpedia.Thingpedia.easy_functions;
              hard_functions = Genie_thingpedia.Thingpedia.hard_functions }
            synthesized
        in
        Genie_crowd.Pipeline.collect ~seed:(seed + 50) ~num_workers:cfg.Config.num_workers
          selected)
  in
  let paraphrases = crowd.Genie_crowd.Pipeline.accepted in
  let held_out_combos, base_examples, paraphrase_test_pairs =
    Trace.span tr "core.holdout" (fun () ->
        let rng = Genie_util.Rng.create (seed + 60) in
        let combos =
          List.sort_uniq compare
            (List.filter_map
               (fun (_, p) -> if Ast.is_primitive p then None else Some (P.combo_key p))
               paraphrases)
        in
        let held : (string, unit) Hashtbl.t = Hashtbl.create 64 in
        let n_hold =
          int_of_float (float_of_int (List.length combos) *. cfg.Config.holdout_fraction)
        in
        List.iter (fun c -> Hashtbl.replace held c ()) (Genie_util.Rng.sample rng n_hold combos);
        let held_out (p : Ast.program) = Hashtbl.mem held (P.combo_key p) in
        let test_pairs, para_train = List.partition (fun (_, p) -> held_out p) paraphrases in
        let synth_train = List.filter (fun (_, p) -> not (held_out p)) synthesized in
        ( held,
          mk_examples ~source:Example.Synthesized 0 synth_train
          @ mk_examples ~source:Example.Paraphrase 500_000 para_train,
          test_pairs ))
  in
  let with_ppdb, train =
    Trace.span tr "augment.expand" (fun () ->
        let gz = Genie_augment.Gazettes.create ~size:cfg.Config.gazette_size () in
        let rng = Genie_util.Rng.create (seed + 70) in
        let with_ppdb =
          List.map
            (fun (e : Example.t) ->
              match e.Example.source with
              | Example.Paraphrase ->
                  let protected = Genie_crowd.Worker.protected_tokens e.Example.program in
                  { e with Example.tokens = Genie_augment.Ppdb.augment rng ~protected e.Example.tokens }
              | _ -> e)
            base_examples
        in
        let expanded =
          Genie_augment.Expand.expand_dataset ~scale:cfg.Config.expansion_scale lib gz rng with_ppdb
        in
        (with_ppdb, List.map Example.strip_quotes expanded))
  in
  let model =
    Trace.span tr "parser_model.train" (fun () ->
        Genie_parser_model.Aligner.train
          ~cfg:{ (Config.aligner_config cfg) with Genie_parser_model.Aligner.lm_programs }
          lib train)
  in
  ( { P.cfg;
      lib;
      synthesized;
      paraphrases;
      paraphrase_rejected = crowd.Genie_crowd.Pipeline.rejected;
      paraphrase_collected = crowd.Genie_crowd.Pipeline.collected;
      lm_programs;
      train;
      train_before_expansion = with_ppdb;
      paraphrase_test =
        List.map Example.strip_quotes
          (mk_examples ~source:Example.Paraphrase 900_000 paraphrase_test_pairs);
      held_out_combos;
      model },
    { memo_hits = st1.Synth.cache_hits + st2.Synth.cache_hits;
      memo_misses = st1.Synth.cache_misses + st2.Synth.cache_misses;
      collected = crowd.Genie_crowd.Pipeline.collected } )

(* What must match between [run] and [Pipeline.run] on the same config. *)
let fingerprint (a : P.artifacts) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( a.P.synthesized,
            a.P.paraphrases,
            a.P.lm_programs,
            a.P.train,
            a.P.paraphrase_test,
            Genie_parser_model.Aligner.digest a.P.model )
          []))

(* The per-layer figures of one traced pipeline run. *)
let layer_metrics m tr (a : P.artifacts) (c : counts) =
  let spans = Trace.spans tr in
  let s name = Trace.total spans name in
  Common.put m "synthesis.synthesize_s" "s" (s "synthesis.synthesize");
  Common.put m "synthesis.lm_synthesize_s" "s" (s "synthesis.lm_synthesize");
  Common.put m "synthesis.pairs" "count" (float_of_int (List.length a.P.synthesized));
  Common.put m "synthesis.memo_hit_share" "ratio"
    (Common.share c.memo_hits (c.memo_hits + c.memo_misses));
  Common.put m "crowd.collect_s" "s" (s "crowd.collect");
  Common.put m "crowd.accept_share" "ratio"
    (Common.share (List.length a.P.paraphrases) c.collected);
  Common.put m "augment.expand_s" "s" (s "augment.expand");
  Common.put m "augment.expanded_examples" "count" (float_of_int (List.length a.P.train));
  Common.put m "parser_model.train_s" "s" (s "parser_model.train")
