(* The offline workload: templates to a trained parser plus its exported
   training corpus, then exact-match evaluation on a fixed held-out slice.
   No socket: the net and runtime layers do nothing here.

   Set-up is loading Thingpedia, the templates and the parameter gazettes
   the corpus export draws from. The timed build is
   [Pipeline.run], the streamed export of the training seeds
   ([Stream.corpus_to_spill], seeded by the run's seed) and its read-back
   through [Dataset.Reader]; the export must equal the in-memory corpus. *)

open Common
module P = Genie_core.Pipeline
module Stream = Genie_synthesis.Stream

type params = {
  scale : float;
  setups : int;
  seconds : float;  (** an untraced run builds and evaluates until this has passed *)
  eval_n : int;
  seed : int;
  corrupt : bool;
  dir : string;  (** scratch directory for the spilled corpus *)
}

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let set_up p =
  let g = load_grammar () in
  (g, Genie_augment.Gazettes.create ~size:(pipeline_config p.scale).Genie_core.Config.gazette_size ())

let spill p gz (a : P.artifacts) =
  match
    Stream.corpus_to_spill ~workers:2 ~expand_scale:a.P.cfg.Genie_core.Config.expansion_scale
      ~spill:{ Stream.dir = p.dir; threshold = 4096 }
      a.P.lib gz ~seed:p.seed a.P.train_before_expansion
  with
  | Ok st -> st
  | Error e -> raise (Check_failed ("corpus export failed: " ^ e))

let read_back p =
  match Genie_dataset.Reader.digest_file (Filename.concat p.dir Stream.corpus_file) with
  | Ok r -> r
  | Error e -> raise (Check_failed ("corpus read-back failed: " ^ e))

(* spill == memory == read-back, or the run fails *)
let check_corpus p gz (a : P.artifacts) (st : Stream.stats) (read_n, read_d) =
  let mem_n, mem_d =
    Stream.corpus_digest
      (Stream.corpus_records ~workers:2 ~expand_scale:a.P.cfg.Genie_core.Config.expansion_scale
         a.P.lib gz ~seed:p.seed a.P.train_before_expansion)
  in
  let mem_d = if p.corrupt then "0" ^ mem_d else mem_d in
  check (st.Stream.st_digest = mem_d && st.Stream.st_records = mem_n)
    "spilled corpus %s/%d differs from the in-memory corpus %s/%d" st.Stream.st_digest
    st.Stream.st_records mem_d mem_n;
  check (read_d = mem_d && read_n = mem_n) "read-back corpus differs from the in-memory corpus"

let corpus_mb p =
  float_of_int (Unix.stat (Filename.concat p.dir Stream.corpus_file)).Unix.st_size /. 1048576.0

let run ~trace p (m : metrics) =
  let setup_s = List.init p.setups (fun _ -> snd (timed (fun () -> set_up p))) in
  let g, gz = set_up p in
  remove_tree p.dir;
  Fun.protect ~finally:(fun () -> remove_tree p.dir) @@ fun () ->
  if not trace then begin
    (* Passes of build then evaluation repeat for [seconds], at least
       three, and every figure is a median over them, so each spans the
       run. Every pass builds from the same seeds, so it must export the
       same corpus and score the same; the first is checked against the
       in-memory corpus. *)
    let on_sentence, sentence_medians = parse_times () in
    let pass ~first =
      Gc.compact ();
      remove_tree p.dir;
      let t0 = now () in
      let a = run_pipeline g p.scale in
      let st = spill p gz a in
      let back = read_back p in
      let build_s = now () -. t0 in
      if first then check_corpus p gz a st back;
      let slice = eval_slice a p.eval_n in
      let em, eval_s = timed (fun () -> evaluate ~on_sentence a slice) in
      (List.length slice, st, back, build_s, em, eval_s)
    in
    let deadline = now () +. p.seconds in
    let ((slice_n, st, back, _, em, _) as first) = pass ~first:true in
    let rec more acc =
      if List.length acc >= 3 && now () >= deadline then List.rev acc
      else more (pass ~first:false :: acc)
    in
    let passes = more [ first ] in
    List.iter
      (fun (_, st', back', _, em', _) ->
        check
          (st'.Stream.st_digest = st.Stream.st_digest && back' = back)
          "passes exported different corpora";
        check
          (Genie_parser_model.Eval.digest em' = Genie_parser_model.Eval.digest em)
          "passes scored differently on the held-out slice")
      passes;
    let per_pass f = median_l (List.map f passes) in
    let eval_s = per_pass (fun (_, _, _, _, _, t) -> t) in
    let lat = sentence_medians () in
    put m "setup_s" "s" (median_l setup_s);
    put m "latency_p50_ms" "ms" (median lat);
    put m "latency_p90_ms" "ms" (percentile lat 90.0);
    put m "capacity_rps" "1/s" (float_of_int slice_n /. eval_s);
    put m "ok_share" "ratio" (share (fst back) st.Stream.st_records);
    put m "build_s" "s" (per_pass (fun (_, _, _, t, _, _) -> t));
    put m "eval_s" "s" eval_s;
    put m "exact_match" "ratio" em.Genie_parser_model.Eval.program_accuracy;
    put m "peak_rss_mb" "MB" (peak_rss_mb ());
    (List.length passes * (slice_n + st.Stream.st_records), 0)
  end
  else begin
    (* untraced reference first, then the same pipeline stage by stage *)
    let reference, plain_s = timed (fun () -> run_pipeline g p.scale) in
    let reference = Stages.fingerprint reference in
    Gc.compact ();
    let tr = Trace.create ~on:true in
    let (a, counts), traced_s = timed (fun () -> Stages.run tr g p.scale) in
    check (Stages.fingerprint a = reference) "staged pipeline differs from Pipeline.run";
    put m "trace.overhead_share" "ratio" ((traced_s -. plain_s) /. plain_s);
    Stages.layer_metrics m tr a counts;
    let st = Trace.span tr "dataset.spill" (fun () -> spill p gz a) in
    let back = Trace.span tr "dataset.read" (fun () -> read_back p) in
    check_corpus p gz a st back;
    let spans = Trace.spans tr in
    put m "dataset.spill_s" "s" (Trace.total spans "dataset.spill");
    put m "dataset.spill_mb" "MB" (corpus_mb p);
    put m "dataset.read_s" "s" (Trace.total spans "dataset.read");
    put m "dataset.records" "count" (float_of_int (fst back));
    let slice = eval_slice a p.eval_n in
    Trace.span tr "parser_model.eval" (fun () ->
        let parent = Trace.current tr in
        ignore
          (evaluate a slice ~on_sentence:(fun _ dt ->
               let stop = now () in
               Trace.add tr ~parent "parser_model.eval_predict" ~start:(stop -. dt) ~stop)));
    let spans = Trace.spans tr in
    let predict = Trace.durs spans "parser_model.eval_predict" in
    put m "parser_model.eval_predict_ms" "ms" (mean predict *. 1e3);
    put m "parser_model.predicts" "count" (float_of_int (Array.length predict));
    put m "parser_model.predict_p50_ms" "ms" (median predict *. 1e3);
    put m "parser_model.predict_p95_ms" "ms" (percentile predict 95.0 *. 1e3);
    (* the build span's self time: work between stages no layer claims *)
    let build = List.hd (Trace.named spans "build") in
    let self = List.assoc build (Trace.with_self spans) in
    put m "trace.unexplained_share" "ratio" (self /. Trace.dur build);
    put m "trace.overhead_iqr" "ratio" 0.0;
    List.iter
      (fun name -> put m name "ms" 0.0)
      [ "net.queue_wait_p50_ms"; "net.overhead_p50_ms"; "net.send_lag_p95_ms";
        "serve.engine_p50_ms"; "serve.engine_p95_ms"; "parser_model.decode_rank_ms";
        "parser_model.decode_beam_ms"; "parser_model.decode_slots_ms" ];
    List.iter
      (fun name -> put m name "us" 0.0)
      [ "net.codec_us"; "serve.tokenize_us"; "runtime.exec_us_first"; "runtime.exec_us_last" ];
    List.iter
      (fun name -> put m name "ratio" 0.0)
      [ "net.completion_ratio"; "serve.cache_hit_share"; "runtime.compile_hit_share";
        "net.self_share"; "serve.self_share"; "parser_model.self_share"; "runtime.self_share" ];
    List.iter
      (fun name -> put m name "count" 0.0)
      [ "net.batch_size_mean"; "runtime.notifications_per_exec" ];
    (List.length slice + st.Stream.st_records, 0)
  end
