(* Randomized, depth-bounded synthesis by sampling (paper section 3.1),
   sharded for domain parallelism.

   Exhaustive enumeration grows exponentially with depth and library size, so
   the engine samples a configurable number of derivations per construct
   template; the budget decreases exponentially with depth. Low-depth
   derivations provide breadth; the smaller number of high-depth derivations
   adds variance and expands the set of recognized programs.

   Parallel determinism contract. The expansion frontier of one depth is
   split into one shard per enabled construct template (the shard id also
   encodes the depth and, through the rule's semantic function, the
   Thingpedia class it draws from). Each shard is a pure function of
   (grammar, config, depth, rule index): it derives its own RNG from
   [shard_seed], samples against the previous depths' tables (shared
   read-only across domains — the coordinator only writes between depths),
   dedups locally, and memoizes its semantic-function applications in a
   per-shard cache keyed by the structural hash of the sub-derivations.
   The coordinator then merges shard outputs in canonical rule order,
   dedups globally, and sorts every (non-terminal, depth) bucket by
   {!Derivation.sort_key}. Nothing observable depends on worker count,
   scheduling, hash-table iteration order, or retry timing — so the corpus
   is byte-identical at any [workers] setting, and an injected shard crash
   followed by a retry reproduces the exact same shard output (the RNG is
   never derived from the attempt number). *)

open Genie_templates
module Fault = Genie_conc.Fault
module Pool = Genie_conc.Pool
module Hash64 = Genie_util.Hash64

type config = {
  max_depth : int;
  target_per_rule : int; (* target derivations per rule at depth 1 *)
  seed : int;
  (* which template subsets to use (the per-template boolean flag of the
     paper); [`Training] includes Both + Training_only, etc. *)
  purpose : [ `Training | `Paraphrase ];
}

let default_config = { max_depth = 5; target_per_rule = 200; seed = 1; purpose = `Training }

type stats = {
  shards : int;
  shard_retries : int;
  cache_hits : int;
  cache_misses : int;
  merged : int;
  deduped : int;
  merge_ns : float;
  total_ns : float;
}

let flag_enabled purpose (f : Grammar.flag) =
  match (purpose, f) with
  | _, Grammar.Both -> true
  | `Training, Grammar.Training_only -> true
  | `Paraphrase, Grammar.Paraphrase_only -> true
  | _ -> false

(* Table entries carry the derivation's structural hash, computed once when
   the bucket is merged: shards combine child hashes into memo-cache keys on
   every sampling attempt, and recomputing the hash there would reprint the
   semantics each time. *)
type entry = { ed : Derivation.t; ehash : int64 }

type table = (string * int, entry array) Hashtbl.t

let derivs (tbl : table) cat depth : entry array =
  try Hashtbl.find tbl (cat, depth) with Not_found -> [||]

(* All derivations of [cat] with depth in [0, max_depth]. *)
let derivs_upto tbl cat max_depth =
  let out = ref [] in
  for d = 0 to max_depth do
    out := !out @ List.map (fun e -> e.ed) (Array.to_list (derivs tbl cat d))
  done;
  !out

let literal_tokens lit = Genie_util.Tok.tokenize lit

let rule_tokens (rule : Grammar.rule) (children : Derivation.t list) =
  let rec go rhs children acc =
    match (rhs, children) with
    | [], [] -> List.rev acc
    | Grammar.L lit :: rest, cs -> go rest cs (List.rev_append (literal_tokens lit) acc)
    | Grammar.N _ :: rest, c :: cs ->
        go rest cs (List.rev_append c.Derivation.tokens acc)
    | Grammar.N _ :: _, [] -> invalid_arg "rule_tokens: arity mismatch"
    | [], _ :: _ -> invalid_arg "rule_tokens: arity mismatch"
  in
  go rule.Grammar.rhs children []

let nonterminals rule =
  List.filter_map (function Grammar.N c -> Some c | Grammar.L _ -> None) rule.Grammar.rhs

(* One sampling attempt for [rule] at [depth]: at least one child must have
   depth exactly [depth - 1]. *)
let sample_children rng tbl rule depth : entry list option =
  let nts = nonterminals rule in
  if nts = [] then None
  else begin
    let n = List.length nts in
    let forced = Genie_util.Rng.int rng n in
    let pick i cat =
      if i = forced then
        let arr = derivs tbl cat (depth - 1) in
        if Array.length arr = 0 then None else Some (Genie_util.Rng.pick_array rng arr)
      else begin
        (* uniform over depths < depth that are populated *)
        let choices = ref [] in
        for d = 0 to depth - 1 do
          if Array.length (derivs tbl cat d) > 0 then choices := d :: !choices
        done;
        match !choices with
        | [] -> None
        | ds ->
            let d = Genie_util.Rng.pick rng ds in
            Some (Genie_util.Rng.pick_array rng (derivs tbl cat d))
      end
    in
    let rec go i cats acc =
      match cats with
      | [] -> Some (List.rev acc)
      | cat :: rest -> (
          match pick i cat with
          | None -> None
          | Some d -> go (i + 1) rest (d :: acc))
    in
    go 0 nts []
  end

let apply_rule rule children depth : Derivation.t option =
  match rule.Grammar.sem children with
  | None -> None
  | Some { Grammar.value; tokens_override } ->
      let tokens =
        match tokens_override with
        | Some toks -> toks
        | None -> rule_tokens rule children
      in
      Some
        { Derivation.tokens;
          value;
          depth;
          fns = List.concat_map (fun c -> c.Derivation.fns) children }

(* A shard-accepted derivation with everything the merge needs precomputed:
   the global dedup identity [afull] = lhs ^ "|" ^ key and its 64-bit hash,
   plus the bucket decoration (sort key, structural hash). All of it is a
   pure function of the derivation's content, so computing it inside the
   shard moves the string work onto the parallel domains and leaves the
   coordinator's merge with integer-keyed probes and a sort over
   ready-made keys. *)
type accepted = {
  ad : Derivation.t;
  afull : string;
  ahash : int64;
  asort : string;
  aehash : int64;
}

let accept (rule_lhs : string) (d : Derivation.t) (dkey : string) : accepted =
  let afull = rule_lhs ^ "|" ^ dkey in
  let asort, aehash = Derivation.decorate_keyed d dkey in
  { ad = d; afull; ahash = Hash64.string 0L afull; asort; aehash }

(* The dedup set: keyed by the 64-bit hash of the full dedup identity, with
   exact-string confirmation on the (rare) hash collision — so long
   "lhs|key" strings are hashed once, in the shard, instead of on every
   probe, and dedup semantics stay exact. *)
module Dedup = struct
  type t = (int64, string list) Hashtbl.t

  let create n : t = Hashtbl.create n

  let mem (t : t) h full =
    match Hashtbl.find_opt t h with
    | Some l -> List.mem full l
    | None -> false

  let add (t : t) h full =
    match Hashtbl.find_opt t h with
    | Some l -> Hashtbl.replace t h (full :: l)
    | None -> Hashtbl.replace t h [ full ]
end

(* Bucket order is by structural sort key, precomputed in the shards. *)
let sort_bucket (ds : accepted list) : entry array =
  let keyed =
    Array.of_list (List.map (fun a -> (a.asort, { ed = a.ad; ehash = a.aehash })) ds)
  in
  Array.sort (fun (a, _) (b, _) -> String.compare a b) keyed;
  Array.map snd keyed

(* The shard RNG is a pure function of (corpus seed, depth, rule index) —
   never of the worker id or the attempt number, so a shard re-run after an
   injected crash replays the identical sample sequence. *)
let shard_seed ~seed ~depth ~rule_i =
  Int64.to_int
    (Int64.shift_right_logical
       (Hash64.int (Hash64.int (Hash64.int 0L seed) depth) rule_i)
       2)

type shard_out = {
  out_accepted : accepted list;
      (* in acceptance order; [Derivation.key] was printed once at accept
         time, and its dedup/sort decorations ride along for the merge *)
  out_attempts : int;
  out_hits : int;
  out_misses : int;
  out_start_ns : float;  (* wall clock of the attempt that produced this *)
  out_dur_ns : float;
}

(* One shard: sample [rule] at [depth] against the read-only tables built
   for depths < depth. [seen] holds the dedup keys of every derivation kept
   at lower depths; shards only read it (the coordinator updates it at
   merge time, between depths). The memo cache short-circuits the semantic
   function (and token assembly) when the same children tuple is sampled
   again — apply_rule is deterministic, so memoization is observationally
   transparent. *)
let run_shard ~use_cache (tbl : table) (seen : Dedup.t) (cfg : config)
    (rule : Grammar.rule) ~depth ~rule_i : shard_out =
  let start_ns = Genie_observe.Tracer.now_ns () in
  let rng = Genie_util.Rng.create (shard_seed ~seed:cfg.seed ~depth ~rule_i) in
  let budget =
    Genie_util.Rng.budget_for_depth ~target:cfg.target_per_rule ~depth:(depth - 1)
  in
  (* extra attempts compensate for semantic-function rejections *)
  let max_attempts = budget * 3 in
  let local_seen = Dedup.create 64 in
  (* the memo caches the whole decorated candidate: printing the semantics
     for dedup costs more than the semantic function itself, so a hit skips
     the semantic function, the printing, and the dedup/sort hashing *)
  let memo : (int64, accepted option) Hashtbl.t = Hashtbl.create 256 in
  let build children =
    Option.map
      (fun d -> accept rule.Grammar.lhs d (Derivation.key d))
      (apply_rule rule (List.map (fun c -> c.ed) children) depth)
  in
  let hits = ref 0 and misses = ref 0 in
  let accepted = ref [] and n_accepted = ref 0 and attempt = ref 0 in
  while !n_accepted < budget && !attempt < max_attempts do
    incr attempt;
    match sample_children rng tbl rule depth with
    | None -> ()
    | Some children -> (
        let produced =
          if use_cache then begin
            let k =
              List.fold_left
                (fun h c -> Hash64.combine h c.ehash)
                (Hash64.int 0L rule_i) children
            in
            match Hashtbl.find_opt memo k with
            | Some r ->
                incr hits;
                r
            | None ->
                incr misses;
                let r = build children in
                Hashtbl.replace memo k r;
                r
          end
          else build children
        in
        match produced with
        | None -> ()
        | Some a ->
            if
              not
                (Dedup.mem seen a.ahash a.afull
                || Dedup.mem local_seen a.ahash a.afull)
            then begin
              Dedup.add local_seen a.ahash a.afull;
              incr n_accepted;
              accepted := a :: !accepted
            end)
  done;
  { out_accepted = List.rev !accepted;
    out_attempts = !attempt;
    out_hits = !hits;
    out_misses = !misses;
    out_start_ns = start_ns;
    out_dur_ns = Genie_observe.Tracer.now_ns () -. start_ns }

(* With a tracer, each depth gets a span (request = depth) with one child
   per construct template recording accepted/attempted counts and shard
   cache statistics, timed by the shard attempt that produced them, a
   [merge] child recording kept/deduped counts, and one
   [shard.retry] child per injected-fault retry (sorted by (shard, attempt)
   so the trace is independent of completion order). Span identity is
   (tracer seed, depth, seq, name), so seeded corpus runs trace identically
   at any worker count. *)
let synthesize_derivations_stats ?(tracer = Genie_observe.Tracer.disabled)
    ?(workers = 0) ?(fault = Fault.none) ?(cache = true) ?(max_attempts = 3)
    (g : Grammar.t) (cfg : config) : Derivation.t list * stats =
  let module Tracer = Genie_observe.Tracer in
  let module Span = Genie_observe.Span in
  let now () = Tracer.now_ns () in
  let start_ns = now () in
  let tbl : table = Hashtbl.create 64 in
  let seen = Dedup.create 4096 in
  (* depth 0: terminals, deduplicated and bucket-sorted like every other
     depth so the canonical corpus order never depends on construction
     order. *)
  Hashtbl.iter
    (fun cat ds ->
      let kept =
        List.filter_map
          (fun d ->
            let a = accept cat d (Derivation.key d) in
            if Dedup.mem seen a.ahash a.afull then None
            else begin
              Dedup.add seen a.ahash a.afull;
              Some a
            end)
          ds
      in
      Hashtbl.replace tbl (cat, 0) (sort_bucket kept))
    g.Grammar.terminals;
  let rules =
    List.filter (fun r -> flag_enabled cfg.purpose r.Grammar.flag) g.Grammar.rules
  in
  let n_rules = List.length rules in
  let indexed = List.mapi (fun i r -> (i, r)) rules in
  let total_retries = ref 0 in
  let total_hits = ref 0 and total_misses = ref 0 in
  let total_merged = ref 0 and total_deduped = ref 0 in
  let merge_ns = ref 0.0 in
  for depth = 1 to cfg.max_depth do
    let depth_start = now () in
    let depth_accepted = ref 0 in
    let depth_span_id =
      Span.id_of ~seed:(Tracer.seed tracer) ~request:depth ~attempt:0 ~seq:0
        ~name:"depth"
    in
    (* Shard id: global over the whole run, so a fault schedule names one
       specific (depth, rule) shard regardless of worker count. *)
    let shard_id rule_i = ((depth - 1) * n_rules) + rule_i in
    let fault_hook =
      if Fault.active fault then
        Some
          (fun ~index ~attempt ->
            let id = shard_id index in
            if Fault.crashes fault ~id ~attempt then Some Fault.Injected_crash
            else if Fault.drops fault ~id ~attempt then Some Fault.Injected_drop
            else None)
      else None
    in
    let retries = ref [] in
    let on_retry ~index ~attempt e =
      retries := (index, attempt, Printexc.to_string e) :: !retries
    in
    let outs =
      Pool.map_list ~workers ~max_attempts ?fault_hook ~on_retry
        ~handler:(fun _slot (rule_i, rule) ->
          run_shard ~use_cache:cache tbl seen cfg rule ~depth ~rule_i)
        indexed
    in
    (* Deterministic merge: shards in canonical rule order, global dedup,
       then each (non-terminal, depth) bucket sorted by structural key. *)
    let merge_start = now () in
    let deduped_before = !total_deduped and merged_before = !total_merged in
    let produced : (string, accepted list ref) Hashtbl.t = Hashtbl.create 16 in
    List.iter2
      (fun (_rule_i, rule) out ->
        List.iter
          (fun a ->
            if Dedup.mem seen a.ahash a.afull then incr total_deduped
            else begin
              Dedup.add seen a.ahash a.afull;
              incr total_merged;
              let cell =
                match Hashtbl.find_opt produced rule.Grammar.lhs with
                | Some c -> c
                | None ->
                    let c = ref [] in
                    Hashtbl.replace produced rule.Grammar.lhs c;
                    c
              in
              cell := a :: !cell
            end)
          out.out_accepted)
      indexed outs;
    Hashtbl.iter
      (fun cat ds -> Hashtbl.replace tbl (cat, depth) (sort_bucket !ds))
      produced;
    let merge_end = now () in
    merge_ns := !merge_ns +. (merge_end -. merge_start);
    let depth_retries =
      List.sort compare !retries
    in
    total_retries := !total_retries + List.length depth_retries;
    List.iter2
      (fun (rule_i, rule) out ->
        depth_accepted := !depth_accepted + List.length out.out_accepted;
        total_hits := !total_hits + out.out_hits;
        total_misses := !total_misses + out.out_misses;
        if Tracer.enabled tracer then
          Tracer.record tracer ~slot:0
            (Span.v ~seed:(Tracer.seed tracer) ~request:depth
               ~seq:(rule_i + 1) ~parent:depth_span_id
               ~attrs:
                 [ ("rule", rule.Grammar.lhs);
                   ("accepted", string_of_int (List.length out.out_accepted));
                   ("attempts", string_of_int out.out_attempts);
                   ("cache_hits", string_of_int out.out_hits);
                   ("cache_misses", string_of_int out.out_misses) ]
               ~start_ns:out.out_start_ns ~dur_ns:out.out_dur_ns "template"))
      indexed outs;
    if Tracer.enabled tracer then begin
      Tracer.record tracer ~slot:0
        (Span.v ~seed:(Tracer.seed tracer) ~request:depth
           ~seq:(n_rules + 1) ~parent:depth_span_id
           ~attrs:
             [ ("kept", string_of_int (!total_merged - merged_before));
               ("deduped", string_of_int (!total_deduped - deduped_before)) ]
           ~start_ns:merge_start
           ~dur_ns:(merge_end -. merge_start)
           "merge");
      List.iteri
        (fun j (rule_i, attempt, err) ->
          Tracer.record tracer ~slot:0
            (Span.v ~seed:(Tracer.seed tracer) ~request:depth
               ~seq:(n_rules + 2 + j) ~parent:depth_span_id
               ~attrs:
                 [ ("shard", string_of_int (shard_id rule_i));
                   ("attempt", string_of_int attempt);
                   ("error", err) ]
               ~start_ns:depth_start
               ~dur_ns:0.0
               "shard.retry"))
        depth_retries;
      Tracer.record tracer ~slot:0
        (Span.v ~seed:(Tracer.seed tracer) ~request:depth ~seq:0
           ~attrs:
             [ ("rules", string_of_int n_rules);
               ("accepted", string_of_int !depth_accepted) ]
           ~start_ns:depth_start
           ~dur_ns:(now () -. depth_start)
           "depth")
    end
  done;
  let stats =
    { shards = cfg.max_depth * n_rules;
      shard_retries = !total_retries;
      cache_hits = !total_hits;
      cache_misses = !total_misses;
      merged = !total_merged;
      deduped = !total_deduped;
      merge_ns = !merge_ns;
      total_ns = now () -. start_ns }
  in
  (derivs_upto tbl g.Grammar.start cfg.max_depth, stats)

let synthesize_derivations ?tracer ?workers ?fault ?cache ?max_attempts g cfg =
  fst (synthesize_derivations_stats ?tracer ?workers ?fault ?cache ?max_attempts g cfg)

(* The per-depth corpus digest the golden files and the CI smoke check: a
   Hash64 fold over the structural sort keys of the depth's derivations, in
   corpus order. Any reordering, missing pair or changed pair changes it. *)
let corpus_digest ds ~depth =
  let at = List.filter (fun d -> d.Derivation.depth = depth) ds in
  let h =
    List.fold_left (fun h d -> Hash64.string h (Derivation.sort_key d)) 0L at
  in
  (List.length at, Hash64.to_hex h)

(* The synthesized (sentence tokens, program) pairs. *)
let synthesize ?tracer ?workers ?fault ?cache ?max_attempts (g : Grammar.t)
    (cfg : config) : (string list * Genie_thingtalk.Ast.program) list =
  List.filter_map
    (fun (d : Derivation.t) ->
      match d.value with
      | Derivation.V_frag (Genie_thingtalk.Ast.F_program p) -> Some (d.Derivation.tokens, p)
      | _ -> None)
    (synthesize_derivations ?tracer ?workers ?fault ?cache ?max_attempts g cfg)

(* Programs only, for pretraining the decoder language model on a much larger
   program space (section 4.2). *)
let synthesize_programs ?tracer ?workers ?fault ?cache ?max_attempts
    (g : Grammar.t) (cfg : config) : Genie_thingtalk.Ast.program list =
  List.map snd (synthesize ?tracer ?workers ?fault ?cache ?max_attempts g cfg)

(* TACL policies (a grammar with start symbol "policy"). *)
let synthesize_policies ?tracer ?workers ?fault ?cache ?max_attempts
    (g : Grammar.t) (cfg : config) :
    (string list * Genie_thingtalk.Ast.policy) list =
  List.filter_map
    (fun (d : Derivation.t) ->
      match d.value with
      | Derivation.V_frag (Genie_thingtalk.Ast.F_policy p) -> Some (d.Derivation.tokens, p)
      | _ -> None)
    (synthesize_derivations ?tracer ?workers ?fault ?cache ?max_attempts g cfg)
