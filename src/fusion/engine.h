// The knowledge-fusion engine: the three-stage architecture of Fig. 8 over
// a sharded claim graph. Stage I sweeps the item-partitioned shards and
// scores triples; Stage II sweeps the provenance cross-index and
// re-evaluates accuracies; the two iterate up to R rounds (VOTE needs one
// round). The item/provenance groupings are built ONCE
// (fusion/claim_graph.h) and swept every round — no per-round shuffle, no
// per-claim std::function dispatch. Stage III deduplication is inherent
// because claims reference interned unique triples.
//
// Determinism contract: for a fixed dataset, options, and shard count the
// result is bit-identical regardless of options.num_workers. Stage I
// writes disjoint per-triple slots (each triple lives in exactly one item
// group of one shard); Stage II reduces each provenance's claims in fixed
// cross-index order within a fixed block decomposition.
#ifndef KF_FUSION_ENGINE_H_
#define KF_FUSION_ENGINE_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/label.h"
#include "common/status.h"
#include "extract/dataset.h"
#include "fusion/claim_graph.h"
#include "fusion/options.h"
#include "fusion/scorer.h"

namespace kf::fusion {

struct FusionResult {
  /// Per unique triple (indexed by TripleId): predicted probability that
  /// the triple is true. Valid only where has_probability is set;
  /// provenance filtering can leave triples without a prediction
  /// (Section 4.3.2 reports 8.2% unpredicted under the coverage filter).
  std::vector<double> probability;
  std::vector<uint8_t> has_probability;
  /// Set where the probability came from the average-accuracy fallback
  /// (all provenances of the item were filtered by accuracy).
  std::vector<uint8_t> from_fallback;

  size_t num_rounds = 0;
  size_t num_provenances = 0;
  /// Provenances that never received a data-driven accuracy.
  size_t num_unevaluated_provenances = 0;

  /// Fraction of unique triples that received a probability.
  double Coverage() const;
};

/// The resolved schedule of one round loop (FusionEngine::RunRounds).
/// Internal, not an option: ResolveRoundPolicy derives it from
/// FusionOptions and its warm_start overrides.
struct RoundPolicy {
  /// Global number of the loop's first round: round-dependent behavior
  /// (the coverage filter's prefer-evaluated switch) continues the
  /// numbering of earlier runs.
  size_t first_round = 1;
  size_t max_rounds = 1;
  double epsilon = 0.0;
  double damping = 1.0;
  double quantile = 1.0;
  /// Whether round 1's Stage II delta may stop the loop: a warm run
  /// starts converged, a cold run's first delta never counts.
  bool converge_from_round1 = false;
};

/// The one place round policies are resolved:
///
///   field                 cold (Run)              warm (Refuse)
///   first_round           1                       rounds_run + 1
///   max_rounds            max_rounds              warm_start.max_rounds
///   epsilon               convergence_epsilon     warm_start.epsilon
///   damping               accuracy_damping        warm_start.damping
///   quantile              convergence_quantile    warm_start.quantile
///   converge_from_round1  false                   true
///
/// A warm_start field of 0 inherits the cold value. VOTE gets one round
/// either way (the loop stops it after Stage I). `rounds_run` is the
/// number of rounds the engine ran in earlier Run/Refuse calls.
RoundPolicy ResolveRoundPolicy(const FusionOptions& options, bool warm,
                               size_t rounds_run);

class FusionEngine {
 public:
  /// Observes probabilities after each round's Stage I (Fig. 14 traces).
  using RoundCallback = std::function<void(
      size_t round, const std::vector<double>& probability,
      const std::vector<uint8_t>& has_probability)>;

  /// Builds the claim graph (options.num_shards shards; 0 = auto).
  FusionEngine(const extract::ExtractionDataset& dataset,
               const FusionOptions& options);

  /// Makes a shard subset readable before the round loop sweeps it (the
  /// spill layer's residency hook). A non-OK Status aborts the loop.
  using EnsureFn = std::function<Status(const std::vector<uint32_t>& subset)>;

  /// Runs fusion. `gold` (triple labels) is required when
  /// options.init_accuracy_from_gold is set; otherwise it may be null.
  /// Records appended to the dataset since construction (or the previous
  /// Run) are ingested first via Refresh(). Prepare() followed by the
  /// cold-policy RunRounds() over one subset holding every shard.
  FusionResult Run(const std::vector<Label>* gold = nullptr,
                   const RoundCallback& callback = RoundCallback());

  /// The one round loop (Fig. 8), shared by cold runs, warm re-fusion and
  /// budgeted runs. Each round is BeginStageI, then for every subset
  /// {ensure → SweepStageI → AccumulateStageII}, then FinishStageII;
  /// the loop stops after policy.max_rounds rounds or once the Stage II
  /// delta falls below policy.epsilon. `subsets` must partition the
  /// shard set; resident callers pass {AllShards()} and no `ensure`.
  /// Sets result->num_rounds (rounds of this loop) and
  /// num_unevaluated_provenances. `result` must come from
  /// Prepare()/PrepareWarm().
  Status RunRounds(const RoundPolicy& policy,
                   const std::vector<std::vector<uint32_t>>& subsets,
                   const EnsureFn& ensure, FusionResult* result,
                   const RoundCallback& callback = RoundCallback());

  /// Every shard id, ascending: the one subset of a resident round.
  std::vector<uint32_t> AllShards() const;

  // ---- single-stage entry points ----
  // Building blocks of the round loop, exposed for the per-stage
  // benchmarks and for callers that drive rounds themselves. Call
  // Prepare() before StageI/StageII.

  /// Re-syncs the claim graph with the dataset, rebuilding only shards
  /// touched by appended records. Returns the number of shards rebuilt.
  size_t Refresh();
  /// Ingests appended records, (re)initializes provenance accuracies, and
  /// returns an empty result sized for the current dataset.
  FusionResult Prepare(const std::vector<Label>* gold = nullptr);
  /// Warm-start companion to Prepare(): re-syncs the graph but KEEPS the
  /// current provenance accuracies (appended provenances enter at the
  /// default accuracy) instead of re-initializing them. The streaming
  /// re-fusion entry point (Fuser::Refuse / kf::Session::Refuse).
  FusionResult PrepareWarm();
  /// One Stage I sweep: scores every qualified item group into `result`.
  /// BeginStageI + SweepStageI(AllShards()).
  void StageI(size_t round, FusionResult* result);
  /// One Stage II sweep: re-evaluates provenance accuracies against
  /// `result` under the options' accuracy_damping, and returns the
  /// options' convergence_quantile of the per-provenance accuracy changes
  /// (the largest change under the default quantile 1).
  double StageII(const FusionResult& result);
  /// Same sweep with explicit damping/quantile — the warm re-fusion entry
  /// point (WarmStartOptions may override both without rebuilding the
  /// engine). Preconditions as Validate(): damping in (0,1], quantile in
  /// (0,1].
  double StageII(const FusionResult& result, double damping,
                 double quantile);

  // ---- subset decompositions (the steps of RunRounds) ----
  // StageI == BeginStageI + SweepStageI over all shards; StageII ==
  // BeginStageII + AccumulateStageII over all shards + FinishStageII.
  // The round loop calls the Begin steps once per round, then sweeps and
  // accumulates each shard subset of its plan — one subset holding every
  // shard when resident, the spill manager's subsets when budgeted.
  // Every triple lives in one shard and every accumulator slot belongs
  // to one segment, so any disjoint subset decomposition — like any
  // worker count — produces bits identical to the one-shot sweep.

  /// Freezes the per-round Stage I tables (log-odds, theta mask, the
  /// round's filter regime) and clears the result masks.
  void BeginStageI(size_t round, FusionResult* result);
  /// Sweeps the given shards (each must be resident or mapped). Subsets
  /// across one round must partition the shard set. The subset is
  /// ordered largest-first (stable) and cut into tasks of at least
  /// kMinSweepClaimsPerTask claims: big shards become singleton tasks
  /// started first, the small-shard tail is batched. The schedule
  /// depends only on the subset's shard sizes, never on the workers.
  void SweepStageI(const std::vector<uint32_t>& shard_ids,
                   FusionResult* result);
  /// Sizes and zeroes the per-segment Stage II accumulators.
  void BeginStageII(const FusionResult& result);
  /// Folds the prov segments of the given shards into their accumulator
  /// slots. Subsets across one round must partition the shard set.
  void AccumulateStageII(const std::vector<uint32_t>& shard_ids,
                         const FusionResult& result);
  /// Merges the per-segment accumulators per provenance in directory
  /// order, applies the damped accuracy update, and returns the quantile
  /// delta (see StageII). Releases the accumulators.
  double FinishStageII(double damping, double quantile);

  /// Restores an evicted shard's columns resident, bit-identical to what
  /// eviction released (ClaimGraph::RematerializeShard over the engine's
  /// dataset). The spill layer's recovery path when a shard file turns
  /// out corrupt or unreadable: discard the file, rebuild from memory.
  void RematerializeShard(uint32_t s) {
    graph_.RematerializeShard(dataset_, s);
  }

  // ---- introspection ----
  const ClaimGraph& graph() const { return graph_; }
  /// Mutable graph access for the spill layer's residency control
  /// (ReleaseShardColumns / AttachShardColumns between sweeps). Not for
  /// structural mutation — the engine owns the build/update lifecycle.
  ClaimGraph& mutable_graph() { return graph_; }
  const FusionOptions& options() const { return options_; }
  size_t num_provenances() const { return graph_.num_provs(); }
  size_t num_claims() const { return graph_.num_claims(); }
  const std::vector<double>& provenance_accuracy() const { return accuracy_; }
  /// Per provenance: whether the accuracy is data-driven (vs. default).
  const std::vector<uint8_t>& provenance_evaluated() const {
    return evaluated_;
  }
  /// Number of claims of each provenance.
  const std::vector<uint32_t>& provenance_claims() const {
    return graph_.prov_claims();
  }
  /// Wall-clock micros the last Stage I spent sweeping each shard
  /// (indexed by shard id; empty before the first sweep). Shards are hash
  /// partitions of the data items, so claim counts — and these times —
  /// can be heavily skewed; the sweep schedule orders shards largest-
  /// first so the skew costs wall-clock only once, and this vector makes
  /// it observable.
  const std::vector<uint32_t>& shard_sweep_micros() const {
    return shard_sweep_micros_;
  }

 private:
  void InitAccuracies(const std::vector<Label>* gold);
  FusionResult EmptyResult() const;
  /// `score_in_place` requests the zero-copy path: item groups are scored
  /// straight off the shard's columns (no ItemClaimsBuffer assembly).
  /// Only valid when no filter is active (theta <= 0, no coverage
  /// filter) and the scorer is table-driven or VOTE; oversized groups
  /// (> sample_cap) still take the assembly path for reservoir sampling.
  /// Reads the column view, so resident and mmap-backed shards score
  /// through the same code.
  void SweepShard(const ShardColumns& cols, double theta,
                  bool prefer_evaluated, bool score_in_place,
                  FusionResult* result) const;

  const extract::ExtractionDataset& dataset_;
  FusionOptions options_;
  ClaimGraph graph_;
  std::unique_ptr<Scorer> scorer_;

  std::vector<double> accuracy_;
  /// Whether the provenance's accuracy is data-driven (vs. still default).
  std::vector<uint8_t> evaluated_;

  // ---- per-round Stage I tables (accuracies are frozen during a sweep) --
  /// Per provenance: the scorer's frozen per-claim log-odds term (empty
  /// when the scorer has none, i.e. VOTE).
  std::vector<double> log_odds_;
  /// Per provenance: accuracy_[p] >= theta, precomputed when theta > 0
  /// (empty otherwise) so the filter is a byte test per claim.
  std::vector<uint8_t> theta_pass_;
  /// Round regime frozen by BeginStageI: whether post-round-1 sweeps
  /// prefer evaluated provenances, and whether the zero-copy in-place
  /// path applies.
  bool stage1_prefer_evaluated_ = false;
  bool stage1_in_place_ = false;

  // ---- Stage II per-segment accumulators (BeginStageII..Finish) ----
  // Indexed by global segment id (ClaimGraph::prov_segments). The
  // canonical Stage II reduction is two-level: per-segment partial sums
  // folded per provenance in directory order, which is what makes
  // subset-at-a-time accumulation bit-identical to the one-shot sweep.
  std::vector<double> seg_sum_;
  std::vector<uint32_t> seg_cnt_;
  /// Raw eligible values, kept only for provenances whose claim count
  /// exceeds sample_cap: their reservoir sample must be drawn from the
  /// full concatenated value sequence, not from partial sums.
  std::vector<std::vector<float>> seg_values_;

  std::vector<uint32_t> shard_sweep_micros_;  // by shard id, last sweep
};

/// Convenience wrapper: construct + run.
FusionResult Fuse(const extract::ExtractionDataset& dataset,
                  const FusionOptions& options,
                  const std::vector<Label>* gold = nullptr);

}  // namespace kf::fusion

#endif  // KF_FUSION_ENGINE_H_
