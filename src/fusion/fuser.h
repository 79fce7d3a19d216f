// The uniform fusion-method interface behind kf::Session and the method
// registry (fusion/registry.h). Every method — the three engine methods
// (VOTE / ACCU / POPACCU), the four data-fusion baselines, and the
// Section 5 extensions — runs behind this interface, so callers select
// methods by name through one code path instead of hand-wiring divergent
// free-function signatures.
//
// A Fuser may keep state across calls: the engine-backed fuser holds the
// sharded claim graph and the converged provenance accuracies of the last
// Run(), which is what makes warm-start Refuse() possible after a dataset
// append. Fusers are NOT thread-safe; share one per session, not across
// threads.
#ifndef KF_FUSION_FUSER_H_
#define KF_FUSION_FUSER_H_

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/label.h"
#include "common/status.h"
#include "extract/dataset.h"
#include "fusion/engine.h"
#include "fusion/options.h"
#include "kb/value_hierarchy.h"

namespace kf::fusion {

/// Side inputs some methods need beyond the dataset and options: gold
/// labels (semi-supervised initialization, confidence recalibration) and
/// the value containment DAG (hierarchy-aware fusion). Pointers are
/// borrowed for the duration of one call.
struct FuseContext {
  /// Per-unique-triple labels, sized dataset.num_triples(). Required when
  /// options.init_accuracy_from_gold is set and by "confidence_weighted".
  const std::vector<Label>* gold = nullptr;
  /// Required by the "hierarchy" method.
  const kb::ValueHierarchy* hierarchy = nullptr;
};

class Fuser {
 public:
  virtual ~Fuser() = default;

  /// The registry name this fuser was created under ("popaccu", ...).
  virtual std::string_view name() const = 0;

  /// Method-specific requirements beyond FusionOptions::Validate — e.g.
  /// "confidence_weighted" needs ctx.gold, "hierarchy" needs
  /// ctx.hierarchy. Checked by kf::Session before every Run.
  virtual Status ValidateContext(const extract::ExtractionDataset& dataset,
                                 const FusionOptions& options,
                                 const FuseContext& ctx) const {
    (void)dataset;
    (void)options;
    (void)ctx;
    return Status::OK();
  }

  /// Cold fusion: (re)builds all internal state from scratch and runs the
  /// method to convergence. An error Status (I/O failure the budgeted
  /// path could not recover from, see kf::spill's degradation ladder)
  /// leaves the fuser with no usable warm state; callers must treat it
  /// like a fuser that never ran.
  virtual Result<FusionResult> Run(const extract::ExtractionDataset& dataset,
                                   const FusionOptions& options,
                                   const FuseContext& ctx) = 0;

  /// Whether Refuse() can warm-start from a previous Run().
  virtual bool SupportsWarmStart() const { return false; }

  /// The retained engine state of the last Run(), for callers that need
  /// the claim graph's item/provenance groupings and the converged
  /// accuracies behind the result (kf::Session::Snapshot builds the
  /// fused-KB view from it). Null before any Run() and for stateless
  /// (baseline / extension) methods — this accessor, not friend access
  /// into the engine's vectors, is the supported way to read fused state.
  virtual const FusionEngine* engine() const { return nullptr; }

  /// Warm-start re-fusion after records were appended to `dataset` (which
  /// must be the same object a previous Run() fused): engine-backed
  /// methods re-sync the claim graph incrementally, seed Stage I from the
  /// previous run's provenance accuracies, and iterate only until
  /// reconvergence (options.warm_start caps). The default implementation
  /// reports the method as not warm-startable.
  virtual Result<FusionResult> Refuse(
      const extract::ExtractionDataset& dataset) {
    (void)dataset;
    return Status::FailedPrecondition(
        std::string(name()) + " does not support warm-start re-fusion; "
        "run a cold Fuse() instead");
  }
};

/// What a budgeted engine fuser adds around the round loop: control over
/// which shards are readable. kf::spill implements it (kf_fusion does not
/// depend on kf_spill); a resident EngineFuser has none and sweeps one
/// subset holding every shard.
class RoundResidency {
 public:
  virtual ~RoundResidency() = default;
  /// Checks beyond the fuser's own (e.g. a budget is set and the spill
  /// destination is usable).
  virtual Status ValidateContext(const FusionOptions& options) const = 0;
  /// Drops every hold on the current engine's graph. Called before a cold
  /// Run replaces the engine, and when a Run fails.
  virtual void Detach() = 0;
  /// Syncs with `engine`'s graph after Prepare (`warm` false: take it
  /// over) or PrepareWarm (`warm` true: re-sync the shards the append
  /// rebuilt), then plans subsets() for the round loop.
  virtual Status Attach(FusionEngine* engine, bool warm) = 0;
  /// The planned shard subsets; they partition the shard set.
  virtual const std::vector<std::vector<uint32_t>>& subsets() const = 0;
  /// Makes exactly `subset` readable before the loop sweeps it.
  virtual Status EnsureOnly(const std::vector<uint32_t>& subset) = 0;
  /// Ends the round loop (e.g. maps every shard for Snapshot).
  virtual Status Finish() = 0;
};

/// The engine-backed fuser for VOTE / ACCU / POPACCU, resident or
/// budgeted: it keeps the engine between calls, so Refuse() warm-starts
/// from the converged accuracies of the previous Run()/Refuse(). Both
/// calls resolve their RoundPolicy (ResolveRoundPolicy) and run the
/// engine's one round loop, through `residency` when one is given.
/// A failed Run() leaves no warm state (Refuse() then fails its
/// precondition); a failed Refuse() keeps the engine and its round count.
class EngineFuser : public Fuser {
 public:
  explicit EngineFuser(Method method,
                       std::unique_ptr<RoundResidency> residency = nullptr);

  std::string_view name() const override;
  Status ValidateContext(const extract::ExtractionDataset& dataset,
                         const FusionOptions& options,
                         const FuseContext& ctx) const override;
  Result<FusionResult> Run(const extract::ExtractionDataset& dataset,
                           const FusionOptions& options,
                           const FuseContext& ctx) override;
  bool SupportsWarmStart() const override { return true; }
  const FusionEngine* engine() const override {
    return engine_ ? &*engine_ : nullptr;
  }
  Result<FusionResult> Refuse(
      const extract::ExtractionDataset& dataset) override;

 private:
  /// Resolves the policy and runs the round loop over `result`.
  Status RunRounds(bool warm, FusionResult* result);
  /// Back to the never-ran state.
  void Forget();

  Method method_;
  std::optional<FusionEngine> engine_;
  /// Declared after engine_: destroyed first, so its holds on the graph
  /// (spill mappings) go before the graph does.
  std::unique_ptr<RoundResidency> residency_;
  const extract::ExtractionDataset* dataset_ = nullptr;
  /// Total Stage I sweeps across Run + Refuse calls (round numbering).
  size_t rounds_run_ = 0;
};

}  // namespace kf::fusion

#endif  // KF_FUSION_FUSER_H_
