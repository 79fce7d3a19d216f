// The budgeted engine fuser: fusion::EngineFuser — the same engine, round
// loop and round policies as the resident fuser — driven through a
// SpillResidency. The only difference is that each round sweeps and
// accumulates the spill plan's subsets, with the spill manager making
// each subset readable first. Because the engine's subset decomposition
// is bit-identical to the one-subset resident sweep for any disjoint
// subset cover, the results are bit-identical to the resident fuser's
// for every budget and worker count.
#include <functional>

#include "common/failpoint.h"
#include "common/memprobe.h"
#include "common/string_util.h"
#include "fusion/fuser.h"
#include "spill/spill.h"

namespace kf::spill {

namespace {

using fusion::FusionOptions;

/// The spill manager and subset plan behind a budgeted fuser's rounds.
class SpillResidency final : public fusion::RoundResidency {
 public:
  Status ValidateContext(const FusionOptions& options) const override {
    if (options.memory_budget_bytes == 0) {
      return Status::InvalidArgument(
          "out-of-core fusion requires memory_budget_bytes > 0");
    }
    // Surface spill-destination problems as a Status before any work;
    // faults that strike mid-run go through the manager's degradation
    // ladder (retry → quarantine+rematerialize → resident fallback) and
    // only reach the caller as a Status when every rung fails.
    return ProbeSpillDir(options.spill_dir);
  }

  // The manager holds mappings the engine's graph references: it must go
  // before the engine (and with it the graph) is replaced.
  void Detach() override { manager_.reset(); }

  Status Attach(fusion::FusionEngine* engine, bool warm) override {
    const FusionOptions& opts = engine->options();
    if (warm) {
      // PrepareWarm brought the dirty shards back resident (rebuilt from
      // the always-resident record lists — no disk reads); invalidate
      // their stale files before the plan is recut for the new sizes.
      manager_->Reconcile();
    } else {
      ShardSpillManager::Options mo;
      mo.budget_bytes = opts.memory_budget_bytes;
      mo.spill_dir = opts.spill_dir;
      mo.rematerialize = MakeRematerializeHook(engine);
      Result<std::unique_ptr<ShardSpillManager>> mgr =
          ShardSpillManager::Create(&engine->mutable_graph(), mo);
      if (!mgr.ok()) return mgr.status();
      manager_ = std::move(*mgr);
    }
    plan_ = PlanSubsets(engine->graph(), opts.memory_budget_bytes);
    rss_ = PeakRssTracker();
    return Status::OK();
  }

  const std::vector<std::vector<uint32_t>>& subsets() const override {
    return plan_.subsets;
  }

  Status EnsureOnly(const std::vector<uint32_t>& subset) override {
    rss_.Sample();  // the footprint the previous subset's sweep left
    return manager_->EnsureOnly(subset);
  }

  Status Finish() override {
    rss_.Sample();
    // End state: every shard on disk and mapped, so Snapshot /
    // ForEachClaim read zero-copy while the columns stay reclaimable
    // (or fully resident when the run degraded).
    KF_RETURN_IF_ERROR(manager_->MapAll());
    rss_.Sample();
    peak_rss_ = rss_.PeakBytes();
    return Status::OK();
  }

  const SpillStats& stats() const {
    static const SpillStats kEmpty;
    return manager_ ? manager_->stats() : kEmpty;
  }
  const SpillPlan& plan() const { return plan_; }
  size_t peak_rss() const { return peak_rss_; }

 private:
  /// The manager's recovery hook: rebuilds an evicted shard's columns
  /// bit-identical from the engine's always-resident record lists. A
  /// failpoint site of its own so tests can exhaust the whole ladder
  /// (spill.remat armed = even recovery fails → clean Status).
  static std::function<Status(uint32_t)> MakeRematerializeHook(
      fusion::FusionEngine* engine) {
    return [engine](uint32_t s) -> Status {
      if (const int e = fault::Inject("spill.remat")) {
        return Status::FromErrno("rematerialize shard",
                                 StrFormat("%u", s), e);
      }
      engine->RematerializeShard(s);
      return Status::OK();
    };
  }

  std::unique_ptr<ShardSpillManager> manager_;
  SpillPlan plan_;
  PeakRssTracker rss_;
  size_t peak_rss_ = 0;
};

/// EngineFuser plus read access to its spill counters. Adds no fusion
/// behavior: Run/Refuse are EngineFuser's.
class OutOfCoreFuser final : public fusion::EngineFuser,
                             public OutOfCoreIntrospection {
 public:
  explicit OutOfCoreFuser(fusion::Method method)
      : OutOfCoreFuser(method, new SpillResidency) {}

  const SpillStats& spill_stats() const override { return spill_->stats(); }
  const SpillPlan& spill_plan() const override { return spill_->plan(); }
  size_t round_loop_peak_rss() const override { return spill_->peak_rss(); }

 private:
  // EngineFuser owns the residency; spill_ reads it for the fuser's life.
  OutOfCoreFuser(fusion::Method method, SpillResidency* spill)
      : EngineFuser(method, std::unique_ptr<fusion::RoundResidency>(spill)),
        spill_(spill) {}

  const SpillResidency* spill_;
};

}  // namespace

std::unique_ptr<fusion::Fuser> MakeOutOfCoreFuser(fusion::Method method) {
  return std::make_unique<OutOfCoreFuser>(method);
}

}  // namespace kf::spill
