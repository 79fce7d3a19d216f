// spill-fuse: the paper's batch use under a memory budget. One main
// thread repeats, closed loop, the pipeline
//
//   store::LoadCorpusFile -> kf::Session::Fuse(POPACCU, 2 workers)
//     -> Session::Snapshot -> FusedKB::ToBinary + extract::WriteFile
//
// over a scale-1 corpus image written in set-up, with
// memory_budget_bytes at a quarter of the claim graph's spillable bytes,
// so the spill layer and the store's shard files do the work. Its result
// must equal the fully resident one bit for bit.
//
// The image is written without fsync (FusedKB::ExportBinary would fsync
// through store::AtomicFileWriter): the benchmark may only write inside
// its checkout, whose disk is shared, and a flush there would measure the
// disk rather than the program. The spill layer still fsyncs its shard
// files; that cost is part of the workload.
//
// build_ms is the whole pipeline; publish_ms its publish step (snapshot
// and export). The loop runs for --seconds and at least kMinPipelines
// times. After each pipeline, outside its timing, the benchmark compares
// the KB with the resident reference run, now and then re-imports the
// exported image, and serves point lookups from the fresh KB as its
// consumer would (lookup_us, closed loop).
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/memprobe.h"
#include "common/threadpool.h"
#include "eval/pr_curve.h"
#include "extract/tsv_io.h"
#include "fusion/engine.h"
#include "fusion/options.h"
#include "harness.h"
#include "inputs.h"
#include "kf/fused_kb.h"
#include "kf/session.h"
#include "store/store.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kScale = 1.0;
constexpr size_t kFuseWorkers = 2;
constexpr double kSpillBudgetShare = 0.25;
/// Set-up runs this many times per run; setup_s is the median. Single
/// set-ups of one process now and then run a third faster than the rest,
/// which a median of three does not absorb.
constexpr int kSetupRepeats = 5;
constexpr size_t kLookupsPerPipeline = 256;
constexpr size_t kPinnedLookups = 200000;
/// In the traced run, every this many pipelines (traced ones) is followed
/// by a standalone FusionEngine replay.
constexpr uint64_t kReplayEvery = 10;
/// Pipelines timed per run at least, so publish_ms_p90 has ten samples
/// beyond it (this, not --seconds, sets the run length on a 4-core host).
constexpr size_t kMinPipelines = 100;
/// Every this many pipelines the exported image is re-imported and
/// compared (the first timed one included).
constexpr uint64_t kImportCheckEvery = 25;

/// One load -> fuse -> snapshot -> export pass, with its stage times.
struct Pipeline {
  bool ok = false;
  std::string error;
  kf::fusion::FusionResult result;
  std::optional<kf::FusedKB> kb;
  std::optional<kf::spill::SpillStats> spill;
  int64_t total_ns = 0;
  int64_t publish_ns = 0;  // snapshot + export
};

Pipeline RunPipeline(const std::string& image, const std::string& out,
                     const kf::fusion::FusionOptions& options,
                     Tracer* tracer, uint64_t request) {
  Pipeline p;
  const int64_t start = NowNs();
  // The root span ends with the export, like total_ns: tearing down the
  // loaded corpus is not part of the timed pipeline.
  const uint32_t root = tracer->Begin("pipeline", Tracer::kNoParent, request);

  kf::Result<kf::extract::TsvCorpus> corpus = [&] {
    Scope s(tracer, "store.load_corpus", root, request);
    return kf::store::LoadCorpusFile(image);
  }();
  if (!corpus.ok()) {
    p.error = "load: " + corpus.status().ToString();
    return p;
  }
  kf::Session session = kf::Session::Borrow(corpus->dataset);
  kf::Result<kf::fusion::FusionResult> fused = [&] {
    Scope s(tracer, "kf.fuse", root, request);
    return session.Fuse(options);
  }();
  if (!fused.ok()) {
    p.error = "fuse: " + fused.status().ToString();
    return p;
  }
  const int64_t publish_start = NowNs();
  kf::Result<kf::FusedKB> kb = [&] {
    Scope s(tracer, "kf.snapshot", root, request);
    return session.Snapshot(kf::SnapshotNaming::FromCorpus(*corpus));
  }();
  if (!kb.ok()) {
    p.error = "snapshot: " + kb.status().ToString();
    return p;
  }
  kf::Status exported = [&] {
    Scope s(tracer, "store.export_kb", root, request);
    return kf::extract::WriteFile(out, kb->ToBinary());
  }();
  if (!exported.ok()) {
    p.error = "export: " + exported.ToString();
    return p;
  }
  tracer->End(root);
  const int64_t end = NowNs();
  p.total_ns = end - start;
  p.publish_ns = end - publish_start;
  if (const kf::spill::SpillStats* st = session.spill_stats()) p.spill = *st;
  p.result = std::move(fused).value();
  p.kb.emplace(std::move(kb).value());
  p.ok = true;
  return p;
}

bool SameResult(const kf::fusion::FusionResult& a,
                const kf::fusion::FusionResult& b) {
  return a.probability.size() == b.probability.size() &&
         std::memcmp(a.probability.data(), b.probability.data(),
                     a.probability.size() * sizeof(double)) == 0 &&
         a.has_probability == b.has_probability &&
         a.num_rounds == b.num_rounds;
}

size_t SpillableBytes(const std::string& image,
                      const kf::fusion::FusionOptions& options) {
  kf::Result<kf::extract::TsvCorpus> corpus =
      kf::store::LoadCorpusFile(image);
  if (!corpus.ok()) return 0;
  kf::fusion::FusionEngine engine(corpus->dataset, options);
  size_t bytes = 0;
  for (size_t s = 0; s < engine.graph().num_shards(); ++s) {
    bytes += engine.graph().shard(s).SpillableBytes();
  }
  return bytes;
}

/// The fusion-layer split of the traced run: Session::Fuse replayed on a
/// standalone FusionEngine, round by round as FusionEngine::Run drives
/// it, with a span around every engine call. Replays are interleaved with
/// the traced pipelines so both see the same machine.
struct Replay {
  Samples fusion_ms;  // build_graph + prepare + all rounds, per replay
  Samples skew;
  size_t rounds = 0;
  size_t claims = 0;
  size_t shards = 0;
};

void ReplayFusion(const std::string& image,
                  const kf::fusion::FusionOptions& options,
                  const kf::fusion::FusionResult& expected, Tracer* tracer,
                  Outcome* outcome, Replay* out) {
  // Freshly loaded, like the pipeline's corpus, so caches match.
  kf::Result<kf::extract::TsvCorpus> corpus =
      kf::store::LoadCorpusFile(image);
  if (!corpus.ok()) {
    outcome->Check(false, "replay load: " + corpus.status().ToString());
    return;
  }
  const int64_t start = NowNs();
  std::optional<kf::fusion::FusionEngine> engine;
  {
    Scope s(tracer, "fusion.build_graph");
    engine.emplace(corpus->dataset, options);
  }
  kf::fusion::FusionResult result = [&] {
    Scope s(tracer, "fusion.prepare");
    return engine->Prepare();
  }();
  for (size_t round = 1; round <= options.max_rounds; ++round) {
    {
      Scope s(tracer, "fusion.stage1");
      engine->StageI(round, &result);
    }
    result.num_rounds = round;
    double delta = 0;
    {
      Scope s(tracer, "fusion.stage2");
      delta = engine->StageII(result);
    }
    if (round > 1 && delta < options.convergence_epsilon) break;
  }
  out->fusion_ms.Add(static_cast<double>(NowNs() - start) / 1e6);
  outcome->Check(SameResult(result, expected),
                 "standalone FusionEngine replay differs from Session::Fuse");

  const std::vector<uint32_t>& micros = engine->shard_sweep_micros();
  double max = 0, sum = 0;
  for (uint32_t m : micros) {
    max = std::max<double>(max, m);
    sum += m;
  }
  if (sum > 0) out->skew.Add(max / (sum / static_cast<double>(micros.size())));
  out->rounds = result.num_rounds;
  out->claims = engine->num_claims();
  out->shards = engine->graph().num_shards();
}

}  // namespace

int RunSpillFuse(const Args& args) {
  Report report;
  Outcome outcome;
  Tracer tracer(args.trace);

  kf::fusion::FusionOptions resident = kf::fusion::FusionOptions::PopAccu();
  resident.num_workers = kFuseWorkers;
  kf::fusion::FusionOptions options = resident;

  // ---- set-up: corpus generation and the image, several times ----
  Samples setup_s;
  BatchInputs in;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const int64_t start = NowNs();
    in = MakeBatchInputs(args.seed, kScale);
    options.memory_budget_bytes = static_cast<size_t>(
        kSpillBudgetShare *
        static_cast<double>(SpillableBytes(in.image_path, resident)));
    options.spill_dir = RunDir() + "/spill";
    setup_s.Add(static_cast<double>(NowNs() - start) / 1e9);
  }
  std::printf("corpus: %zu records, %zu triples; budget %zu bytes\n",
              in.records, in.triples, options.memory_budget_bytes);

  // ---- reference run (also warms the worker pool and caches) ----
  const std::string out_path = RunDir() + "/kb.kfkb";
  Tracer off(false);
  Pipeline ref = RunPipeline(in.image_path, out_path, resident, &off, 0);
  outcome.Record("pipeline", ref.ok, ref.error);
  if (!ref.ok) return report.Finish(outcome, {});
  const double pr_auc =
      kf::eval::AucPr(ref.result.probability, ref.result.has_probability,
                      in.gold);
  const std::vector<Key> keys = WinnerKeys(*ref.kb, args.seed);
  const std::vector<uint32_t> draws =
      ZipfDraws(keys.size(), kZipfS, 1 << 16, args.seed + 1);
  Pipeline warm = RunPipeline(in.image_path, out_path, options, &off, 0);
  outcome.Record("pipeline", warm.ok, warm.error);
  outcome.Check(warm.ok && *warm.kb == *ref.kb,
                "budgeted warm-up differs from the resident run");

  // ---- timed phase ----
  Replay replay;
  Samples build_ms, publish_ms, lookup_us, traced_ms, untraced_ms;
  std::optional<kf::spill::SpillStats> last_spill;
  size_t draw = 0;
  uint64_t lookups = 0, lookup_misses = 0;
  const size_t threads_before = kf::ThreadPool::TotalThreadsCreated();
  const double cpu_before = CpuMs();
  kf::PeakRssTracker rss;
  const int64_t phase_start = NowNs();
  const int64_t deadline =
      phase_start + static_cast<int64_t>(args.seconds * 1e9);
  uint64_t n = 0;
  while (NowNs() < deadline || n < kMinPipelines) {
    ++n;
    // The traced run alternates traced and untraced pipelines so the
    // tracing overhead is measured within one process.
    const bool traced = tracer.enabled() && n % 2 == 0;
    Pipeline p =
        RunPipeline(in.image_path, out_path, options, traced ? &tracer : &off, n);
    rss.Sample();
    outcome.Record("pipeline", p.ok, p.error);
    if (!p.ok) continue;
    build_ms.Add(static_cast<double>(p.total_ns) / 1e6);
    publish_ms.Add(static_cast<double>(p.publish_ns) / 1e6);
    (traced ? traced_ms : untraced_ms).Add(static_cast<double>(p.total_ns) / 1e6);
    if (p.spill) last_spill = p.spill;

    outcome.Check(*p.kb == *ref.kb, "pipeline KB differs from the reference");
    if (traced && n % kReplayEvery == 0) {
      ReplayFusion(in.image_path, resident, ref.result, &tracer, &outcome,
                   &replay);
    }
    if (n % kImportCheckEvery == 1) {
      kf::Result<kf::FusedKB> back = kf::FusedKB::ImportBinary(out_path);
      outcome.Check(back.ok() && *back == *p.kb,
                    "exported image does not re-import to an equal KB");
    }
    // The consumer of the batch output: point lookups on the fresh KB.
    for (size_t i = 0; i < kLookupsPerPipeline; ++i) {
      const Key& key = keys[draws[draw++ % draws.size()]];
      const int64_t t0 = NowNs();
      std::optional<kf::KbVerdict> v = p.kb->Lookup(key.first, key.second);
      const int64_t t1 = NowNs();
      ++lookups;
      // A miss counts as exceeding any latency limit.
      const bool hit = v && v->has_probability;
      lookup_misses += !hit;
      lookup_us.Add(hit ? static_cast<double>(t1 - t0) / 1e3
                        : std::numeric_limits<double>::infinity());
    }
  }
  const double phase_ms = static_cast<double>(NowNs() - phase_start) / 1e6;
  const double cpu_ms = CpuMs() - cpu_before;
  const size_t threads_created =
      kf::ThreadPool::TotalThreadsCreated() - threads_before;
  const size_t peak_rss = rss.PeakBytes();
  outcome.Add("lookup", lookups, lookup_misses);
  outcome.Check(threads_created == 0, "fusion created pool threads");
  std::printf("timed phase: %.0f ms, %llu pipelines\n", phase_ms,
              static_cast<unsigned long long>(n));

  const size_t image_bytes = FileBytes(out_path);
  if (!args.trace) {
    report.Set("setup_s", setup_s.Median(), "s", setup_s.size());
    report.Set("build_ms_p50", build_ms.Median(), "ms", build_ms.size());
    report.Set("peak_rss_mb", static_cast<double>(peak_rss) / 1e6, "MB");
    report.Set("kb_image_mb", static_cast<double>(image_bytes) / 1e6, "MB");
    report.Set("pr_auc", pr_auc, "ratio");
    report.SetTiming("publish_ms", publish_ms, 0.90, "ms");
    report.SetTiming("lookup_us", lookup_us, 0.99, "us");
    return report.Finish(outcome, EndToEndMetrics());
  }

  // ---- traced run: per-layer numbers ----
  kf::Result<kf::FusedKB> pinned = kf::FusedKB::ImportBinary(out_path);
  double lookup_ns = 0;
  if (pinned.ok()) {
    size_t hits = 0;
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < kPinnedLookups; ++i) {
      const Key& key = keys[draws[i % draws.size()]];
      hits += pinned->Lookup(key.first, key.second).has_value();
    }
    lookup_ns = static_cast<double>(NowNs() - t0) / kPinnedLookups;
    outcome.Check(hits == kPinnedLookups, "pinned lookups missed");
  }

  const double load = tracer.DurationsMs("store.load_corpus").Median();
  const double exp = tracer.DurationsMs("store.export_kb").Median();
  const double fuse = tracer.DurationsMs("kf.fuse").Median();
  const double snap = tracer.DurationsMs("kf.snapshot").Median();
  const double fusion = replay.fusion_ms.Median();
  const double traced_p50 = traced_ms.Median();
  const double unaccounted = tracer.SelfMs("pipeline").Median();
  report.Set("store.load_corpus_ms", load, "ms");
  report.Set("store.export_kb_ms", exp, "ms");
  report.Set("store.kb_image_bytes", static_cast<double>(image_bytes), "bytes");
  report.Set("fusion.build_graph_ms",
             tracer.DurationsMs("fusion.build_graph").Median(), "ms");
  report.Set("fusion.claims", static_cast<double>(replay.claims), "count");
  report.Set("fusion.shards", static_cast<double>(replay.shards), "count");
  report.Set("fusion.prepare_ms", tracer.DurationsMs("fusion.prepare").Median(),
             "ms");
  report.Set("fusion.stage1_ms", tracer.DurationsMs("fusion.stage1").Median(),
             "ms");
  report.Set("fusion.stage2_ms", tracer.DurationsMs("fusion.stage2").Median(),
             "ms");
  report.Set("fusion.rounds", static_cast<double>(replay.rounds), "count");
  report.Set("fusion.stage1_skew", replay.skew.Median(), "ratio");
  report.Set("kf.fuse_ms", fuse, "ms");
  report.Set("kf.snapshot_ms", snap, "ms");
  report.Set("kf.refuse_ms", 0, "ms");
  report.Set("kf.refuse_rounds", 0, "count");
  report.Set("kf.publish_ms", 0, "ms");
  report.Set("kf.publish_build_ms", 0, "ms");
  report.Set("kf.reader_refresh_us_p50", 0, "us");
  report.Set("kf.reader_refresh_us_max", 0, "us");
  report.Set("kf.reader_refreshes", 0, "count");
  report.Set("kf.lookup_ns", lookup_ns, "ns");
  const kf::spill::SpillStats sp = last_spill.value_or(kf::spill::SpillStats{});
  report.Set("spill.bytes_written_mb",
             static_cast<double>(sp.bytes_written) / 1e6, "MB");
  report.Set("spill.files_written", static_cast<double>(sp.files_written),
             "count");
  report.Set("spill.maps_opened", static_cast<double>(sp.maps_opened), "count");
  report.Set("spill.shards_evicted", static_cast<double>(sp.shards_evicted),
             "count");
  report.Set("spill.high_water_mb",
             static_cast<double>(sp.accounted_high_water) / 1e6, "MB");
  report.Set("pool.threads_created", static_cast<double>(threads_created),
             "count");
  report.Set("proc.cpu_ms_per_op", cpu_ms / static_cast<double>(n), "ms");
  report.Set("load.late_us_max", 0, "us");
  report.Set("load.late_ratio", 0, "ratio");
  // The fusion replay runs resident. The rest of the budgeted Fuse (shard
  // files written, mapped and evicted, plus the session's own small
  // share) is counted as the spill layer's.
  report.Set("self.store_ms", load + exp, "ms");
  report.Set("self.kf_ms", snap, "ms");
  report.Set("self.fusion_ms", fusion, "ms");
  report.Set("self.spill_ms", fuse - fusion, "ms");
  report.Set("trace.build_ms_p50", traced_p50, "ms", traced_ms.size());
  report.Set("trace.unaccounted_ms", unaccounted, "ms");
  report.Set("trace.unaccounted_pct", 100.0 * unaccounted / traced_p50, "%");
  report.Set("trace.overhead_pct",
             100.0 * (traced_p50 - untraced_ms.Median()) / untraced_ms.Median(),
             "%");
  WriteTrace(tracer, args, &outcome);
  SetOpMetrics(outcome, &report);
  return report.Finish(outcome, PerLayerMetrics());
}

}  // namespace perfbench
