// serve-stream: writes next to reads. A scale-0.5 corpus is split in two;
// kf::KbServer cold-publishes the first half in set-up (ACCU, 1 fusion
// worker). The second half then goes in as fixed-size AppendAndPublish
// batches, back to back on one writer thread, while two reader threads
// (one KbServer::Reader each) issue Zipf-skewed Lookups open loop at a
// fixed rate each. Every lookup is timed from its due time, so a stall
// (a generation reclaimed on a reader thread, say) also charges the
// requests queued behind it. The timed phase repeats this stream in
// whole passes, each from a fresh set-up, as many as best fill --seconds,
// so every run times the same mix of batches.
//
// The server runs bench_kb_server.cc's serving options unchanged (ACCU,
// 16 shards, 1 fusion worker, default warm-start policy), so a publish
// costs what the repository's own streaming configuration costs.
//
// Checks: every lookup is answered, each reader sees monotonic seqnos,
// and every pass ends in the same generation, which equals a writer-only
// kf::Session replay of the same batches. The traced run takes
// the refuse / snapshot split of a publish from that replay, which runs
// after the timed phase without readers; the rounds per publish come from
// the timed publishes.
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/memprobe.h"
#include "common/threadpool.h"
#include "eval/pr_curve.h"
#include "extract/tsv_io.h"
#include "harness.h"
#include "inputs.h"
#include "kf/kb_server.h"
#include "kf/session.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kScale = 0.5;
constexpr size_t kReaders = 2;
/// Set-up runs this many times per run; setup_s is the median. A set-up
/// here takes a third of a batch workload's, so it runs three times as
/// often: the median then lies past the first set-ups of the process,
/// which also pay for growing its heap.
constexpr int kSetupRepeats = 9;
/// Requests per second issued by each reader. A pinned lookup costs under
/// 0.5 us, so each reader keeps the server well below saturation (an open
/// loop past capacity would measure its own queue), and a run still has
/// over 10^5 lookups, enough samples for a per-generation p99.
constexpr double kReaderRate = 10000.0;
/// The second half of the corpus is cut into this many batches, so one
/// pass gives publish_ms_p90 ten samples beyond it. Every pass streams the
/// same batches, so the batches, the final generation and pr_auc do not
/// depend on --seconds.
constexpr size_t kPublishes = 100;
/// A request issued more than this after its due time counts as late.
constexpr int64_t kLateNs = 100 * 1000;
/// One lookup in this many gets a span in the traced run.
constexpr uint64_t kLookupSpanEvery = 64;
/// Fusion workers of the untraced run's writer-only replay, which runs
/// after the timed phase; the engine's result does not depend on the
/// worker count. The traced run replays with the server's own options so
/// its refuse / snapshot split matches a publish.
constexpr size_t kReplayWorkers = 3;
constexpr size_t kPinnedLookups = 200000;

kf::KbServer::Options ServerOptions() {
  kf::KbServer::Options options;
  options.fusion.method = kf::fusion::Method::kAccu;
  options.fusion.max_rounds = 100;
  options.fusion.convergence_epsilon = 1e-3;
  options.fusion.num_shards = 16;
  options.fusion.num_workers = 1;
  return options;
}

struct ReaderStats {
  Samples latency_us;  // from due time to answer
  /// The same latencies grouped by the generation that answered.
  std::vector<Samples> by_generation;
  Samples refresh_us;  // Acquire calls that picked up a new generation
  int64_t late_max_ns = 0;
  uint64_t late = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool monotonic = true;
};

void ReaderLoop(const kf::KbServer& server, const std::vector<Key>& keys,
                const std::vector<uint32_t>& draws, size_t offset,
                const std::atomic<bool>& stop, int64_t start_ns,
                Tracer* tracer, ReaderStats* out) {
  kf::KbServer::Reader reader(server);
  const double period_ns = 1e9 / kReaderRate;
  uint64_t last_seqno = 0;
  for (uint64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
    const int64_t due = start_ns + static_cast<int64_t>(period_ns * static_cast<double>(i));
    // Spin to the due time: a sleeping reader would measure its wake-up
    // latency (and an idle vCPU's) instead of the server's.
    int64_t now = NowNs();
    while (now < due) now = NowNs();
    const int64_t late = now - due;
    out->late_max_ns = std::max(out->late_max_ns, late);
    if (late > kLateNs) ++out->late;

    const Key& key = keys[draws[(offset + i) % draws.size()]];
    const uint64_t before = reader.seqno();
    const kf::KbSnapshotRef& snap = reader.Acquire();
    const int64_t acquired = NowNs();
    std::optional<kf::KbVerdict> v;
    if (snap) v = snap->kb().Lookup(key.first, key.second);
    const int64_t end = NowNs();

    ++out->attempted;
    if (reader.seqno() != before) {
      out->refresh_us.Add(static_cast<double>(acquired - now) / 1e3);
      tracer->Add("kf.reader_refresh", now, acquired);
    }
    if (reader.seqno() < last_seqno) out->monotonic = false;
    last_seqno = reader.seqno();
    if (i % kLookupSpanEvery == 0) tracer->Add("kf.lookup", acquired, end);
    // A miss counts as exceeding any latency limit.
    double latency_us = std::numeric_limits<double>::infinity();
    if (v && v->has_probability) {
      latency_us = static_cast<double>(end - due) / 1e3;
    } else {
      ++out->failed;
    }
    out->latency_us.Add(latency_us);
    if (out->by_generation.size() <= last_seqno) {
      out->by_generation.resize(last_seqno + 1);
    }
    out->by_generation[last_seqno].Add(latency_us);
  }
}

/// The tails the `n` readers of one pass see per generation: the
/// q-percentile of the latencies each generation answered (generations
/// whose sample supports it). The run reports the median of these over
/// all passes, so a burst of host CPU steal moves a few generations'
/// tails, not the run's.
Samples PerGenerationTail(const ReaderStats* readers, size_t n, double q) {
  std::vector<Samples> merged;
  for (const ReaderStats* r = readers; r != readers + n; ++r) {
    if (merged.size() < r->by_generation.size()) {
      merged.resize(r->by_generation.size());
    }
    for (size_t g = 0; g < r->by_generation.size(); ++g) {
      merged[g].Append(r->by_generation[g]);
    }
  }
  Samples tails;
  for (const Samples& g : merged) {
    if (std::optional<double> p = g.Percentile(q)) tails.Add(*p);
  }
  return tails;
}

}  // namespace

int RunServe(const Args& args) {
  Report report;
  Outcome outcome;
  Tracer tracer(args.trace);
  const kf::KbServer::Options options = ServerOptions();

  // ---- set-up: corpus, split, cold publish of the first half ----
  // Every pass of the timed phase starts from a fresh set-up, which also
  // counts towards setup_s.
  Samples setup_s;
  std::optional<ServeInputs> in;
  std::unique_ptr<kf::KbServer> server;
  auto set_up = [&] {
    server.reset();  // tearing down the previous set-up is not timed
    in.reset();
    const int64_t start = NowNs();
    in.emplace(MakeServeInputs(args.seed, kScale, kPublishes));
    server = std::make_unique<kf::KbServer>(std::move(in->base), options);
    kf::Result<kf::KbSnapshotStats> first = server->Publish();
    outcome.Record("publish", first.ok(),
                   first.ok() ? "" : first.status().ToString());
    setup_s.Add(static_cast<double>(NowNs() - start) / 1e9);
    return first.ok();
  };
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (!set_up()) return report.Finish(outcome, {});
  }
  const std::vector<Key> keys = WinnerKeys(server->Acquire()->kb(), args.seed);
  const std::vector<uint32_t> draws =
      ZipfDraws(keys.size(), kZipfS, 1 << 20, args.seed + 1);
  std::printf(
      "base: %zu records, %zu rounds; %zu batches of %zu records; %zu keys\n",
      server->stats().current.num_records, server->stats().current.num_rounds,
      in->batches.size(), in->batches.front().size(), keys.size());

  // ---- timed phase: whole passes over the stream ----
  // Another pass starts when it is expected to end closer to --seconds
  // than the passes so far do.
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  int64_t timed_ns = 0;
  std::vector<ReaderStats> stats;  // kReaders per pass
  Samples publish_ms, build_ms, refuse_rounds, traced_ms, untraced_ms,
      unaccounted_ms, lookup_tails;
  size_t threads_created = 0, peak_rss = 0, passes = 0;
  double cpu_ms = 0, export_ms = 0;
  std::string first_image;  // the first pass's final generation, ToBinary
  const std::string image = RunDir() + "/final.kfkb";
  Tracer off(false);
  for (; passes == 0 ||
         timed_ns + timed_ns / static_cast<int64_t>(2 * passes) < budget_ns;
       ++passes) {
    if (passes > 0 && !set_up()) break;
    std::atomic<bool> stop{false};
    const size_t first_reader = stats.size();
    stats.resize(first_reader + kReaders);
    std::vector<Tracer> reader_tracers(kReaders, Tracer(args.trace));
    const size_t threads_before = kf::ThreadPool::TotalThreadsCreated();
    const double cpu_before = CpuMs();
    kf::PeakRssTracker rss;
    const int64_t pass_start = NowNs();
    std::vector<std::thread> readers;
    // Stops and joins the readers on every way out of this scope.
    struct JoinReaders {
      std::atomic<bool>* stop;
      std::vector<std::thread>* threads;
      ~JoinReaders() {
        stop->store(true, std::memory_order_release);
        for (std::thread& t : *threads) {
          if (t.joinable()) t.join();
        }
      }
    } join_readers{&stop, &readers};
    for (size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back(ReaderLoop, std::cref(*server), std::cref(keys),
                           std::cref(draws), r * (draws.size() / kReaders),
                           std::cref(stop), pass_start, &reader_tracers[r],
                           &stats[first_reader + r]);
    }
    for (size_t b = 0; b < in->batches.size(); ++b) {
      // The traced run alternates traced and untraced publishes so the
      // tracing overhead is measured within one process.
      const bool traced = tracer.enabled() && b % 2 == 1;
      const int64_t t0 = NowNs();
      kf::Result<kf::KbSnapshotStats> published = [&] {
        Scope s(traced ? &tracer : &off, "kf.publish", Tracer::kNoParent, b);
        return server->AppendAndPublish(in->batches[b]);
      }();
      const double ms = static_cast<double>(NowNs() - t0) / 1e6;
      outcome.Record("publish", published.ok(),
                     published.ok() ? "" : published.status().ToString());
      if (!published.ok()) continue;
      publish_ms.Add(ms);
      build_ms.Add(static_cast<double>(published->build_micros) / 1e3);
      refuse_rounds.Add(static_cast<double>(published->num_rounds));
      unaccounted_ms.Add(ms - static_cast<double>(published->build_micros) / 1e3);
      (traced ? traced_ms : untraced_ms).Add(ms);
      rss.Sample();
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();
    timed_ns += NowNs() - pass_start;
    cpu_ms += CpuMs() - cpu_before;
    threads_created += kf::ThreadPool::TotalThreadsCreated() - threads_before;
    // Later passes also hold the samples gathered so far, so the first
    // pass, a whole stream, gives the program's peak.
    if (passes == 0) peak_rss = rss.PeakBytes();
    lookup_tails.Append(
        PerGenerationTail(&stats[first_reader], kReaders, 0.99));
    for (size_t r = 0; r < kReaders; ++r) tracer.Merge(reader_tracers[r]);
    const kf::KbSnapshotRef last_gen = server->Acquire();
    outcome.Check(last_gen && last_gen->stats().seqno == in->batches.size() + 1,
                  "the stream did not publish every batch");
    if (passes == 0) {
      const int64_t export_start = NowNs();
      first_image = last_gen ? last_gen->kb().ToBinary() : "";
      outcome.Check(kf::extract::WriteFile(image, first_image).ok(),
                    "final generation export failed");
      export_ms = static_cast<double>(NowNs() - export_start) / 1e6;
    } else {
      outcome.Check(last_gen && last_gen->kb().ToBinary() == first_image,
                    "passes over the same stream ended differently");
    }
  }
  server.reset();
  std::printf("timed phase: %.0f ms, %zu passes, %zu publishes\n",
              static_cast<double>(timed_ns) / 1e6, passes, publish_ms.size());

  Samples lookup_us, refresh_us;
  int64_t late_max_ns = 0;
  uint64_t late = 0;
  for (const ReaderStats& s : stats) {
    lookup_us.Append(s.latency_us);
    refresh_us.Append(s.refresh_us);
    late_max_ns = std::max(late_max_ns, s.late_max_ns);
    late += s.late;
    outcome.Add("lookup", s.attempted, s.failed);
    outcome.Check(s.monotonic, "reader saw its seqno go backwards");
  }
  outcome.Check(threads_created == 0, "serving created pool threads");

  // ---- checks: a writer-only replay of the same batches ----
  // In the traced run its Refuse and Snapshot calls, made one after the
  // other with no readers running, give the split of a publish.
  kf::Session replay(std::move(in->replay_base));
  kf::fusion::FusionOptions replay_options = options.fusion;
  if (!tracer.enabled()) replay_options.num_workers = kReplayWorkers;
  kf::Result<kf::fusion::FusionResult> cold = replay.Fuse(replay_options);
  outcome.Check(cold.ok(), "replay cold fuse failed");
  for (size_t b = 0; cold.ok() && b < in->batches.size(); ++b) {
    kf::Status appended = [&] {
      Scope s(&tracer, "kf.append", Tracer::kNoParent, b);
      return replay.Append(in->batches[b]);
    }();
    kf::Result<kf::fusion::FusionResult> warm = [&] {
      Scope s(&tracer, "kf.refuse", Tracer::kNoParent, b);
      return replay.Refuse();
    }();
    if (!appended.ok() || !warm.ok()) {
      outcome.Check(false, "replay refuse failed");
      break;
    }
    if (tracer.enabled()) {
      Scope s(&tracer, "kf.snapshot", Tracer::kNoParent, b);
      outcome.Check(replay.Snapshot(options.naming).ok(),
                    "replay snapshot failed");
    }
  }
  kf::Result<kf::FusedKB> replayed = replay.Snapshot(options.naming);
  kf::Result<kf::FusedKB> first_final = kf::FusedKB::FromBinary(first_image);
  outcome.Check(replayed.ok() && first_final.ok() && *replayed == *first_final,
                "final generation differs from the writer-only replay");
  double pr_auc = 0;
  if (const kf::fusion::FusionResult* last = replay.last_result()) {
    pr_auc = kf::eval::AucPr(last->probability, last->has_probability,
                             in->gold);
  }
  const size_t image_bytes = FileBytes(image);

  if (!args.trace) {
    report.Set("setup_s", setup_s.Median(), "s", setup_s.size());
    report.Set("build_ms_p50", build_ms.Median(), "ms", build_ms.size());
    report.Set("peak_rss_mb", static_cast<double>(peak_rss) / 1e6, "MB");
    report.Set("kb_image_mb", static_cast<double>(image_bytes) / 1e6, "MB");
    report.Set("pr_auc", pr_auc, "ratio");
    report.SetTiming("publish_ms", publish_ms, 0.90, "ms");
    report.Set("lookup_us_p50", lookup_us.Median(), "us", lookup_us.size());
    if (!lookup_tails.empty()) {
      report.Set("lookup_us_p99", lookup_tails.Median(), "us",
                 lookup_tails.size());
    }
    return report.Finish(outcome, EndToEndMetrics());
  }

  // ---- traced run: per-layer numbers ----
  double lookup_ns = 0;
  if (first_final.ok()) {
    size_t hits = 0;
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < kPinnedLookups; ++i) {
      const Key& key = keys[draws[i % draws.size()]];
      hits += first_final->Lookup(key.first, key.second).has_value();
    }
    lookup_ns = static_cast<double>(NowNs() - t0) / kPinnedLookups;
    outcome.Check(hits == kPinnedLookups, "pinned lookups missed");
  }
  const double traced_p50 = traced_ms.Median();
  const double unaccounted = unaccounted_ms.Median();
  report.Set("store.load_corpus_ms", 0, "ms");
  report.Set("store.export_kb_ms", export_ms, "ms");
  report.Set("store.kb_image_bytes", static_cast<double>(image_bytes), "bytes");
  for (const char* name :
       {"fusion.build_graph_ms", "fusion.prepare_ms", "fusion.stage1_ms",
        "fusion.stage2_ms"}) {
    report.Set(name, 0, "ms");
  }
  report.Set("fusion.claims", 0, "count");
  report.Set("fusion.shards", 0, "count");
  report.Set("fusion.rounds", 0, "count");
  report.Set("fusion.stage1_skew", 0, "ratio");
  report.Set("kf.fuse_ms", 0, "ms");
  // From the writer-only replay; the rounds from the timed publishes.
  report.Set("kf.snapshot_ms", tracer.DurationsMs("kf.snapshot").Median(), "ms");
  report.Set("kf.refuse_ms", tracer.DurationsMs("kf.refuse").Median(), "ms");
  report.Set("kf.refuse_rounds", refuse_rounds.Median(), "count");
  report.Set("kf.publish_ms", publish_ms.Median(), "ms");
  report.Set("kf.publish_build_ms", build_ms.Median(), "ms");
  report.Set("kf.reader_refresh_us_p50", refresh_us.Median(), "us",
             refresh_us.size());
  report.Set("kf.reader_refresh_us_max", refresh_us.Max(), "us");
  report.Set("kf.reader_refreshes", static_cast<double>(refresh_us.size()),
             "count");
  report.Set("kf.lookup_ns", lookup_ns, "ns");
  for (const char* name : {"spill.bytes_written_mb", "spill.high_water_mb"}) {
    report.Set(name, 0, "MB");
  }
  for (const char* name :
       {"spill.files_written", "spill.maps_opened", "spill.shards_evicted"}) {
    report.Set(name, 0, "count");
  }
  report.Set("pool.threads_created", static_cast<double>(threads_created),
             "count");
  report.Set("proc.cpu_ms_per_op",
             cpu_ms / static_cast<double>(std::max<size_t>(publish_ms.size(), 1)),
             "ms");
  report.Set("load.late_us_max", static_cast<double>(late_max_ns) / 1e3, "us");
  report.Set("load.late_ratio",
             static_cast<double>(late) /
                 static_cast<double>(std::max<uint64_t>(
                     outcome.attempted("lookup"), 1)),
             "ratio");
  report.Set("self.store_ms", 0, "ms");
  report.Set("self.kf_ms", tracer.SelfMs("kf.publish").Median(), "ms");
  report.Set("self.fusion_ms", 0, "ms");
  report.Set("self.spill_ms", 0, "ms");
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
