#include "harness.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <random>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuMs() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

const std::string& RunDir() {
  static const std::string dir = [] {
    const std::string base = ".bench_run";
    ::mkdir(base.c_str(), 0755);
    const std::string d = base + "/p" + std::to_string(::getpid());
    ::mkdir(d.c_str(), 0755);
    return d;
  }();
  return dir;
}

size_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<size_t>(st.st_size) : 0;
}

// ---- Samples ----

void Samples::Append(const Samples& other) {
  v_.insert(v_.end(), other.v_.begin(), other.v_.end());
}

const std::vector<double>& Samples::Sorted() const {
  if (sorted_.size() != v_.size()) {
    sorted_ = v_;
    std::sort(sorted_.begin(), sorted_.end());
  }
  return sorted_;
}

double Samples::Median() const {
  const std::vector<double>& s = Sorted();
  if (s.empty()) return 0.0;
  const size_t n = s.size();
  return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

std::optional<double> Samples::Percentile(double q) const {
  const std::vector<double>& s = Sorted();
  const size_t n = s.size();
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest value with at least q*n samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::max<size_t>(rank, 1);
  if (n - rank < kMinBeyond) return std::nullopt;
  return s[rank - 1];
}

double Samples::Max() const {
  return v_.empty() ? 0.0 : *std::max_element(v_.begin(), v_.end());
}

// ---- Outcome ----

void Outcome::Record(const std::string& op, bool ok, const std::string& what) {
  Count& c = ops_[op];
  ++c.attempted;
  if (!ok) {
    if (c.failed < 5) {
      std::fprintf(stderr, "FAILED %s: %s\n", op.c_str(), what.c_str());
    }
    ++c.failed;
  }
}

void Outcome::Add(const std::string& op, uint64_t attempted,
                  uint64_t failed) {
  Count& c = ops_[op];
  c.attempted += attempted;
  c.failed += failed;
  if (failed > 0) {
    std::fprintf(stderr, "FAILED %s: %llu of %llu\n", op.c_str(),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
  }
}

uint64_t Outcome::attempted() const {
  uint64_t n = 0;
  for (const auto& [op, c] : ops_) n += c.attempted;
  return n;
}

uint64_t Outcome::failed() const {
  uint64_t n = 0;
  for (const auto& [op, c] : ops_) n += c.failed;
  return n;
}

uint64_t Outcome::attempted(const std::string& op) const {
  auto it = ops_.find(op);
  return it == ops_.end() ? 0 : it->second.attempted;
}

uint64_t Outcome::failed(const std::string& op) const {
  auto it = ops_.find(op);
  return it == ops_.end() ? 0 : it->second.failed;
}

// ---- Tracer ----

uint32_t Tracer::Begin(const char* name, uint32_t parent, uint64_t request) {
  if (!enabled_) return kNoParent;
  spans_.push_back(Span{name, NowNs(), 0, parent, request});
  return static_cast<uint32_t>(spans_.size() - 1);
}

void Tracer::End(uint32_t id) {
  if (!enabled_ || id == kNoParent) return;
  spans_[id].end_ns = NowNs();
}

uint32_t Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                     uint32_t parent, uint64_t request) {
  if (!enabled_) return kNoParent;
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<uint32_t>(spans_.size() - 1);
}

Samples Tracer::DurationsMs(const std::string& name) const {
  Samples out;
  for (const Span& s : spans_) {
    if (name == s.name) out.Add(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

Samples Tracer::SelfMs(const std::string& name) const {
  // Children of one span run sequentially on the span's thread, so the
  // covered part is the sum of the direct children's durations.
  std::vector<int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) covered[s.parent] += s.end_ns - s.start_ns;
  }
  Samples out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name == s.name) {
      out.Add(static_cast<double>(s.end_ns - s.start_ns - covered[i]) / 1e6);
    }
  }
  return out;
}

void Tracer::Merge(const Tracer& other) {
  const uint32_t base = static_cast<uint32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent != kNoParent) s.parent += base;
    spans_.push_back(s);
  }
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

// ---- Report ----

void Report::Set(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  for (auto& [n, e] : metrics_) {
    if (n == name) {
      e = Entry{value, unit, samples};
      return;
    }
  }
  metrics_.emplace_back(name, Entry{value, unit, samples});
}

void Report::SetTiming(const std::string& base, const Samples& s, double q,
                       const std::string& unit) {
  Set(base + "_p50", s.Median(), unit, s.size());
  if (std::optional<double> p = s.Percentile(q)) {
    Set(base + "_p" + std::to_string(static_cast<int>(std::lround(q * 100))),
        *p, unit, s.size());
  }
}

int Report::Finish(const Outcome& outcome,
                   const std::vector<std::string>& required) const {
  for (const auto& [name, e] : metrics_) {
    if (e.samples > 0) {
      std::printf("%-28s %14.6g %-6s (n=%zu)\n", name.c_str(), e.value,
                  e.unit.c_str(), e.samples);
    } else {
      std::printf("%-28s %14.6g %s\n", name.c_str(), e.value, e.unit.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += outcome.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted());
  json += ", \"failed\": " + std::to_string(outcome.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : required) {
    const Entry* entry = nullptr;
    for (const auto& [n, e] : metrics_) {
      if (n == name) entry = &e;
    }
    if (entry == nullptr) {
      std::fprintf(stderr, "metric %s was not measured\n", name.c_str());
      return 1;
    }
    if (!std::isfinite(entry->value)) {
      std::fprintf(stderr, "metric %s is not finite\n", name.c_str());
      return 1;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", entry->value);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            entry->unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return outcome.correct() ? 0 : 1;
}

const std::vector<std::string>& EndToEndMetrics() {
  static const std::vector<std::string> names = {
      "setup_s",        "build_ms_p50",   "peak_rss_mb",
      "kb_image_mb",    "pr_auc",         "publish_ms_p50",
      "publish_ms_p90", "lookup_us_p50",  "lookup_us_p99"};
  return names;
}

const std::vector<std::string>& PerLayerMetrics() {
  static const std::vector<std::string> names = {
      "store.load_corpus_ms",   "store.export_kb_ms",
      "store.kb_image_bytes",   "fusion.build_graph_ms",
      "fusion.claims",          "fusion.shards",
      "fusion.prepare_ms",      "fusion.stage1_ms",
      "fusion.stage2_ms",       "fusion.rounds",
      "fusion.stage1_skew",     "kf.fuse_ms",
      "kf.snapshot_ms",         "kf.refuse_ms",
      "kf.refuse_rounds",       "kf.publish_ms",
      "kf.publish_build_ms",    "kf.reader_refresh_us_p50",
      "kf.reader_refresh_us_max", "kf.reader_refreshes",
      "kf.lookup_ns",           "spill.bytes_written_mb",
      "spill.files_written",    "spill.maps_opened",
      "spill.shards_evicted",   "spill.high_water_mb",
      "pool.threads_created",   "proc.cpu_ms_per_op",
      "load.late_us_max",       "load.late_ratio",
      "ops.pipeline.attempted", "ops.pipeline.failed",
      "ops.publish.attempted",  "ops.publish.failed",
      "ops.lookup.attempted",   "ops.lookup.failed",
      "ops.check.attempted",    "ops.check.failed",
      "self.store_ms",          "self.kf_ms",
      "self.fusion_ms",         "self.spill_ms",
      "trace.build_ms_p50",
      "trace.unaccounted_ms",   "trace.unaccounted_pct",
      "trace.overhead_pct"};
  return names;
}

std::vector<uint32_t> ZipfDraws(size_t n, double s, size_t count,
                                uint64_t seed) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = total;
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, total);
  std::vector<uint32_t> out(count);
  for (uint32_t& r : out) {
    const double u = uniform(rng);
    r = static_cast<uint32_t>(
        std::min<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                             cdf.begin(),
                         n - 1));
  }
  return out;
}

}  // namespace perfbench
