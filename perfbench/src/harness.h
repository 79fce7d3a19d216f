// Shared plumbing of the kf_perfbench program: command-line arguments,
// clocks, sample sets with the percentile rule, per-operation outcome
// counting, the in-memory span recorder of the traced run, and the final
// metric report (human-readable lines, then one JSON line).
#ifndef KF_PERFBENCH_HARNESS_H_
#define KF_PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// steady_clock nanoseconds.
int64_t NowNs();
/// CPU time (user + system) of the whole process so far, milliseconds.
double CpuMs();

/// Directory (inside the working directory) for images, spill files and
/// traces of this process; created on first use.
const std::string& RunDir();
/// Size of a file in bytes; 0 when it does not exist.
size_t FileBytes(const std::string& path);

/// A set of measurements. Percentiles follow the benchmark's rule: one is
/// reported only when at least kMinBeyond samples lie above it.
class Samples {
 public:
  static constexpr size_t kMinBeyond = 10;

  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double Median() const;
  /// Nearest-rank q-quantile; empty unless >= kMinBeyond samples exceed
  /// its rank.
  std::optional<double> Percentile(double q) const;
  double Max() const;

 private:
  const std::vector<double>& Sorted() const;
  std::vector<double> v_;
  mutable std::vector<double> sorted_;
};

/// Attempts and failures per operation type, plus whether every output
/// check passed. A failed operation also makes the run incorrect.
class Outcome {
 public:
  /// Counts one attempt of `op`; a false `ok` counts a failure and logs
  /// `what` to stderr (the first few per op).
  void Record(const std::string& op, bool ok, const std::string& what = "");
  /// An output check: counted under op "check".
  void Check(bool ok, const std::string& what) { Record("check", ok, what); }
  /// Bulk variant for hot loops that count locally.
  void Add(const std::string& op, uint64_t attempted, uint64_t failed);

  uint64_t attempted() const;
  uint64_t failed() const;
  uint64_t attempted(const std::string& op) const;
  uint64_t failed(const std::string& op) const;
  bool correct() const { return failed() == 0; }

 private:
  struct Count {
    uint64_t attempted = 0;
    uint64_t failed = 0;
  };
  std::map<std::string, Count> ops_;
};

/// Spans recorded around the public calls the benchmark makes, kept in
/// memory and written out at exit. Disabled tracers record nothing. One
/// tracer per thread; Merge() joins them after the threads end.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint32_t parent = kNoParent;
    /// Groups the spans of one request (a pipeline, a publish, ...).
    uint64_t request = 0;
  };
  static constexpr uint32_t kNoParent = 0xffffffffu;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (kNoParent when disabled).
  uint32_t Begin(const char* name, uint32_t parent = kNoParent,
                 uint64_t request = 0);
  void End(uint32_t id);
  /// Records an already measured interval.
  uint32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
               uint32_t parent = kNoParent, uint64_t request = 0);

  /// Durations (ms) of every span named `name`.
  Samples DurationsMs(const std::string& name) const;
  /// Self time (ms) of every span named `name`: its duration minus the
  /// part covered by its direct children.
  Samples SelfMs(const std::string& name) const;

  void Merge(const Tracer& other);
  /// Writes one JSON object per span to `path`.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name,
        uint32_t parent = Tracer::kNoParent, uint64_t request = 0)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~Scope() { tracer_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  uint32_t id_;
};

/// The metrics of one run, printed by name and unit.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 0);
  /// Median and the given percentile of `s` under `<base>_p50` and
  /// `<base>_p<NN>`. A percentile the sample cannot support is not
  /// reported (the run then lacks that metric and fails).
  void SetTiming(const std::string& base, const Samples& s, double q,
                 const std::string& unit);

  /// Prints one line per metric to stdout, then the JSON result line.
  /// Returns the process exit code.
  int Finish(const Outcome& outcome,
             const std::vector<std::string>& required) const;

 private:
  struct Entry {
    double value = 0;
    std::string unit;
    size_t samples = 0;
  };
  std::vector<std::pair<std::string, Entry>> metrics_;
};

/// The metric names BENCHMARK.json declares, by kind.
const std::vector<std::string>& EndToEndMetrics();
const std::vector<std::string>& PerLayerMetrics();

/// Zipf(s)-distributed draws over ranks [0, n), deterministic from seed.
std::vector<uint32_t> ZipfDraws(size_t n, double s, size_t count,
                                uint64_t seed);

}  // namespace perfbench

#endif  // KF_PERFBENCH_HARNESS_H_
