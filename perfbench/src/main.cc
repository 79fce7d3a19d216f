// kf_perfbench — the repository benchmark.
//
//   kf_perfbench --workload serve-stream|spill-fuse
//                --seed N --seconds S --trace 0|1
//
// Inputs are generated from --seed in set-up; the timed phase lasts
// --seconds. Every output is checked. The last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics (from spans kept in
// memory and written to .bench_run/trace-*.jsonl) with --trace 1. Files
// go under .bench_run/ in the working directory and are removed at exit,
// except the trace.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {

void SetOpMetrics(const Outcome& outcome, Report* report) {
  for (const char* op : {"pipeline", "publish", "lookup", "check"}) {
    const std::string base = std::string("ops.") + op;
    report->Set(base + ".attempted",
                static_cast<double>(outcome.attempted(op)), "count");
    report->Set(base + ".failed", static_cast<double>(outcome.failed(op)),
                "count");
  }
}

void WriteTrace(const Tracer& tracer, const Args& args, Outcome* outcome) {
  RunDir();  // creates .bench_run/
  const std::string path = ".bench_run/trace-" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".jsonl";
  outcome->Check(tracer.Write(path), "cannot write " + path);
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: kf_perfbench --workload serve-stream|spill-fuse "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

bool ParseUint(const char* s, unsigned long long* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    unsigned long long v = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed" && ParseUint(value, &v)) {
      args.seed = v;
    } else if (flag == "--seconds" && ParseUint(value, &v) && v > 0) {
      args.seconds = static_cast<double>(v);
    } else if (flag == "--trace" && ParseUint(value, &v) && v <= 1) {
      args.trace = v == 1;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1) return Usage();

  int code = 0;
  if (args.workload == "spill-fuse") {
    code = perfbench::RunSpillFuse(args);
  } else if (args.workload == "serve-stream") {
    code = perfbench::RunServe(args);
  } else {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::remove_all(perfbench::RunDir(), ec);
  return code;
}
