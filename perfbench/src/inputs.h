// Workload inputs, made in set-up: the default synthetic world (the synth
// layer) with its extraction records in an order drawn from --seed, the
// kf::store image of that corpus, gold labels under the local
// closed-world assumption, and the lookup keys.
#ifndef KF_PERFBENCH_INPUTS_H_
#define KF_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/label.h"
#include "extract/dataset.h"
#include "kf/fused_kb.h"

namespace perfbench {

/// spill-fuse: a scale-1 corpus written once to a kf::store
/// image, with gold labels indexed like the image's triples.
struct BatchInputs {
  std::string image_path;
  std::vector<kf::Label> gold;
  size_t records = 0;
  size_t triples = 0;
};
BatchInputs MakeBatchInputs(uint64_t seed, double scale);

/// serve-stream: a corpus split in two, the same way for every seed.
/// `base` is the first half of the records; `batches` are the second
/// half, already interned into `base` (and into `replay_base`, an
/// identical clone for the writer-only replay), cut into `num_batches`
/// consecutive batches. The seed orders the records within the base and
/// within each batch. `gold` labels every triple of `base`.
struct ServeInputs {
  kf::extract::ExtractionDataset base;
  kf::extract::ExtractionDataset replay_base;
  std::vector<std::vector<kf::extract::ExtractionRecord>> batches;
  std::vector<kf::Label> gold;
};
ServeInputs MakeServeInputs(uint64_t seed, double scale, size_t num_batches);

using Key = std::pair<std::string, std::string>;

/// (subject, predicate) of every data item of `kb` with a winning value,
/// shuffled by `seed` so popularity rank is unrelated to id order.
std::vector<Key> WinnerKeys(const kf::FusedKB& kb, uint64_t seed);

}  // namespace perfbench

#endif  // KF_PERFBENCH_INPUTS_H_
