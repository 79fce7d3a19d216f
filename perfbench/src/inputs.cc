#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string_view>
#include <unordered_map>

#include "common/logging.h"
#include "eval/gold_standard.h"
#include "extract/tsv_io.h"
#include "harness.h"
#include "store/store.h"
#include "synth/corpus.h"

namespace perfbench {
namespace {

/// Every workload draws from the default synthetic world (seed 42), whose
/// scale-1 corpus is the one the paper-scale targets refer to; --seed
/// orders its extraction records. A seed thus changes interning order,
/// shard contents and the lookup keys, but not the corpus, so runs on
/// different seeds stay comparable.
kf::synth::SynthCorpus World(double scale) {
  const kf::synth::SynthConfig config;
  // Scaled() rounds counts up by one; scale 1 keeps the default corpus
  // shape exactly.
  return kf::synth::GenerateCorpus(scale == 1.0 ? config
                                                : config.Scaled(scale));
}

/// The order in which serve-stream's records are split into the base and
/// the batches. Fixed, so every seed streams the same records in the same
/// batches and does the same fusion work; --seed orders the records
/// within the base and within each batch.
constexpr uint64_t kSplitSeed = 42;

std::vector<size_t> Identity(size_t n) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  return order;
}

/// `src` with its records in the given order, re-interned so triple ids
/// follow the new first-seen order.
kf::extract::ExtractionDataset Reordered(
    const kf::extract::ExtractionDataset& src,
    const std::vector<size_t>& order) {
  kf::extract::ExtractionDataset dst =
      kf::extract::CloneRecordPrefix(src, 0);
  for (size_t i : order) {
    kf::extract::ExtractionRecord r = src.records()[i];
    const kf::extract::TripleInfo& info = src.triple(r.triple);
    r.triple = dst.InternTriple(src.item(info.item), info.object,
                                info.true_in_world, info.hierarchy_true);
    dst.AddRecord(r);
  }
  return dst;
}

/// `src` with its records in a seed-dependent order.
kf::extract::ExtractionDataset Shuffled(
    const kf::extract::ExtractionDataset& src, uint64_t seed) {
  std::vector<size_t> order = Identity(src.num_records());
  std::shuffle(order.begin(), order.end(), std::mt19937_64(seed));
  return Reordered(src, order);
}

[[noreturn]] void Die(const std::string& what, const kf::Status& status) {
  std::fprintf(stderr, "set-up failed: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

}  // namespace

BatchInputs MakeBatchInputs(uint64_t seed, double scale) {
  const kf::synth::SynthCorpus synth = World(scale);
  const kf::extract::ExtractionDataset shuffled =
      Shuffled(synth.dataset, seed);
  const std::vector<kf::Label> synth_gold =
      kf::eval::BuildGoldStandard(shuffled, synth.freebase);

  // The image holds exactly what a user-supplied extraction file would:
  // the corpus rendered to TSV and parsed back, with real names.
  kf::Result<kf::extract::TsvCorpus> corpus = kf::extract::ReadExtractionsTsv(
      kf::synth::RenderExtractionsTsv(shuffled));
  if (!corpus.ok()) Die("parse rendered corpus", corpus.status());

  BatchInputs in;
  in.image_path = RunDir() + "/corpus.kfs";
  // No fsync, like the pipeline's output (see batch.cc).
  kf::Status written =
      kf::extract::WriteFile(in.image_path, kf::store::WriteCorpus(*corpus));
  if (!written.ok()) Die("write corpus image", written);
  in.records = corpus->dataset.num_records();
  in.triples = corpus->dataset.num_triples();

  // Gold labels follow the synthetic triple ids; map them onto the parsed
  // corpus through the rendered names ("s<id>", "p<id>", "v<id>").
  std::unordered_map<std::string, kf::Label> by_name;
  by_name.reserve(shuffled.num_triples());
  auto name = [](uint32_t s, uint32_t p, uint32_t o) {
    return "s" + std::to_string(s) + "\tp" + std::to_string(p) + "\tv" +
           std::to_string(o);
  };
  for (size_t t = 0; t < shuffled.num_triples(); ++t) {
    const auto& info = shuffled.triple(static_cast<kf::kb::TripleId>(t));
    const auto& item = shuffled.item(info.item);
    by_name.emplace(name(item.subject, item.predicate, info.object),
                    synth_gold[t]);
  }
  const kf::extract::ExtractionDataset& ds = corpus->dataset;
  in.gold.resize(ds.num_triples(), kf::Label::kUnknown);
  for (size_t t = 0; t < ds.num_triples(); ++t) {
    const auto& info = ds.triple(static_cast<kf::kb::TripleId>(t));
    const auto& item = ds.item(info.item);
    const std::string key = corpus->subjects.Get(item.subject) + "\t" +
                            corpus->predicates.Get(item.predicate) + "\t" +
                            corpus->objects.Get(
                                corpus->values.Get(info.object).string_id);
    auto it = by_name.find(key);
    KF_CHECK(it != by_name.end());
    in.gold[t] = it->second;
  }
  return in;
}

ServeInputs MakeServeInputs(uint64_t seed, double scale, size_t num_batches) {
  const kf::synth::SynthCorpus synth = World(scale);
  const size_t n = synth.dataset.num_records();
  const size_t half = n / 2;
  const size_t per_batch = (n - half + num_batches - 1) / num_batches;
  std::vector<size_t> order = Identity(n);
  std::shuffle(order.begin(), order.end(), std::mt19937_64(kSplitSeed));
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.begin() + static_cast<ptrdiff_t>(half),
               rng);
  for (size_t i = half; i < n; i += per_batch) {
    const size_t end = std::min(i + per_batch, n);
    std::shuffle(order.begin() + static_cast<ptrdiff_t>(i),
                 order.begin() + static_cast<ptrdiff_t>(end), rng);
  }
  const kf::extract::ExtractionDataset src = Reordered(synth.dataset, order);

  ServeInputs in;
  in.base = kf::extract::CloneRecordPrefix(src, half);
  in.replay_base = kf::extract::CloneRecordPrefix(src, half);
  std::vector<kf::extract::ExtractionRecord> tail =
      kf::extract::ReinternTail(src, half, &in.base);
  // Same record sequence, same interning order: identical triple ids.
  KF_CHECK(kf::extract::ReinternTail(src, half, &in.replay_base) == tail);

  for (size_t i = 0; i < tail.size(); i += per_batch) {
    const size_t end = std::min(i + per_batch, tail.size());
    in.batches.emplace_back(tail.begin() + static_cast<ptrdiff_t>(i),
                            tail.begin() + static_cast<ptrdiff_t>(end));
  }
  // Every triple is interned up front, and entity / value ids are the
  // synthetic world's, so the reference KB labels the base directly.
  in.gold = kf::eval::BuildGoldStandard(in.base, synth.freebase);
  return in;
}

std::vector<Key> WinnerKeys(const kf::FusedKB& kb, uint64_t seed) {
  std::vector<Key> keys;
  for (uint32_t t = 0; t < kb.num_triples(); ++t) {
    const kf::KbVerdict v = kb.verdict(t);
    if (v.winner) keys.emplace_back(std::string(v.subject), std::string(v.predicate));
  }
  std::shuffle(keys.begin(), keys.end(), std::mt19937_64(seed));
  return keys;
}

}  // namespace perfbench
