#include "kf/fused_kb.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <deque>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/threadpool.h"
#include "eval/calibration.h"
#include "kb/value.h"
#include "store/atomic_writer.h"
#include "store/store.h"

namespace kf {
namespace {

constexpr uint32_t kNone = FusedKB::kNone;

uint64_t PackKey(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// Strings entering the KB must survive the TSV round-trip: tabs and
/// newlines (possible in user naming callbacks) become spaces.
void SanitizeInPlace(std::string* s) {
  for (char& c : *s) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  }
}

/// Vote weight in the scorers' log-odds space, with the accuracy pulled
/// off 0/1 so imported (unclamped) accuracies cannot produce infinities.
double VoteWeight(double accuracy) {
  double a = std::clamp(accuracy, 1e-9, 1.0 - 1e-9);
  return std::log(a / (1.0 - a));
}

bool ValidUnitInterval(double v) { return std::isfinite(v) && v >= 0.0 && v <= 1.0; }

/// "(subject, predicate, object)" of triple `t`, for error messages.
std::string TripleName(const store::FusedKbColumns& c, uint32_t t) {
  const uint32_t item = c.triple_item[t];
  return "(" + c.subjects.Get(c.item_subject[item]) + ", " +
         c.predicates.Get(c.item_predicate[item]) + ", " +
         c.objects.Get(c.triple_object[t]) + ")";
}

/// A triple under a sort key.
struct Ranked {
  uint64_t key;
  uint32_t index;
};

/// A key whose ascending order is the descending order of `p` (equal
/// probabilities, -0.0 and 0.0 included, get equal keys).
uint64_t DescendingKey(double p) {
  p += 0.0;  // -0.0 -> 0.0
  uint64_t bits;
  std::memcpy(&bits, &p, sizeof(bits));
  // Order-preserving map of the double onto uint64, then reversed.
  bits = (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
  return ~bits;
}

/// Stable LSD radix sort by key, one byte per pass; a pass in which every
/// key has the same byte is skipped.
void RadixSortByKey(std::vector<Ranked>* v) {
  std::vector<Ranked> tmp(v->size());
  for (int shift = 0; shift < 64; shift += 8) {
    size_t start[257] = {0};
    for (const Ranked& r : *v) ++start[((r.key >> shift) & 0xff) + 1];
    if (std::find(start + 1, start + 257, v->size()) != start + 257) continue;
    for (size_t d = 1; d < 257; ++d) start[d] += start[d - 1];
    for (const Ranked& r : *v) tmp[start[(r.key >> shift) & 0xff]++] = r;
    v->swap(tmp);
  }
}

/// Dataset id -> a value computed at most once per distinct id. Flat over
/// the dense id range every loader produces; ids past `dense` (only
/// hand-built datasets have them) go to a hash map.
class IdMemo {
 public:
  explicit IdMemo(size_t dense) : flat_(dense, kNone) {}

  template <typename Make>
  uint32_t Get(uint32_t id, Make&& make) {
    uint32_t& slot = id < flat_.size()
                         ? flat_[id]
                         : sparse_.try_emplace(id, kNone).first->second;
    if (slot == kNone) slot = make();
    return slot;
  }

 private:
  std::vector<uint32_t> flat_;
  std::unordered_map<uint32_t, uint32_t> sparse_;
};

using NamingFn = std::function<std::string(uint32_t)>;

/// The sanitized name of `id`: the callback's, or "<prefix><id>" (e.g.
/// "s12") when the callback is missing.
std::string NameOf(const NamingFn& fn, char prefix, uint32_t id) {
  if (!fn) {
    char buf[16] = {prefix};
    return std::string(buf, std::to_chars(buf + 1, buf + sizeof(buf), id).ptr);
  }
  std::string name = fn(id);
  SanitizeInPlace(&name);
  return name;
}

/// One SnapshotNaming callback, memoized: it runs at most once per
/// distinct id, and the name is kept for every later use.
class NameMemo {
 public:
  NameMemo(const NamingFn* fn, char prefix, size_t dense)
      : fn_(fn), prefix_(prefix), ids_(dense) {}

  const std::string& Get(uint32_t id) {
    return names_[ids_.Get(id, [&] {
      names_.push_back(NameOf(*fn_, prefix_, id));
      return static_cast<uint32_t>(names_.size() - 1);
    })];
  }

 private:
  const NamingFn* fn_;
  char prefix_;
  IdMemo ids_;
  std::deque<std::string> names_;
};

/// Dense-range size for a memo over ids up to `max_id`, capped at a few
/// times the ids actually in use so a stray huge id cannot size it.
size_t DenseRange(uint64_t max_id, size_t uses) {
  return static_cast<size_t>(std::min<uint64_t>(max_id + 1, 4 * uses + 64));
}

}  // namespace

SnapshotNaming SnapshotNaming::FromCorpus(const extract::TsvCorpus& corpus) {
  SnapshotNaming naming;
  const extract::TsvCorpus* c = &corpus;
  naming.subject = [c](kb::EntityId id) { return c->subjects.Get(id); };
  naming.predicate = [c](kb::PredicateId id) {
    return c->predicates.Get(id);
  };
  naming.object = [c](kb::ValueId id) {
    return c->objects.Get(c->values.Get(id).string_id);
  };
  naming.url = [c](extract::UrlId id) { return c->urls.Get(id); };
  naming.site = [c](extract::SiteId id) { return c->sites.Get(id); };
  // The TSV loader interns patterns into the extractor table.
  naming.pattern = [c](extract::PatternId id) {
    return c->extractors.Get(id);
  };
  return naming;
}

Result<FusedKB> FusedKB::Snapshot(const extract::ExtractionDataset& dataset,
                                  const fusion::FusionEngine& engine,
                                  const fusion::FusionResult& result,
                                  std::string method,
                                  const SnapshotNaming& naming,
                                  const std::vector<Label>* gold) {
  if (const int e = fault::Inject("kf.snapshot")) {
    return Status::FromErrno("build", "fused-KB snapshot", e);
  }
  const size_t n = result.probability.size();
  if (n == 0) {
    return Status::FailedPrecondition(
        "cannot snapshot an empty fused result (no unique triples)");
  }
  if (gold != nullptr && gold->size() != n) {
    return Status::InvalidArgument(
        StrFormat("gold labels cover %zu triples but the fused result has "
                  "%zu",
                  gold->size(), n));
  }

  store::FusedKbColumns c;
  c.method = std::move(method);
  c.num_rounds = result.num_rounds;

  // Verdicts, copied verbatim (calibrated through the gold bins).
  eval::CalibrationCurve curve;
  if (gold != nullptr) {
    curve = eval::ComputeCalibration(result.probability,
                                     result.has_probability, *gold);
  }
  c.probability = result.probability;
  c.calibrated.resize(n);
  c.triple_flags.resize(n);
  for (size_t t = 0; t < n; ++t) {
    const bool has = result.has_probability[t] != 0;
    c.triple_flags[t] = static_cast<uint8_t>(
        (has ? store::kKbHasProbability : 0) |
        (result.from_fallback[t] != 0 ? store::kKbFromFallback : 0));
    c.calibrated[t] = !has ? 0.0
                           : (gold != nullptr
                                  ? eval::Calibrate(curve, c.probability[t])
                                  : c.probability[t]);
  }

  // Items and names in TripleId order, serially on this thread: each
  // callback runs, and its result is interned, once per distinct id.
  uint64_t max_subject = 0, max_object = 0;
  for (const kb::DataItem& di : dataset.items()) {
    max_subject = std::max<uint64_t>(max_subject, di.subject);
  }
  for (size_t t = 0; t < n; ++t) {
    max_object = std::max<uint64_t>(max_object, dataset.triple(t).object);
  }
  NameMemo predicate_names(&naming.predicate, 'p', dataset.num_predicates());
  IdMemo predicate_ids(dataset.num_predicates());
  IdMemo subject_ids(DenseRange(max_subject, dataset.num_items()));
  IdMemo object_ids(DenseRange(max_object, n));
  std::vector<uint32_t> item_of(dataset.num_items(), kNone);
  c.subjects.Reserve(dataset.num_items());
  c.objects.Reserve(n);
  c.triple_item.resize(n);
  c.triple_object.resize(n);
  for (size_t t = 0; t < n; ++t) {
    const extract::TripleInfo& info = dataset.triple(t);
    uint32_t& item = item_of[info.item];
    if (item == kNone) {
      item = static_cast<uint32_t>(c.item_subject.size());
      const kb::DataItem& di = dataset.item(info.item);
      c.item_subject.push_back(subject_ids.Get(di.subject, [&] {
        return c.subjects.Intern(NameOf(naming.subject, 's', di.subject));
      }));
      c.item_predicate.push_back(predicate_ids.Get(di.predicate, [&] {
        return c.predicates.Intern(predicate_names.Get(di.predicate));
      }));
    }
    c.triple_item[t] = item;
    c.triple_object[t] = object_ids.Get(info.object, [&] {
      return c.objects.Intern(NameOf(naming.object, 'v', info.object));
    });
  }

  // Supporters, per claim-graph shard: a triple's claims all live in its
  // item's shard, so shards count and fill disjoint slots.
  const fusion::ClaimGraph& graph = engine.graph();
  const size_t workers = engine.options().num_workers;
  c.support_offsets.assign(n + 1, 0);
  ParallelFor(graph.num_shards(), workers, [&](size_t s) {
    const fusion::ShardColumns sc = graph.columns(s);
    for (uint32_t i = 0; i < sc.num_claims; ++i) {
      if (sc.claim_triple[i] < n) ++c.support_offsets[sc.claim_triple[i] + 1];
    }
  }, /*grain=*/1);
  for (size_t t = 0; t < n; ++t) {
    c.support_offsets[t + 1] += c.support_offsets[t];
  }
  c.supporters.resize(c.support_offsets[n]);
  ParallelFor(graph.num_shards(), workers, [&](size_t s) {
    // Sorted-group invariant: a triple's claims form one contiguous run.
    const fusion::ShardColumns sc = graph.columns(s);
    for (uint32_t i = 0, j = 0; i < sc.num_claims; i = j) {
      const kb::TripleId t = sc.claim_triple[i];
      for (j = i + 1; j < sc.num_claims && sc.claim_triple[j] == t; ++j) {
      }
      if (t >= n) continue;
      KF_DCHECK(j - i == c.support_offsets[t + 1] - c.support_offsets[t]);
      uint32_t* span = c.supporters.data() + c.support_offsets[t];
      std::copy(sc.claim_prov + i, sc.claim_prov + j, span);
      std::sort(span, span + (j - i));
    }
  }, /*grain=*/1);

  // The provenance table: converged accuracies + a rendered identity
  // (via any record of the provenance — all project to the same
  // pseudo-source under the run's granularity). Only the fields that
  // formed the identity appear.
  const std::vector<double>& accuracy = engine.provenance_accuracy();
  const std::vector<uint8_t>& evaluated = engine.provenance_evaluated();
  const std::vector<uint32_t>& claims = engine.provenance_claims();
  const std::vector<uint32_t>& record_provs = graph.record_provs();
  const size_t num_provs = graph.num_provs();
  std::vector<uint32_t> representative(num_provs, kNone);
  for (uint32_t r = 0; r < record_provs.size(); ++r) {
    if (representative[record_provs[r]] == kNone) {
      representative[record_provs[r]] = r;
    }
  }
  const extract::Granularity& g = engine.options().granularity;
  const std::vector<extract::ExtractorMeta>& metas = dataset.extractors();
  NameMemo url_names(&naming.url, 'u', dataset.num_urls());
  NameMemo site_names(&naming.site, 'w', dataset.num_sites());
  NameMemo pattern_names(&naming.pattern, 'r', dataset.num_patterns());
  std::string buf;  // one rendering buffer, reused for every description
  buf.reserve(256);
  auto add = [&buf](const char* key, std::string_view value) {
    if (!buf.empty()) buf += '|';
    buf += key;
    buf += '=';
    buf += value;
  };
  c.provenances.resize(num_provs);
  for (uint32_t p = 0; p < num_provs; ++p) {
    extract::FusedKbProvRow& row = c.provenances[p];
    row.accuracy = accuracy[p];
    row.evaluated = evaluated[p] != 0;
    row.num_claims = claims[p];
    if (representative[p] == kNone) {
      row.description = StrFormat("prov%u", p);
      continue;
    }
    const extract::Provenance& prov =
        dataset.records()[representative[p]].prov;
    buf.clear();
    if (g.use_extractor) {
      const bool named = prov.extractor < metas.size() &&
                         !metas[prov.extractor].name.empty();
      add("extractor", named ? metas[prov.extractor].name
                             : StrFormat("x%u", prov.extractor));
    }
    if (g.use_url) add("url", url_names.Get(prov.url));
    if (g.use_site) add("site", site_names.Get(prov.site));
    if (g.use_predicate) {
      add("predicate", predicate_names.Get(prov.predicate));
    }
    if (g.use_pattern) add("pattern", pattern_names.Get(prov.pattern));
    if (buf.empty()) buf = "all";
    SanitizeInPlace(&buf);
    row.description = buf;
  }

  return FromColumns(std::move(c), /*verify_winners=*/false);
}

Result<FusedKB> FusedKB::FromColumns(store::FusedKbColumns cols,
                                     bool verify_winners) {
  for (const extract::FusedKbProvRow& p : cols.provenances) {
    if (!ValidUnitInterval(p.accuracy)) {
      return Status::InvalidArgument(
          StrFormat("provenance '%s': accuracy %g outside [0,1]",
                    p.description.c_str(), p.accuracy));
    }
  }
  const uint32_t n = static_cast<uint32_t>(cols.num_triples());
  for (uint32_t t = 0; t < n; ++t) {
    if (!ValidUnitInterval(cols.probability[t]) ||
        !ValidUnitInterval(cols.calibrated[t])) {
      return Status::InvalidArgument(
          StrFormat("triple %s: probabilities outside [0,1]",
                    TripleName(cols, t).c_str()));
    }
  }
  // supporters() promises ascending lists, and Explain lists each
  // provenance once.
  for (uint32_t t = 0; t < n; ++t) {
    for (uint32_t s = cols.support_offsets[t];
         s < cols.support_offsets[t + 1]; ++s) {
      if (cols.supporters[s] >= cols.provenances.size() ||
          (s > cols.support_offsets[t] &&
           cols.supporters[s] <= cols.supporters[s - 1])) {
        return Status::InvalidArgument(
            StrFormat("triple %s: supporters not strictly ascending "
                      "provenance indices",
                      TripleName(cols, t).c_str()));
      }
    }
  }

  FusedKB kb;
  kb.cols_ = std::move(cols);
  std::vector<uint8_t> given;
  if (verify_winners) given = kb.cols_.triple_flags;
  KF_RETURN_IF_ERROR(kb.BuildIndexes());
  // BuildIndexes re-derives only the winner bits. The winner column is
  // derived data; an inconsistent file (hand-edited or truncated) is
  // rejected rather than silently re-derived.
  for (uint32_t t = 0; t < given.size(); ++t) {
    if (given[t] != kb.cols_.triple_flags[t]) {
      return Status::InvalidArgument(
          StrFormat("triple %s: winner flag inconsistent with the "
                    "probabilities",
                    TripleName(kb.cols_, t).c_str()));
    }
  }
  return kb;
}

Status FusedKB::BuildIndexes() {
  store::FusedKbColumns& c = cols_;
  const size_t n = c.num_triples();
  const size_t num_items = c.num_items();

  // Item CSR over triples (triples already carry their item index).
  item_offsets_.assign(num_items + 1, 0);
  for (uint32_t item : c.triple_item) ++item_offsets_[item + 1];
  for (size_t i = 0; i < num_items; ++i) {
    item_offsets_[i + 1] += item_offsets_[i];
  }
  item_triples_.resize(n);
  {
    std::vector<uint32_t> cursor(item_offsets_.begin(),
                                 item_offsets_.end() - 1);
    for (uint32_t t = 0; t < n; ++t) {
      item_triples_[cursor[c.triple_item[t]]++] = t;
    }
  }

  // Winners: highest predicted probability per item, ties toward the
  // earlier triple (item_triples_ spans are in ascending triple order).
  item_winner_.assign(num_items, Winner());
  for (size_t i = 0; i < num_items; ++i) {
    uint32_t winner = kNone;
    for (uint32_t s = item_offsets_[i]; s < item_offsets_[i + 1]; ++s) {
      const uint32_t t = item_triples_[s];
      c.triple_flags[t] &= static_cast<uint8_t>(~store::kKbWinner);
      if ((c.triple_flags[t] & store::kKbHasProbability) == 0) continue;
      if (winner == kNone || c.probability[t] > c.probability[winner]) {
        winner = t;
      }
    }
    if (winner == kNone) continue;
    c.triple_flags[winner] |= store::kKbWinner;
    item_winner_[i] = {winner, c.triple_object[winner], c.probability[winner],
                       c.calibrated[winner],
                       (c.triple_flags[winner] & store::kKbFromFallback) != 0};
  }

  // Probability order over predicted triples: a stable radix sort on a
  // descending key, fed in index order, so ties keep the earlier triple.
  {
    std::vector<Ranked> ranked;
    ranked.reserve(n);
    for (uint32_t t = 0; t < n; ++t) {
      if (c.triple_flags[t] & store::kKbHasProbability) {
        ranked.push_back({DescendingKey(c.probability[t]), t});
      }
    }
    RadixSortByKey(&ranked);
    by_probability_.resize(ranked.size());
    for (size_t i = 0; i < ranked.size(); ++i) {
      by_probability_[i] = ranked[i].index;
    }
  }

  item_index_.clear();
  item_index_.reserve(num_items);
  for (uint32_t i = 0; i < num_items; ++i) {
    if (!item_index_
             .emplace(PackKey(c.item_subject[i], c.item_predicate[i]), i)
             .second) {
      return Status::InvalidArgument(
          StrFormat("duplicate data item (%s, %s)",
                    c.subjects.Get(c.item_subject[i]).c_str(),
                    c.predicates.Get(c.item_predicate[i]).c_str()));
    }
  }

  // Duplicate triples: an object seen twice within one item's span.
  std::vector<uint32_t> seen_in(c.objects.size(), kNone);
  for (uint32_t i = 0; i < num_items; ++i) {
    for (uint32_t s = item_offsets_[i]; s < item_offsets_[i + 1]; ++s) {
      const uint32_t object = c.triple_object[item_triples_[s]];
      if (seen_in[object] == i) {
        return Status::InvalidArgument(
            "duplicate triple " + TripleName(c, item_triples_[s]));
      }
      seen_in[object] = i;
    }
  }
  return Status::OK();
}

KbVerdict FusedKB::MakeVerdict(uint32_t t) const {
  const uint32_t item = cols_.triple_item[t];
  const uint8_t flags = cols_.triple_flags[t];
  KbVerdict v;
  v.subject = cols_.subjects.Get(cols_.item_subject[item]);
  v.predicate = cols_.predicates.Get(cols_.item_predicate[item]);
  v.object = cols_.objects.Get(cols_.triple_object[t]);
  v.probability = cols_.probability[t];
  v.calibrated = cols_.calibrated[t];
  v.has_probability = (flags & store::kKbHasProbability) != 0;
  v.from_fallback = (flags & store::kKbFromFallback) != 0;
  v.winner = (flags & store::kKbWinner) != 0;
  v.index = t;
  return v;
}

KbVerdict FusedKB::verdict(uint32_t index) const {
  KF_CHECK(index < num_triples());
  return MakeVerdict(index);
}

std::vector<uint32_t> FusedKB::supporters(uint32_t index) const {
  KF_CHECK(index < num_triples());
  return std::vector<uint32_t>(
      cols_.supporters.begin() + cols_.support_offsets[index],
      cols_.supporters.begin() + cols_.support_offsets[index + 1]);
}

std::optional<KbVerdict> FusedKB::Lookup(std::string_view subject,
                                         std::string_view predicate) const {
  uint32_t s = cols_.subjects.Find(subject);
  uint32_t p = cols_.predicates.Find(predicate);
  if (s == StringInterner::kInvalidId || p == StringInterner::kInvalidId) {
    return std::nullopt;
  }
  auto it = item_index_.find(PackKey(s, p));
  if (it == item_index_.end()) return std::nullopt;
  const Winner& w = item_winner_[it->second];
  if (w.triple == kNone) return std::nullopt;
  // The item's names are the ones just looked up.
  KbVerdict v;
  v.subject = cols_.subjects.Get(s);
  v.predicate = cols_.predicates.Get(p);
  v.object = cols_.objects.Get(w.object);
  v.probability = w.probability;
  v.calibrated = w.calibrated;
  v.has_probability = true;
  v.from_fallback = w.from_fallback;
  v.winner = true;
  v.index = w.triple;
  return v;
}

std::optional<KbVerdict> FusedKB::Verdict(std::string_view subject,
                                          std::string_view predicate,
                                          std::string_view object) const {
  uint32_t s = cols_.subjects.Find(subject);
  uint32_t p = cols_.predicates.Find(predicate);
  uint32_t o = cols_.objects.Find(object);
  if (s == StringInterner::kInvalidId || p == StringInterner::kInvalidId ||
      o == StringInterner::kInvalidId) {
    return std::nullopt;
  }
  auto item = item_index_.find(PackKey(s, p));
  if (item == item_index_.end()) return std::nullopt;
  // The object within the item's (short) triple span.
  for (uint32_t i = item_offsets_[item->second];
       i < item_offsets_[item->second + 1]; ++i) {
    if (cols_.triple_object[item_triples_[i]] == o) {
      return MakeVerdict(item_triples_[i]);
    }
  }
  return std::nullopt;
}

std::vector<KbEvidence> FusedKB::Explain(std::string_view subject,
                                         std::string_view predicate,
                                         std::string_view object) const {
  std::vector<KbEvidence> out;
  std::optional<KbVerdict> v = Verdict(subject, predicate, object);
  if (!v) return out;
  const uint32_t target = v->index;
  const uint32_t item = cols_.triple_item[target];
  auto append = [this, &out](uint32_t t, bool supports) {
    for (uint32_t s = cols_.support_offsets[t];
         s < cols_.support_offsets[t + 1]; ++s) {
      const uint32_t p = cols_.supporters[s];
      const extract::FusedKbProvRow& prov = cols_.provenances[p];
      KbEvidence e;
      e.provenance = p;
      e.description = prov.description;
      e.object = cols_.objects.Get(cols_.triple_object[t]);
      e.accuracy = prov.accuracy;
      e.vote = VoteWeight(e.accuracy);
      e.evaluated = prov.evaluated;
      e.supports = supports;
      out.push_back(e);
    }
  };
  append(target, /*supports=*/true);
  for (uint32_t s = item_offsets_[item]; s < item_offsets_[item + 1]; ++s) {
    const uint32_t t = item_triples_[s];
    if (t != target) append(t, /*supports=*/false);
  }
  return out;
}

std::vector<KbVerdict> FusedKB::TopK(size_t k) const {
  std::vector<KbVerdict> out;
  out.reserve(std::min(k, by_probability_.size()));
  for (uint32_t t : by_probability_) {
    if (out.size() >= k) break;
    out.push_back(MakeVerdict(t));
  }
  return out;
}

std::vector<KbVerdict> FusedKB::AboveThreshold(double min_probability) const {
  std::vector<KbVerdict> out;
  for (uint32_t t : by_probability_) {
    if (cols_.probability[t] < min_probability) break;
    out.push_back(MakeVerdict(t));
  }
  return out;
}

extract::FusedKbTsv FusedKB::ToRows() const {
  extract::FusedKbTsv tsv;
  tsv.method = cols_.method;
  tsv.num_rounds = num_rounds();
  tsv.provenances = cols_.provenances;
  tsv.triples.reserve(num_triples());
  for (uint32_t t = 0; t < num_triples(); ++t) {
    const KbVerdict v = MakeVerdict(t);
    extract::FusedKbTripleRow row;
    row.subject = std::string(v.subject);
    row.predicate = std::string(v.predicate);
    row.object = std::string(v.object);
    row.probability = v.probability;
    row.calibrated = v.calibrated;
    row.has_probability = v.has_probability;
    row.from_fallback = v.from_fallback;
    row.winner = v.winner;
    row.supporters = supporters(t);
    tsv.triples.push_back(std::move(row));
  }
  return tsv;
}

std::string FusedKB::ToTsv() const {
  return extract::WriteFusedKbTsv(ToRows());
}

Status FusedKB::ExportTsv(const std::string& path) const {
  return store::AtomicWriteFile(path, ToTsv());
}

Result<FusedKB> FusedKB::FromRows(const extract::FusedKbTsv& rows) {
  return FromColumns(store::FusedKbColumnsFromRows(rows),
                     /*verify_winners=*/true);
}

Result<FusedKB> FusedKB::FromTsv(const std::string& text) {
  Result<extract::FusedKbTsv> parsed = extract::ReadFusedKbTsv(text);
  if (!parsed.ok()) return parsed.status();
  return FromRows(*parsed);
}

Result<FusedKB> FusedKB::ImportTsv(const std::string& path) {
  Result<std::string> text = extract::ReadFile(path);
  if (!text.ok()) return text.status();
  Result<FusedKB> kb = FromTsv(*text);
  if (!kb.ok()) {
    // Parse errors carry a 1-based line number; add the file they name.
    return Status(kb.status().code(), path + ": " + kb.status().message());
  }
  return kb;
}

std::string FusedKB::ToBinary() const { return store::EncodeFusedKb(cols_); }

Status FusedKB::ExportBinary(const std::string& path) const {
  return store::AtomicWriteFile(path, ToBinary());
}

Result<FusedKB> FusedKB::FromBinary(std::string_view bytes) {
  Result<store::FusedKbColumns> cols = store::DecodeFusedKb(bytes);
  if (!cols.ok()) return cols.status();
  return FromColumns(std::move(*cols), /*verify_winners=*/true);
}

Result<FusedKB> FusedKB::ImportBinary(const std::string& path) {
  Result<std::string> bytes = extract::ReadFile(path);
  if (!bytes.ok()) return bytes.status();  // already names the path
  Result<FusedKB> kb = FromBinary(*bytes);
  if (!kb.ok()) {
    return Status(kb.status().code(), path + ": " + kb.status().message());
  }
  return kb;
}

bool operator==(const FusedKB& a, const FusedKB& b) {
  // Every construction path interns strings and numbers items in
  // first-use order over the triples (DecodeFusedKb rejects any other
  // image), so equal names per triple is exactly equal dictionaries plus
  // equal id columns.
  auto same_strings = [](const StringInterner& x, const StringInterner& y) {
    if (x.size() != y.size()) return false;
    for (uint32_t i = 0; i < x.size(); ++i) {
      if (x.Get(i) != y.Get(i)) return false;
    }
    return true;
  };
  const store::FusedKbColumns& x = a.cols_;
  const store::FusedKbColumns& y = b.cols_;
  // Probabilities compare with ==, like the doubles they are.
  return x.method == y.method && x.num_rounds == y.num_rounds &&
         x.provenances == y.provenances &&
         same_strings(x.subjects, y.subjects) &&
         same_strings(x.predicates, y.predicates) &&
         same_strings(x.objects, y.objects) &&
         x.item_subject == y.item_subject &&
         x.item_predicate == y.item_predicate &&
         x.triple_item == y.triple_item &&
         x.triple_object == y.triple_object &&
         x.probability == y.probability && x.calibrated == y.calibrated &&
         x.triple_flags == y.triple_flags &&
         x.support_offsets == y.support_offsets &&
         x.supporters == y.supporters;
}

}  // namespace kf
