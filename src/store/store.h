// kf::store — the binary columnar on-disk format for corpora and fused
// KBs. Two content kinds share one container (see store/format.h):
//
//   corpus    extract::TsvCorpus — the six interner dictionaries, the
//             value table, item/triple/record columns, extractor metas
//   fused-kb  the columns of a kf::FusedKB (the extract::FusedKbTsv
//             schema, M/P/T) — dictionaries, probability columns,
//             delta+varint supporter CSR
//
// Corpora read two ways:
//   - Owning load: materializes exactly the in-memory structs the TSV
//     path produces (bit-identical round-trip, operator==-verified).
//   - MmapView: validates the file once, then serves dictionary lookups
//     and column scans zero-copy off the mapping.
// A fused-KB image has one decoder, DecodeFusedKb, which turns it
// straight into the columns kf::FusedKB keeps.
//
// Compared to TSV this is ~3-4x smaller on disk and parses >5x faster
// (bench/bench_store.cc records both into BENCH_perf.json).
#ifndef KF_STORE_STORE_H_
#define KF_STORE_STORE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "extract/tsv_io.h"
#include "store/format.h"

namespace kf::store {

// ---- corpus ----------------------------------------------------------

/// Serializes a TSV-loaded corpus into the binary corpus format.
std::string WriteCorpus(const extract::TsvCorpus& corpus);

/// WriteCorpus straight to a file.
Status WriteCorpusFile(const extract::TsvCorpus& corpus,
                       const std::string& path);

/// Owning load: parses, validates, and materializes a TsvCorpus equal to
/// the one WriteCorpus serialized (same ids, same records, same
/// dictionaries). Every failure — bad magic, version, truncation,
/// checksum mismatch, out-of-range ids — is a clean Status.
Result<extract::TsvCorpus> LoadCorpus(std::string_view bytes);

/// Reads the file and LoadCorpus()es it. Errors carry the path.
Result<extract::TsvCorpus> LoadCorpusFile(const std::string& path);

/// The six corpus dictionaries, in the block order of the format.
enum class CorpusDict : uint32_t {
  kSubjects = 0,
  kPredicates = 1,
  kObjects = 2,
  kExtractors = 3,
  kUrls = 4,
  kSites = 5,
};
inline constexpr size_t kNumCorpusDicts = 6;

/// Denominator of the kPacked fixed-point confidence encoding (4 decimal
/// digits — the precision WriteExtractionsTsv emits). The writer uses it
/// only when decode(encode(c)) is bit-exact for every record.
inline constexpr uint32_t kConfFixedScale = 10000;

/// Zero-copy view over a corpus image: dictionary lookups and column
/// scans are served straight from `bytes` (no per-row materialization).
/// The backing bytes must outlive the view; CorpusMmapView bundles the
/// mapping with it.
class CorpusView {
 public:
  /// Validates structure + checksums once; accessors cannot fail after.
  static Result<CorpusView> Parse(std::string_view bytes);

  size_t dict_size(CorpusDict dict) const {
    return dicts_[static_cast<size_t>(dict)].offsets.size() - 1;
  }
  /// The interned string for `id`; points into the backing bytes.
  std::string_view dict_entry(CorpusDict dict, uint32_t id) const {
    const Dict& d = dicts_[static_cast<size_t>(dict)];
    return d.bytes.substr(d.offsets[id], d.offsets[id + 1] - d.offsets[id]);
  }

  size_t num_records() const { return record_triple_.size(); }
  size_t num_triples() const { return triple_item_.size(); }
  size_t num_items() const { return item_subject_.size(); }

  // Column scans (element i = record/triple/item i), O(1) random access
  // straight off the backing bytes.
  PackedSpan record_triples() const { return record_triple_; }
  PackedSpan record_extractors() const { return record_extractor_; }
  PackedSpan record_urls() const { return record_url_; }
  Span<const uint8_t> record_flags() const { return record_flag_; }
  PackedSpan triple_items() const { return triple_item_; }
  PackedSpan triple_objects() const { return triple_object_; }
  PackedSpan item_subjects() const { return item_subject_; }
  PackedSpan item_predicates() const { return item_predicate_; }

  // Per-record fields whose columns the writer omits when derivable
  // (see the BlockId comments in format.h).
  uint32_t record_site(size_t r) const {
    return static_cast<uint32_t>(record_site_.empty()
                                     ? url_site_[record_url_[r]]
                                     : record_site_[r]);
  }
  uint32_t record_pattern(size_t r) const {
    return static_cast<uint32_t>(record_pattern_.empty()
                                     ? record_extractor_[r]
                                     : record_pattern_[r]);
  }
  uint32_t record_predicate(size_t r) const {
    return static_cast<uint32_t>(
        record_predicate_.empty()
            ? item_predicate_[triple_item_[record_triple_[r]]]
            : record_predicate_[r]);
  }
  /// Decodes the fixed-point confidence column when the writer chose it
  /// (bit-exact by construction), else reads the raw f32.
  float record_confidence(size_t r) const {
    return conf_fixed4_ ? static_cast<float>(record_conf_fixed_[r]) /
                              static_cast<float>(kConfFixedScale)
                        : record_confidence_[r];
  }

  /// Materializes the owning structs from the view (the owning load is
  /// exactly Parse + Materialize).
  Result<extract::TsvCorpus> Materialize() const;

 private:
  friend Result<extract::TsvCorpus> LoadCorpus(std::string_view bytes);

  struct Dict {
    Span<const uint32_t> offsets;
    std::string_view bytes;
  };

  BlockFile blocks_;
  Dict dicts_[kNumCorpusDicts];
  Span<const uint64_t> meta_;  // num_sites, num_patterns, num_predicates
  Span<const uint8_t> value_kind_;
  PackedSpan value_payload_;
  PackedSpan item_subject_, item_predicate_;
  PackedSpan triple_item_, triple_object_;
  Span<const uint8_t> triple_flag_;
  PackedSpan record_triple_, record_extractor_, record_url_;
  // Empty when the writer omitted the derivable column.
  PackedSpan record_site_, record_pattern_, record_predicate_;
  bool conf_fixed4_ = false;
  PackedSpan record_conf_fixed_;
  Span<const float> record_confidence_;
  Span<const uint8_t> record_flag_;
  Dict extractor_name_;
  Span<const uint8_t> extractor_content_, extractor_has_conf_;
  Span<const uint32_t> extractor_framework_, extractor_linkage_;
  PackedSpan url_site_;
};

/// A corpus view bound to a live memory mapping of the file.
class CorpusMmapView {
 public:
  static Result<CorpusMmapView> Open(const std::string& path);

  const CorpusView& view() const { return view_; }

 private:
  MmapFile map_;
  CorpusView view_;
};

// ---- fused KB --------------------------------------------------------

/// Bits of the fused-KB triple flag column (kKbTripleFlags).
inline constexpr uint8_t kKbHasProbability = 1;
inline constexpr uint8_t kKbFromFallback = 2;
inline constexpr uint8_t kKbWinner = 4;

/// A fused KB in column form: what the fused-KB encoder writes and the
/// decoder returns. kf::FusedKB keeps exactly these columns, so its
/// image is written without building rows or re-interning a string.
/// Canonical form: strings are interned in first-use order over the
/// triples (subject and predicate through the triple's item), and items
/// are numbered by their (subject, predicate) pair in first-use order —
/// which is why a KB, its rows and its image encode to the same bytes.
struct FusedKbColumns {
  std::string method;
  uint64_t num_rounds = 0;
  std::vector<extract::FusedKbProvRow> provenances;

  StringInterner subjects;
  StringInterner predicates;
  StringInterner objects;
  /// Per data item: ids in `subjects` and `predicates`.
  std::vector<uint32_t> item_subject;
  std::vector<uint32_t> item_predicate;
  /// Per triple: its data item, its id in `objects`, the raw and
  /// calibrated probability, and the kKb* flag bits.
  std::vector<uint32_t> triple_item;
  std::vector<uint32_t> triple_object;
  std::vector<double> probability;
  std::vector<double> calibrated;
  std::vector<uint8_t> triple_flags;
  /// Triple -> supporting provenance indices (CSR).
  std::vector<uint32_t> support_offsets{0};
  std::vector<uint32_t> supporters;

  size_t num_triples() const { return triple_item.size(); }
  size_t num_items() const { return item_subject.size(); }
};

/// Serializes fused-KB columns into the binary fused-KB format.
std::string EncodeFusedKb(const FusedKbColumns& kb);

/// Decodes a fused-KB image into columns. Validates the container, the
/// block layout, every id against its dictionary and the flag bits, and
/// rejects dictionaries that are not canonical (a duplicate or unused
/// entry, or ids not first used in ascending order). Values are taken as
/// stored: kf::FusedKB::FromBinary checks probabilities, winners and
/// supporter order. Every failure is a clean Status.
Result<FusedKbColumns> DecodeFusedKb(std::string_view bytes);

/// Interns schema rows into canonical columns. Copies values as given
/// (no validation; kf::FusedKB::FromRows checks them).
FusedKbColumns FusedKbColumnsFromRows(const extract::FusedKbTsv& kb);

/// Serializes a fused KB (schema form): EncodeFusedKb of its columns.
std::string WriteFusedKb(const extract::FusedKbTsv& kb);

}  // namespace kf::store

#endif  // KF_STORE_STORE_H_
