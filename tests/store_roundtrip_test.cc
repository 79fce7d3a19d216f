// The kf::store contract: a corpus or fused KB serialized to the binary
// columnar format loads back bit-identically — same interner ids, same
// records, same doubles — a corpus through both the owning load and the
// mmap zero-copy view, a fused KB through its one decoder — and the
// binary image is smaller than the TSV it came from.
#include "store/store.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "extract/tsv_io.h"
#include "kf/fused_kb.h"
#include "kf/session.h"
#include "synth/corpus.h"

namespace kf::store {
namespace {

/// Exercises every column: optional confidences, an explicit pattern
/// column (which interns "extractor/pattern" ids), shared URLs/sites.
constexpr const char* kTsv =
    "subject\tpredicate\tobject\textractor\turl\tconfidence\tpattern\n"
    "TomCruise\tbirth_date\t1962-07-03\tdom\thttps://en.wikipedia.org/tc\t"
    "0.95\tinfobox\n"
    "TomCruise\tbirth_date\t1962-07-03\ttxt\thttps://www.imdb.com/tc\t0.80\n"
    "TomCruise\tbirth_date\t1963-07-03\ttxt\thttps://fan.example.com/tc\t"
    "0.40\tregex7\n"
    "TopGun\trelease_year\t1986\ttbl\thttps://en.wikipedia.org/tg\t0.90\n"
    "TopGun\trelease_year\t1996\ttbl\thttps://bad.example.com/tg\n";

void ExpectInternerEq(const StringInterner& a, const StringInterner& b) {
  ASSERT_EQ(a.size(), b.size());
  for (uint32_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.Get(i), b.Get(i)) << "interner id " << i;
  }
}

void ExpectCorpusEq(const extract::TsvCorpus& a,
                    const extract::TsvCorpus& b) {
  ExpectInternerEq(a.subjects, b.subjects);
  ExpectInternerEq(a.predicates, b.predicates);
  ExpectInternerEq(a.objects, b.objects);
  ExpectInternerEq(a.extractors, b.extractors);
  ExpectInternerEq(a.urls, b.urls);
  ExpectInternerEq(a.sites, b.sites);

  ASSERT_EQ(a.values.size(), b.values.size());
  for (kb::ValueId v = 0; v < a.values.size(); ++v) {
    EXPECT_TRUE(a.values.Get(v) == b.values.Get(v)) << "value id " << v;
  }

  const extract::ExtractionDataset& da = a.dataset;
  const extract::ExtractionDataset& db = b.dataset;
  EXPECT_EQ(da.items(), db.items());
  EXPECT_EQ(da.triples(), db.triples());
  EXPECT_EQ(da.records(), db.records());
  EXPECT_EQ(da.extractors(), db.extractors());
  ASSERT_EQ(da.num_urls(), db.num_urls());
  for (extract::UrlId u = 0; u < da.num_urls(); ++u) {
    EXPECT_EQ(da.site_of_url(u), db.site_of_url(u)) << "url " << u;
  }
  EXPECT_EQ(da.num_sites(), db.num_sites());
  EXPECT_EQ(da.num_patterns(), db.num_patterns());
  EXPECT_EQ(da.num_predicates(), db.num_predicates());
}

TEST(StoreRoundtripTest, CorpusOwningLoadIsLossless) {
  auto corpus = extract::ReadExtractionsTsv(kTsv);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();

  std::string bytes = WriteCorpus(*corpus);
  auto back = LoadCorpus(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectCorpusEq(*corpus, *back);

  // Serialization is a fixed point: re-serializing the loaded corpus
  // reproduces the byte image.
  EXPECT_EQ(WriteCorpus(*back), bytes);
}

TEST(StoreRoundtripTest, EmptyCorpusRoundTrips) {
  auto corpus = extract::ReadExtractionsTsv("");
  ASSERT_TRUE(corpus.ok());
  auto back = LoadCorpus(WriteCorpus(*corpus));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectCorpusEq(*corpus, *back);
  EXPECT_EQ(back->dataset.num_records(), 0u);
}

TEST(StoreRoundtripTest, CorpusMmapViewServesAndMaterializes) {
  auto corpus = extract::ReadExtractionsTsv(kTsv);
  ASSERT_TRUE(corpus.ok());
  const std::string path = testing::TempDir() + "store_rt_corpus.kfs";
  ASSERT_TRUE(WriteCorpusFile(*corpus, path).ok());

  auto mapped = CorpusMmapView::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const CorpusView& view = mapped->view();

  // Zero-copy dictionary lookups match the interners.
  ASSERT_EQ(view.dict_size(CorpusDict::kSubjects), corpus->subjects.size());
  for (uint32_t i = 0; i < corpus->subjects.size(); ++i) {
    EXPECT_EQ(view.dict_entry(CorpusDict::kSubjects, i),
              corpus->subjects.Get(i));
  }
  ASSERT_EQ(view.dict_size(CorpusDict::kUrls), corpus->urls.size());
  for (uint32_t i = 0; i < corpus->urls.size(); ++i) {
    EXPECT_EQ(view.dict_entry(CorpusDict::kUrls, i), corpus->urls.Get(i));
  }

  // Column scans match the dataset.
  const extract::ExtractionDataset& ds = corpus->dataset;
  ASSERT_EQ(view.num_records(), ds.num_records());
  ASSERT_EQ(view.num_triples(), ds.num_triples());
  ASSERT_EQ(view.num_items(), ds.num_items());
  for (size_t r = 0; r < ds.num_records(); ++r) {
    EXPECT_EQ(view.record_triples()[r], ds.records()[r].triple);
    EXPECT_EQ(view.record_extractors()[r], ds.records()[r].prov.extractor);
    EXPECT_EQ(view.record_urls()[r], ds.records()[r].prov.url);
    EXPECT_EQ(view.record_confidence(r), ds.records()[r].confidence);
    // Derived-or-explicit per-record fields (kTsv mixes records with and
    // without a pattern column, so the explicit pattern block is present
    // while site and predicate come from the derivation path).
    EXPECT_EQ(view.record_site(r), ds.records()[r].prov.site);
    EXPECT_EQ(view.record_pattern(r), ds.records()[r].prov.pattern);
    EXPECT_EQ(view.record_predicate(r), ds.records()[r].prov.predicate);
  }
  for (size_t t = 0; t < ds.num_triples(); ++t) {
    EXPECT_EQ(view.triple_items()[t], ds.triples()[t].item);
    EXPECT_EQ(view.triple_objects()[t], ds.triples()[t].object);
  }

  // And the mmap path materializes the same corpus as the owning path.
  auto back = view.Materialize();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectCorpusEq(*corpus, *back);
  std::remove(path.c_str());
}

TEST(StoreRoundtripTest, Scale1SynthCorpusIsLosslessAndSmaller) {
  synth::SynthCorpus synth = synth::GenerateCorpus(synth::SynthConfig{});
  const std::string tsv = synth::RenderExtractionsTsv(synth.dataset);
  auto corpus = extract::ReadExtractionsTsv(tsv);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  ASSERT_GT(corpus->dataset.num_records(), 100000u)
      << "scale-1 corpus unexpectedly small";

  const std::string bytes = WriteCorpus(*corpus);
  // The columnar image must be well under the TSV size (the bench gates
  // the full >= 3x claim; this keeps the direction honest in debug too).
  EXPECT_LT(bytes.size(), tsv.size());

  auto owning = LoadCorpus(bytes);
  ASSERT_TRUE(owning.ok()) << owning.status().ToString();
  ExpectCorpusEq(*corpus, *owning);

  const std::string path = testing::TempDir() + "store_rt_scale1.kfs";
  ASSERT_TRUE(extract::WriteFile(path, bytes).ok());
  auto mapped = CorpusMmapView::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto via_map = mapped->view().Materialize();
  ASSERT_TRUE(via_map.ok()) << via_map.status().ToString();
  ExpectCorpusEq(*corpus, *via_map);
  std::remove(path.c_str());
}

// ---- fused KB --------------------------------------------------------

extract::FusedKbTsv SampleKbRows() {
  extract::FusedKbTsv kb;
  kb.method = "popaccu";
  kb.num_rounds = 7;
  kb.provenances.resize(3);
  kb.provenances[0] = {"dom@en.wikipedia.org", 0.9375, true, 12};
  kb.provenances[1] = {"txt@www.imdb.com", 0.5, false, 3};
  kb.provenances[2] = {"tbl@bad.example.com", 1.0 / 3.0, true, 1};
  kb.triples.resize(3);
  kb.triples[0] = {"TomCruise", "birth_date", "1962-07-03",
                   0.99981232, 0.97,  true,  false, true, {0, 2}};
  // Deliberately unsorted supporters: the varint-list encoding must not
  // assume ascending ids.
  kb.triples[1] = {"TomCruise", "birth_date", "1963-07-03",
                   0.25, 0.25, true, false, false, {2, 0, 1}};
  kb.triples[2] = {"TopGun", "release_year", "1986", 0.0, 0.0,
                   false, true, false, {}};
  return kb;
}

/// The columns as rows again (the schema form the sample started as).
extract::FusedKbTsv ColumnsToRows(const FusedKbColumns& c) {
  extract::FusedKbTsv kb;
  kb.method = c.method;
  kb.num_rounds = static_cast<size_t>(c.num_rounds);
  kb.provenances = c.provenances;
  for (size_t t = 0; t < c.num_triples(); ++t) {
    const uint32_t item = c.triple_item[t];
    const uint8_t flags = c.triple_flags[t];
    kb.triples.push_back(
        {c.subjects.Get(c.item_subject[item]),
         c.predicates.Get(c.item_predicate[item]),
         c.objects.Get(c.triple_object[t]), c.probability[t],
         c.calibrated[t], (flags & kKbHasProbability) != 0,
         (flags & kKbFromFallback) != 0, (flags & kKbWinner) != 0,
         std::vector<uint32_t>(
             c.supporters.begin() + c.support_offsets[t],
             c.supporters.begin() + c.support_offsets[t + 1])});
  }
  return kb;
}

TEST(StoreRoundtripTest, FusedKbRowsRoundTrip) {
  const extract::FusedKbTsv kb = SampleKbRows();
  const std::string image = WriteFusedKb(kb);
  auto back = DecodeFusedKb(image);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const extract::FusedKbTsv rows = ColumnsToRows(*back);
  EXPECT_EQ(rows.method, kb.method);
  EXPECT_EQ(rows.num_rounds, kb.num_rounds);
  EXPECT_EQ(rows.provenances, kb.provenances);
  EXPECT_EQ(rows.triples, kb.triples);
  // The decoded columns are the rows' canonical columns: they encode to
  // the very same image.
  EXPECT_EQ(EncodeFusedKb(*back), image);
}

TEST(StoreRoundtripTest, FusedKbViewServesColumns) {
  const extract::FusedKbTsv kb = SampleKbRows();
  const std::string path = testing::TempDir() + "store_rt_kb.kfs";
  ASSERT_TRUE(extract::WriteFile(path, WriteFusedKb(kb)).ok());
  auto bytes = extract::ReadFile(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  auto cols = DecodeFusedKb(*bytes);
  ASSERT_TRUE(cols.ok()) << cols.status().ToString();
  EXPECT_EQ(cols->method, "popaccu");
  EXPECT_EQ(cols->num_rounds, 7u);
  ASSERT_EQ(cols->num_triples(), 3u);
  ASSERT_EQ(cols->provenances.size(), 3u);
  // Two triples share the (TomCruise, birth_date) item.
  ASSERT_EQ(cols->num_items(), 2u);
  EXPECT_EQ(cols->triple_item, (std::vector<uint32_t>{0, 0, 1}));
  EXPECT_EQ(cols->subjects.Get(cols->item_subject[0]), "TomCruise");
  EXPECT_EQ(cols->predicates.Get(cols->item_predicate[1]), "release_year");
  EXPECT_EQ(cols->objects.Get(cols->triple_object[2]), "1986");
  EXPECT_EQ(cols->provenances[1].description, "txt@www.imdb.com");
  EXPECT_EQ(cols->probability[0], 0.99981232);
  EXPECT_EQ(cols->provenances[2].accuracy, 1.0 / 3.0);
  EXPECT_EQ(cols->triple_flags[2], kKbFromFallback);
  // The supporter CSR, unsorted list included, exactly as written.
  EXPECT_EQ(cols->support_offsets, (std::vector<uint32_t>{0, 2, 5, 5}));
  EXPECT_EQ(cols->supporters, (std::vector<uint32_t>{0, 2, 2, 0, 1}));
  std::remove(path.c_str());
}

FusedKB SnapshotDemo() {
  auto corpus = extract::ReadExtractionsTsv(kTsv);
  EXPECT_TRUE(corpus.ok());
  Session session = Session::Borrow(corpus->dataset);
  fusion::FusionOptions options;
  options.method_name = "popaccu";
  EXPECT_TRUE(session.Fuse(options).ok());
  Result<FusedKB> kb = session.Snapshot(SnapshotNaming::FromCorpus(*corpus));
  EXPECT_TRUE(kb.ok());
  return std::move(kb).value();
}

TEST(StoreRoundtripTest, FusedKbBinaryEqualsTsvImport) {
  FusedKB kb = SnapshotDemo();

  Result<FusedKB> via_bin = FusedKB::FromBinary(kb.ToBinary());
  ASSERT_TRUE(via_bin.ok()) << via_bin.status().ToString();
  EXPECT_TRUE(kb == *via_bin);

  Result<FusedKB> via_tsv = FusedKB::FromTsv(kb.ToTsv());
  ASSERT_TRUE(via_tsv.ok());
  EXPECT_TRUE(*via_bin == *via_tsv);
}

TEST(StoreRoundtripTest, FusedKbExportImportBinaryFile) {
  FusedKB kb = SnapshotDemo();
  const std::string path = testing::TempDir() + "store_rt_export.kfs";
  ASSERT_TRUE(kb.ExportBinary(path).ok());
  Result<FusedKB> back = FusedKB::ImportBinary(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(kb == *back);
  std::remove(path.c_str());
}

TEST(StoreRoundtripTest, FileLoadErrorsNameThePath) {
  auto missing = LoadCorpusFile("/nonexistent/dir/corpus.kfs");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("/nonexistent/dir/corpus.kfs"),
            std::string::npos);

  const std::string path = testing::TempDir() + "store_rt_badkind.kfs";
  ASSERT_TRUE(extract::WriteFile(path, WriteFusedKb(SampleKbRows())).ok());
  // A fused-KB image fed to the corpus loader: clean kind mismatch that
  // names the offending file.
  auto wrong_kind = LoadCorpusFile(path);
  ASSERT_FALSE(wrong_kind.ok());
  EXPECT_NE(wrong_kind.status().message().find(path), std::string::npos);
  EXPECT_NE(wrong_kind.status().message().find("content kind"),
            std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kf::store
