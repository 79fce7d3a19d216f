// Hostile-input contract of kf::store: every corruption — flipped magic,
// wrong version, truncation at any byte, bit flips under the checksums,
// out-of-range dictionary ids, bogus enum values, non-canonical fused-KB
// dictionaries — loads to a clean Status, never a crash or out-of-bounds
// read. The suite runs under ASan
// in CI, so "never reads past the buffer" is machine-checked, not
// asserted by eyeball.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "extract/tsv_io.h"
#include "kf/fused_kb.h"
#include "store/format.h"
#include "store/shard_store.h"
#include "store/store.h"

namespace kf::store {
namespace {

constexpr const char* kTsv =
    "TomCruise\tbirth_date\t1962-07-03\tdom\thttps://en.wikipedia.org/tc\t"
    "0.95\n"
    "TomCruise\tbirth_date\t1963-07-03\ttxt\thttps://fan.example.com/tc\t"
    "0.40\n"
    "TopGun\trelease_year\t1986\ttbl\thttps://en.wikipedia.org/tg\n";

std::string ValidCorpusImage() {
  auto corpus = extract::ReadExtractionsTsv(kTsv);
  EXPECT_TRUE(corpus.ok());
  return WriteCorpus(*corpus);
}

/// Mutates the payload of block `id` in a serialized image via `mutate`,
/// then re-stamps the payload CRC and the TOC CRC so the corruption is
/// "consistent" — it must be caught by semantic validation, not by the
/// checksums.
std::string PatchBlock(std::string bytes, BlockId id,
                       void (*mutate)(char* payload, size_t size)) {
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  BlockEntry* toc = reinterpret_cast<BlockEntry*>(&bytes[header.toc_offset]);
  for (uint32_t i = 0; i < header.toc_count; ++i) {
    if (toc[i].id == static_cast<uint32_t>(id)) {
      mutate(&bytes[toc[i].offset], toc[i].size);
      toc[i].crc32 = Crc32(&bytes[toc[i].offset], toc[i].size);
      break;
    }
  }
  header.toc_crc32 = Crc32(&bytes[header.toc_offset],
                           header.toc_count * sizeof(BlockEntry));
  std::memcpy(bytes.data(), &header, sizeof(header));
  return bytes;
}

/// Rewrites the TOC `rows` of block `id` (payload untouched) and
/// re-stamps the TOC CRC, so only row-count validation can object.
std::string PatchTocRows(std::string bytes, BlockId id, uint64_t rows) {
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  BlockEntry* toc = reinterpret_cast<BlockEntry*>(&bytes[header.toc_offset]);
  for (uint32_t i = 0; i < header.toc_count; ++i) {
    if (toc[i].id == static_cast<uint32_t>(id)) toc[i].rows = rows;
  }
  header.toc_crc32 = Crc32(&bytes[header.toc_offset],
                           header.toc_count * sizeof(BlockEntry));
  std::memcpy(bytes.data(), &header, sizeof(header));
  return bytes;
}

void ExpectCleanFailure(const std::string& bytes) {
  auto result = LoadCorpus(bytes);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.status().message().empty());
}

TEST(StoreCorruptionTest, FlippedMagicIsRejected) {
  std::string bytes = ValidCorpusImage();
  bytes[0] ^= 0x40;
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("magic"), std::string::npos);
}

TEST(StoreCorruptionTest, UnsupportedVersionIsRejected) {
  std::string bytes = ValidCorpusImage();
  const uint32_t version = 99;
  std::memcpy(&bytes[8], &version, sizeof(version));  // FileHeader.version
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("version 99"), std::string::npos);
}

TEST(StoreCorruptionTest, TruncationAtEveryPrefixFailsCleanly) {
  const std::string bytes = ValidCorpusImage();
  // Every 7-byte step plus the structurally interesting boundaries.
  for (size_t len = 0; len < bytes.size(); len += 7) {
    ExpectCleanFailure(bytes.substr(0, len));
  }
  ExpectCleanFailure(bytes.substr(0, sizeof(FileHeader) - 1));
  ExpectCleanFailure(bytes.substr(0, sizeof(FileHeader)));
  ExpectCleanFailure(bytes.substr(0, bytes.size() - 1));
  // And bytes appended past the recorded file size are equally rejected.
  ExpectCleanFailure(bytes + "trailing garbage");
}

TEST(StoreCorruptionTest, PayloadBitFlipFailsTheChecksum) {
  // Flip one bit inside an actual block payload (not the inter-block
  // padding, which carries no data) — the block CRC must catch it.
  std::string bytes = ValidCorpusImage();
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  const BlockEntry* toc =
      reinterpret_cast<const BlockEntry*>(&bytes[header.toc_offset]);
  for (uint32_t i = 0; i < header.toc_count; ++i) {
    if (toc[i].size > 0) {
      bytes[toc[i].offset] ^= 0x01;
      break;
    }
  }
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos);
}

TEST(StoreCorruptionTest, TocBitFlipFailsTheChecksum) {
  std::string bytes = ValidCorpusImage();
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  bytes[header.toc_offset + 4] ^= 0x01;
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_NE(result.status().message().find("block table"), std::string::npos);
}

TEST(StoreCorruptionTest, DictionaryIdOutOfRangeIsRejected) {
  // A record's URL id pointing past the URL dictionary, with all
  // checksums re-stamped: caught by the cross-reference validation.
  // (0xff every packed element — id 255+ in a 3-record corpus is always
  // out of range, whatever byte width the writer chose.)
  std::string bytes = PatchBlock(
      ValidCorpusImage(), BlockId::kRecordUrl,
      [](char* payload, size_t size) { std::memset(payload, 0xff, size); });
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("out of range"),
            std::string::npos);
}

TEST(StoreCorruptionTest, TripleObjectOutOfRangeIsRejected) {
  std::string bytes = PatchBlock(
      ValidCorpusImage(), BlockId::kTripleObject,
      [](char* payload, size_t size) { std::memset(payload, 0xff, size); });
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(StoreCorruptionTest, PackedWidthMismatchIsRejected) {
  // Shrink a packed block's row count so size no longer divides into
  // rows (re-stamping the TOC CRC): structural validation, not a crash.
  std::string bytes = ValidCorpusImage();
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  BlockEntry* toc = reinterpret_cast<BlockEntry*>(&bytes[header.toc_offset]);
  for (uint32_t i = 0; i < header.toc_count; ++i) {
    if (toc[i].id == static_cast<uint32_t>(BlockId::kRecordUrl)) {
      ASSERT_GT(toc[i].rows, 1u);
      toc[i].rows -= 1;  // 3 records -> 2 rows over a 3-element payload
    }
  }
  header.toc_crc32 = Crc32(&bytes[header.toc_offset],
                           header.toc_count * sizeof(BlockEntry));
  std::memcpy(bytes.data(), &header, sizeof(header));
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(StoreCorruptionTest, FixedPointConfidenceAboveScaleIsRejected) {
  // The sample confidences fit the fixed-point encoding; 0xff-filling the
  // column produces values far above the 10000 scale.
  std::string bytes = PatchBlock(
      ValidCorpusImage(), BlockId::kRecordConfidence,
      [](char* payload, size_t size) { std::memset(payload, 0xff, size); });
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("above scale"), std::string::npos);
}

TEST(StoreCorruptionTest, UnknownValueKindIsRejected) {
  std::string bytes = PatchBlock(ValidCorpusImage(), BlockId::kValueKind,
                                 [](char* payload, size_t) {
                                   payload[0] = 9;  // no such ValueKind
                                 });
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("value kind"), std::string::npos);
}

TEST(StoreCorruptionTest, UnknownRecordErrorClassIsRejected) {
  std::string bytes = PatchBlock(ValidCorpusImage(), BlockId::kRecordFlags,
                                 [](char* payload, size_t) {
                                   payload[0] = static_cast<char>(0xfe);
                                 });
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("error class"),
            std::string::npos);
}

TEST(StoreCorruptionTest, StringOffsetsOutOfRangeAreRejected) {
  // First URL dictionary offset bumped past the bytes area: the offset
  // table validation must reject it before any substr.
  std::string bytes = PatchBlock(
      ValidCorpusImage(), BlockId::kDictUrls,
      [](char* payload, size_t size) {
        const uint32_t huge = static_cast<uint32_t>(size + 1000);
        std::memcpy(payload + sizeof(uint32_t), &huge, sizeof(huge));
      });
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(StoreCorruptionTest, MissingBlockIsRejected) {
  // Retag the record-triple column as an unknown block id: readers skip
  // unknown blocks (forward compat), so the required one is now missing.
  std::string bytes = ValidCorpusImage();
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  BlockEntry* toc = reinterpret_cast<BlockEntry*>(&bytes[header.toc_offset]);
  for (uint32_t i = 0; i < header.toc_count; ++i) {
    if (toc[i].id == static_cast<uint32_t>(BlockId::kRecordTriple)) {
      toc[i].id = 9999;
    }
  }
  header.toc_crc32 = Crc32(&bytes[header.toc_offset],
                           header.toc_count * sizeof(BlockEntry));
  std::memcpy(bytes.data(), &header, sizeof(header));
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("missing block"),
            std::string::npos);
}

TEST(StoreCorruptionTest, DictRowCountOverflowIsRejected) {
  // Huge dictionary row counts make the u32 offset-table sizing wrap
  // (2^62 - 1 wraps (rows + 1) * 4 to 0; UINT64_MAX wraps rows + 1) —
  // each once produced a ~2^62-entry "offset table" scanned far past the
  // mapping. Both must be rejected by the sizing check instead.
  for (const uint64_t rows : {(1ull << 62) - 1, ~0ull}) {
    std::string bytes =
        PatchTocRows(ValidCorpusImage(), BlockId::kDictUrls, rows);
    auto result = LoadCorpus(bytes);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("offset table"),
              std::string::npos);
  }
}

TEST(StoreCorruptionTest, SupportOffsetRowInflationIsRejected) {
  extract::FusedKbTsv kb;
  kb.method = "vote";
  kb.provenances.resize(1);
  kb.provenances[0] = {"a", 0.5, false, 1};
  kb.triples.resize(1);
  kb.triples[0] = {"s", "p", "o", 0.5, 0.5, true, false, true, {0}};
  // An inflated delta-varint row count is caught by the rows-vs-payload
  // bound, not by attempting a 2^62-entry allocation.
  std::string bytes = PatchTocRows(WriteFusedKb(kb),
                                   BlockId::kKbSupportOffsets, 1ull << 62);
  auto result = DecodeFusedKb(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(StoreCorruptionTest, FusedKbSupporterOutOfRangeIsRejected) {
  extract::FusedKbTsv kb;
  kb.method = "vote";
  kb.provenances.resize(2);
  kb.provenances[0] = {"a", 0.5, false, 1};
  kb.provenances[1] = {"b", 0.5, false, 1};
  kb.triples.resize(1);
  kb.triples[0] = {"s", "p", "o", 0.5, 0.5, true, false, true, {1}};
  std::string bytes = WriteFusedKb(kb);

  // Patch the single supporter varint (value 1, one byte) to 99 — still
  // one varint byte, but past the two provenances.
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  BlockEntry* toc = reinterpret_cast<BlockEntry*>(&bytes[header.toc_offset]);
  for (uint32_t i = 0; i < header.toc_count; ++i) {
    if (toc[i].id == static_cast<uint32_t>(BlockId::kKbSupporters)) {
      ASSERT_EQ(toc[i].size, 1u);
      bytes[toc[i].offset] = 99;
      toc[i].crc32 = Crc32(&bytes[toc[i].offset], toc[i].size);
    }
  }
  header.toc_crc32 = Crc32(&bytes[header.toc_offset],
                           header.toc_count * sizeof(BlockEntry));
  std::memcpy(bytes.data(), &header, sizeof(header));

  auto result = DecodeFusedKb(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("out of range"),
            std::string::npos);
}

// ---- fused-KB images: canonical dictionaries, validated values --------

/// Two values of one data item, both claimed by provenance 0; "o1" wins.
extract::FusedKbTsv TwoValueKb() {
  extract::FusedKbTsv kb;
  kb.method = "accu";
  kb.provenances.resize(1);
  kb.provenances[0] = {"a", 0.5, false, 2};
  kb.triples.resize(2);
  kb.triples[0] = {"s", "p", "o1", 0.9, 0.9, true, false, true, {0}};
  kb.triples[1] = {"s", "p", "o2", 0.1, 0.1, true, false, false, {0}};
  return kb;
}

/// Expects DecodeFusedKb to reject `bytes` with a message holding `what`.
void ExpectDecodeRejects(const std::string& bytes, const std::string& what) {
  auto result = DecodeFusedKb(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find(what), std::string::npos)
      << result.status().message();
}

TEST(StoreCorruptionTest, FusedKbDuplicateDictionaryEntryIsRejected) {
  // "o2" becomes "o1": two object ids name one string.
  ExpectDecodeRejects(
      PatchBlock(WriteFusedKb(TwoValueKb()), BlockId::kKbDictObjects,
                 [](char* payload, size_t size) { payload[size - 1] = '1'; }),
      "duplicate object entry 1");
}

TEST(StoreCorruptionTest, FusedKbUnusedDictionaryEntryIsRejected) {
  // Both triples name object 0; "o2" is never used.
  ExpectDecodeRejects(
      PatchBlock(WriteFusedKb(TwoValueKb()), BlockId::kKbTripleObject,
                 [](char* payload, size_t size) {
                   std::memset(payload, 0, size);
                 }),
      "object entry 1 is never used");
}

TEST(StoreCorruptionTest, FusedKbIdsOutOfFirstUseOrderAreRejected) {
  // Triple 0 names object 1 before any triple named object 0.
  ExpectDecodeRejects(
      PatchBlock(WriteFusedKb(TwoValueKb()), BlockId::kKbTripleObject,
                 [](char* payload, size_t size) {
                   ASSERT_EQ(size, 2u);  // two 1-byte ids
                   payload[0] = 1;
                   payload[1] = 0;
                 }),
      "object id 1 used before id 0");
}

TEST(StoreCorruptionTest, NonzeroReservedFieldIsRejected) {
  ShardFileColumns shard;
  const uint32_t zero = 0;
  shard.item_offsets = {&zero, 1};
  std::string bytes = BuildShardFile(shard);
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  BlockEntry* toc = reinterpret_cast<BlockEntry*>(&bytes[header.toc_offset]);
  toc[header.toc_count - 1].reserved = 1;
  header.toc_crc32 = Crc32(&bytes[header.toc_offset],
                           header.toc_count * sizeof(BlockEntry));
  std::memcpy(bytes.data(), &header, sizeof(header));
  auto file = BlockFile::Parse(bytes, ContentKind::kClaimShard);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(file.status().message().find("reserved"), std::string::npos);
}

TEST(StoreCorruptionTest, FusedKbProbabilityOutsideUnitIntervalIsRejected) {
  extract::FusedKbTsv kb = TwoValueKb();
  kb.triples[0].probability = 1.5;
  const std::string bytes = WriteFusedKb(kb);
  // The decoder takes values as stored; the KB's constructor rejects.
  ASSERT_TRUE(DecodeFusedKb(bytes).ok());
  auto result = FusedKB::FromBinary(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("outside [0,1]"),
            std::string::npos)
      << result.status().message();
}

TEST(StoreCorruptionTest, FusedKbInconsistentWinnerBitIsRejected) {
  extract::FusedKbTsv kb = TwoValueKb();
  kb.triples[0].winner = false;  // the 0.1 value marked as the winner
  kb.triples[1].winner = true;
  const std::string bytes = WriteFusedKb(kb);
  ASSERT_TRUE(DecodeFusedKb(bytes).ok());
  auto result = FusedKB::FromBinary(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("winner flag"), std::string::npos)
      << result.status().message();
}

TEST(StoreCorruptionTest, MmapOpenOnCorruptFileFailsCleanly) {
  const std::string path = testing::TempDir() + "store_corrupt.kfs";
  std::string bytes = ValidCorpusImage();
  bytes[0] ^= 0x40;
  ASSERT_TRUE(extract::WriteFile(path, bytes).ok());
  auto mapped = CorpusMmapView::Open(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().message().find(path), std::string::npos);
  std::remove(path.c_str());

  // And an empty file (mmap's zero-length special case).
  ASSERT_TRUE(extract::WriteFile(path, "").ok());
  auto empty = CorpusMmapView::Open(path);
  EXPECT_FALSE(empty.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kf::store
