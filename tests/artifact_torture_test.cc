// Artifact torture suite: every way a ".cpdb" (v1/v2/v3) or ".cpdd" delta
// file can be damaged on disk must surface as a *typed* error — never a
// crash, never an over-allocation sized by a forged header, never a silent
// mis-load. Both decode paths are driven for every corruption: the heap
// codec (DecodeModelArtifact / DecodeModelDelta) and, for v3, the zero-copy
// loader (MappedModelArtifact::Open on a real temp file). The truncation
// and header bit-flip corpora also go through serve::LoadModelBundle, the
// serving loader that up-converts v1/v2 and text models to a v3 image:
// each case ends in a typed error or a valid index. The corruption
// taxonomy mirrors dist_wire_test: bad magic / foreign endianness /
// corrupt header fields are InvalidArgument, a newer version is
// Unimplemented, truncation and out-of-bounds sections are OutOfRange, and
// mapping a pre-v3 artifact is FailedPrecondition.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "artifact_test_util.h"
#include "core/cpd_model.h"
#include "core/model_artifact.h"
#include "core/model_delta.h"
#include "core/model_state.h"
#include "serve/profile_index.h"
#include "util/file_util.h"

namespace cpd {
namespace {

// ----- byte-surgery helpers -----

template <typename T>
T ReadLE(const std::string& bytes, size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

template <typename T>
void WriteLE(std::string* bytes, size_t offset, T value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

// v3 fixed-header geometry (model_artifact.h wire spec).
constexpr size_t kFixedHeader = 76;
constexpr size_t kTableEntry = 24;
constexpr size_t kChecksumOffset = 64;
constexpr size_t kSectionCountOffset = 56;

// FNV-1a 32 over the fixed header + section table with the checksum field
// read as zero — the reference implementation the codec must match.
uint32_t V3HeaderChecksum(const std::string& bytes) {
  const uint32_t count = ReadLE<uint32_t>(bytes, kSectionCountOffset);
  // Clamped for forged section counts: the parser rejects a table that
  // does not fit before it ever verifies the checksum.
  const size_t end =
      std::min(bytes.size(), kFixedHeader + kTableEntry * size_t{count});
  uint32_t hash = 2166136261u;
  for (size_t i = 0; i < end; ++i) {
    const bool in_hole = i >= kChecksumOffset && i < kChecksumOffset + 4;
    const uint8_t byte =
        in_hole ? 0 : static_cast<uint8_t>(bytes[i]);
    hash = (hash ^ byte) * 16777619u;
  }
  return hash;
}

/// Re-stamps the checksum after a deliberate header edit, so the test
/// reaches the *deeper* validation the edit targets.
void FixV3Checksum(std::string* bytes) {
  WriteLE<uint32_t>(bytes, kChecksumOffset, V3HeaderChecksum(*bytes));
}

// A fabricated-but-valid artifact: small dims, deterministic values,
// optionally a bundled vocabulary. Validate() checks shapes only, so any
// bit pattern exercises the codec.
ModelArtifact MakeArtifact(bool with_vocab) {
  ModelArtifact artifact;
  artifact.num_communities = 4;
  artifact.num_topics = 3;
  artifact.num_users = 7;
  artifact.vocab_size = 5;
  artifact.num_time_bins = 2;
  artifact.generation = 11;
  auto fill = [](std::vector<double>* v, size_t n, double scale) {
    v->resize(n);
    for (size_t i = 0; i < n; ++i) (*v)[i] = scale / (1.0 + i);
  };
  fill(&artifact.pi, 7 * 4, 1.0);
  fill(&artifact.theta, 4 * 3, 2.0);
  fill(&artifact.phi, 3 * 5, 3.0);
  fill(&artifact.eta, 4 * 4 * 3, 4.0);
  fill(&artifact.weights, static_cast<size_t>(kNumDiffusionWeights), 5.0);
  fill(&artifact.popularity, 2 * 3, 6.0);
  if (with_vocab) {
    artifact.vocab_words = {"alpha", "beta", "gamma", "delta", ""};
    artifact.vocab_frequencies = {9, 7, 5, 3, 1};
  }
  return artifact;
}

std::string EncodeV3(const ModelArtifact& artifact, uint32_t top_k = 2,
                     uint32_t alignment = 64) {
  ArtifactWriteOptions options;
  options.derived_top_k = top_k;
  options.section_alignment = alignment;  // Small => compact torture files.
  auto bytes = EncodeModelArtifact(artifact, options);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return *bytes;
}

bool IsTypedFailure(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
    case StatusCode::kUnimplemented:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kIOError:
      return true;
    default:
      return false;
  }
}

class ArtifactTortureTest : public ::testing::Test {
 protected:
  static std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }

  /// mmap-opens `bytes` from a real file; the shared_ptr keeps the mapping
  /// alive for inspection.
  static StatusOr<std::shared_ptr<const MappedModelArtifact>> MmapOpen(
      const std::string& bytes, const std::string& name) {
    const std::string path = TempPath(name);
    const Status written = WriteStringToFile(path, bytes);
    EXPECT_TRUE(written.ok()) << written.ToString();
    return MappedModelArtifact::Open(path);
  }

  /// Loads `bytes` from a real file through serve::LoadModelBundle. The
  /// outcome must be a typed error or a valid index (every row readable —
  /// ASan sees any span that outruns the image); returns whether it loaded.
  static bool BundleLoads(const std::string& bytes, const std::string& name) {
    const std::string path = TempPath(name);
    const Status written = WriteStringToFile(path, bytes);
    EXPECT_TRUE(written.ok()) << written.ToString();
    const auto bundle = serve::LoadModelBundle(path);
    if (!bundle.ok()) {
      EXPECT_TRUE(IsTypedFailure(bundle.status()))
          << "untyped bundle error " << bundle.status().ToString();
      return false;
    }
    const serve::ProfileIndex& index = bundle->index;
    double sum = 0.0;
    for (size_t u = 0; u < index.num_users(); ++u) {
      for (const double weight : index.Membership(static_cast<UserId>(u))) {
        sum += weight;
      }
      for (const auto& top : index.TopCommunities(static_cast<UserId>(u))) {
        EXPECT_GE(top.community, 0);
        EXPECT_LT(top.community, index.num_communities());
      }
    }
    for (int z = 0; z < index.num_topics(); ++z) {
      for (const double weight : index.TopicWords(z)) sum += weight;
    }
    volatile double sink = sum;  // Keeps the reads.
    (void)sink;
    return true;
  }

  /// Asserts both decode paths reject `bytes` with a typed status.
  static void ExpectBothPathsReject(const std::string& bytes,
                                    const std::string& file_tag,
                                    const char* what) {
    const auto decoded = DecodeModelArtifact(bytes);
    ASSERT_FALSE(decoded.ok()) << what << ": heap decode accepted";
    EXPECT_TRUE(IsTypedFailure(decoded.status()))
        << what << ": untyped heap error " << decoded.status().ToString();
    const auto mapped = MmapOpen(bytes, file_tag);
    ASSERT_FALSE(mapped.ok()) << what << ": mmap open accepted";
    EXPECT_TRUE(IsTypedFailure(mapped.status()))
        << what << ": untyped mmap error " << mapped.status().ToString();
  }
};

// ----- every-prefix truncation -----

TEST_F(ArtifactTortureTest, EveryV3PrefixIsRejectedByBothPaths) {
  const std::string bytes = EncodeV3(MakeArtifact(/*with_vocab=*/true));
  ASSERT_GT(bytes.size(), kFixedHeader);
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    const std::string prefix = bytes.substr(0, keep);
    const auto decoded = DecodeModelArtifact(prefix);
    ASSERT_FALSE(decoded.ok()) << "prefix " << keep << " decoded";
    EXPECT_TRUE(IsTypedFailure(decoded.status()))
        << "prefix " << keep << ": " << decoded.status().ToString();
    const auto mapped = MmapOpen(prefix, "prefix_v3.cpdb");
    ASSERT_FALSE(mapped.ok()) << "prefix " << keep << " mapped";
    EXPECT_TRUE(IsTypedFailure(mapped.status()))
        << "prefix " << keep << ": " << mapped.status().ToString();
  }
}

TEST_F(ArtifactTortureTest, EveryLegacyPrefixIsRejected) {
  for (const uint32_t version : {1u, 2u}) {
    const std::string bytes = testing::EncodeLegacyArtifact(
        MakeArtifact(/*with_vocab=*/version >= 2), version);
    for (size_t keep = 0; keep < bytes.size(); ++keep) {
      const auto decoded = DecodeModelArtifact(bytes.substr(0, keep));
      ASSERT_FALSE(decoded.ok())
          << "v" << version << " prefix " << keep << " decoded";
      EXPECT_TRUE(IsTypedFailure(decoded.status()))
          << "v" << version << " prefix " << keep << ": "
          << decoded.status().ToString();
      // The up-converting serving loader rejects it too.
      EXPECT_FALSE(BundleLoads(bytes.substr(0, keep), "prefix_legacy.cpdb"))
          << "v" << version << " prefix " << keep << " loaded";
    }
    EXPECT_TRUE(BundleLoads(bytes, "legacy_whole.cpdb")) << "v" << version;
  }
  // One text model: a prefix may still parse (a cut inside the last number
  // is a shorter number), so each must be a typed error or a valid index.
  auto model = CpdModel::FromArtifact(MakeArtifact(/*with_vocab=*/false));
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const std::string text_path = TempPath("torture_text.cpd");
  ASSERT_TRUE(model->SaveToFile(text_path).ok());
  auto text = ReadFileToString(text_path);
  ASSERT_TRUE(text.ok());
  for (size_t keep = 0; keep < text->size(); ++keep) {
    SCOPED_TRACE(::testing::Message() << "text prefix " << keep);
    BundleLoads(text->substr(0, keep), "prefix_text.cpd");
  }
  EXPECT_TRUE(BundleLoads(*text, "text_whole.cpd"));
}

TEST_F(ArtifactTortureTest, EveryDeltaPrefixIsRejected) {
  auto delta = BuildModelDelta(MakeArtifact(/*with_vocab=*/true), [] {
    ModelArtifact target = MakeArtifact(/*with_vocab=*/true);
    target.generation = 12;
    target.pi[3] += 0.25;
    return target;
  }());
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  auto bytes = EncodeModelDelta(*delta);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  for (size_t keep = 0; keep < bytes->size(); ++keep) {
    const auto decoded = DecodeModelDelta(bytes->substr(0, keep));
    ASSERT_FALSE(decoded.ok()) << "prefix " << keep << " decoded";
    EXPECT_TRUE(IsTypedFailure(decoded.status()))
        << "prefix " << keep << ": " << decoded.status().ToString();
  }
}

// ----- exhaustive single-bit header corruption -----

// FNV-1a over the header+table changes under any single-byte edit and every
// pre-checksum check is order-stable, so flipping each bit of the covered
// range without re-stamping the checksum must always be rejected.
TEST_F(ArtifactTortureTest, EveryHeaderBitFlipIsRejectedByBothPaths) {
  const std::string bytes = EncodeV3(MakeArtifact(/*with_vocab=*/true));
  const uint32_t count = ReadLE<uint32_t>(bytes, kSectionCountOffset);
  const size_t covered = kFixedHeader + kTableEntry * count;
  ASSERT_LE(covered, bytes.size());
  for (size_t byte = 0; byte < covered; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      SCOPED_TRACE(::testing::Message() << "byte " << byte << " bit " << bit);
      const auto decoded = DecodeModelArtifact(corrupt);
      ASSERT_FALSE(decoded.ok());
      EXPECT_TRUE(IsTypedFailure(decoded.status()))
          << decoded.status().ToString();
      EXPECT_FALSE(BundleLoads(corrupt, "bitflip_bundle.cpdb"));
    }
  }
  // v1/v2 carry no checksum, so a flipped legacy header bit may still
  // describe a loadable file: through the up-converting loader each must
  // be a typed error or a valid index.
  constexpr size_t kLegacyHeader = 52;
  for (const uint32_t version : {1u, 2u}) {
    const std::string legacy = testing::EncodeLegacyArtifact(
        MakeArtifact(/*with_vocab=*/version >= 2), version);
    for (size_t byte = 0; byte < kLegacyHeader; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string corrupt = legacy;
        corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
        SCOPED_TRACE(::testing::Message() << "v" << version << " byte "
                                          << byte << " bit " << bit);
        BundleLoads(corrupt, "bitflip_legacy.cpdb");
      }
    }
  }
  // Spot-check the mmap loader agrees on a checksum-only flip (both paths
  // share ParseV3Layout; the exhaustive sweep above already proves the
  // shared validation).
  std::string corrupt = bytes;
  corrupt[kChecksumOffset] = static_cast<char>(corrupt[kChecksumOffset] ^ 1);
  const auto mapped = MmapOpen(corrupt, "bitflip_v3.cpdb");
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mapped.status().message().find("checksum"), std::string::npos)
      << mapped.status().ToString();
}

TEST_F(ArtifactTortureTest, EveryDeltaHeaderBitFlipIsRejected) {
  ModelArtifact target = MakeArtifact(/*with_vocab=*/true);
  target.generation = 12;
  target.pi[0] += 0.5;
  auto delta = BuildModelDelta(MakeArtifact(/*with_vocab=*/true), target);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  auto bytes = EncodeModelDelta(*delta);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  constexpr size_t kDeltaHeader = 96;
  ASSERT_GE(bytes->size(), kDeltaHeader);
  for (size_t byte = 0; byte < kDeltaHeader; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = *bytes;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      SCOPED_TRACE(::testing::Message() << "byte " << byte << " bit " << bit);
      const auto decoded = DecodeModelDelta(corrupt);
      ASSERT_FALSE(decoded.ok());
      EXPECT_TRUE(IsTypedFailure(decoded.status()))
          << decoded.status().ToString();
    }
  }
}

// ----- targeted header-field forgeries (checksum re-stamped) -----

TEST_F(ArtifactTortureTest, ForgedNewerVersionIsUnimplemented) {
  std::string bytes = EncodeV3(MakeArtifact(/*with_vocab=*/false));
  WriteLE<uint32_t>(&bytes, 8, kModelArtifactVersion + 1);
  FixV3Checksum(&bytes);
  const auto decoded = DecodeModelArtifact(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kUnimplemented);
  const auto mapped = MmapOpen(bytes, "newer.cpdb");
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kUnimplemented);
}

TEST_F(ArtifactTortureTest, ForeignEndianTagIsInvalidArgument) {
  std::string bytes = EncodeV3(MakeArtifact(/*with_vocab=*/false));
  WriteLE<uint32_t>(&bytes, 12, 0x04030201u);  // Byte-swapped tag.
  FixV3Checksum(&bytes);
  const auto decoded = DecodeModelArtifact(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("byte order"), std::string::npos);
  const auto mapped = MmapOpen(bytes, "endian.cpdb");
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ArtifactTortureTest, ForgedDimensionsCannotSizeAllocations) {
  struct Forgery {
    size_t offset;
    uint64_t value;
    size_t width;  // 4 or 8.
    const char* what;
  };
  const Forgery forgeries[] = {
      {16, 0, 4, "zero communities"},
      {16, 0x80000000u, 4, "negative communities"},
      {20, 0, 4, "zero topics"},
      {24, ~0ull, 8, "absurd user count"},
      {32, ~0ull >> 1, 8, "absurd vocabulary"},
      {40, 0, 4, "zero time bins"},
      {44, 999, 8, "wrong diffusion weight count"},
      {52, 24, 4, "non-power-of-two alignment"},
      {52, 4, 4, "alignment below the floor"},
      {52, 1u << 25, 4, "alignment above the cap"},
      {56, 0, 4, "zero sections"},
      {56, 65, 4, "too many sections"},
      {56, 0x10000000u, 4, "section count overflowing the table"},
  };
  const std::string pristine = EncodeV3(MakeArtifact(/*with_vocab=*/true));
  for (const Forgery& forgery : forgeries) {
    std::string bytes = pristine;
    if (forgery.width == 4) {
      WriteLE<uint32_t>(&bytes, forgery.offset,
                        static_cast<uint32_t>(forgery.value));
    } else {
      WriteLE<uint64_t>(&bytes, forgery.offset, forgery.value);
    }
    FixV3Checksum(&bytes);
    ExpectBothPathsReject(bytes, "forged_dims.cpdb", forgery.what);
  }
}

TEST_F(ArtifactTortureTest, ForgedDerivedTopKBreaksSectionSizes) {
  // The derived sections were sized for top_k=2; claiming 3 must fail the
  // size-vs-dims check instead of serving mis-shaped postings.
  std::string bytes = EncodeV3(MakeArtifact(/*with_vocab=*/false),
                               /*top_k=*/2);
  WriteLE<uint32_t>(&bytes, 60, 3);
  FixV3Checksum(&bytes);
  ExpectBothPathsReject(bytes, "forged_topk.cpdb", "forged derived_top_k");
}

// ----- section-table forgeries -----

struct TableEntry {
  uint32_t id;
  uint32_t reserved;
  uint64_t offset;
  uint64_t length;
};

TableEntry ReadEntry(const std::string& bytes, size_t index) {
  const size_t base = kFixedHeader + index * kTableEntry;
  return {ReadLE<uint32_t>(bytes, base), ReadLE<uint32_t>(bytes, base + 4),
          ReadLE<uint64_t>(bytes, base + 8),
          ReadLE<uint64_t>(bytes, base + 16)};
}

void WriteEntry(std::string* bytes, size_t index, const TableEntry& entry) {
  const size_t base = kFixedHeader + index * kTableEntry;
  WriteLE<uint32_t>(bytes, base, entry.id);
  WriteLE<uint32_t>(bytes, base + 4, entry.reserved);
  WriteLE<uint64_t>(bytes, base + 8, entry.offset);
  WriteLE<uint64_t>(bytes, base + 16, entry.length);
}

TEST_F(ArtifactTortureTest, SectionTableForgeriesAreRejectedWithNames) {
  const std::string pristine = EncodeV3(MakeArtifact(/*with_vocab=*/true));
  const uint32_t count = ReadLE<uint32_t>(pristine, kSectionCountOffset);
  ASSERT_GE(count, 8u);

  {  // Unknown section id.
    std::string bytes = pristine;
    TableEntry entry = ReadEntry(bytes, 0);
    entry.id = 99;
    WriteEntry(&bytes, 0, entry);
    FixV3Checksum(&bytes);
    ExpectBothPathsReject(bytes, "tbl_unknown.cpdb", "unknown section id");
  }
  {  // Reserved word must stay zero.
    std::string bytes = pristine;
    TableEntry entry = ReadEntry(bytes, 1);
    entry.reserved = 7;
    WriteEntry(&bytes, 1, entry);
    FixV3Checksum(&bytes);
    ExpectBothPathsReject(bytes, "tbl_reserved.cpdb", "nonzero reserved");
  }
  {  // Duplicate section id.
    std::string bytes = pristine;
    TableEntry entry = ReadEntry(bytes, 1);
    entry.id = ReadEntry(bytes, 0).id;
    WriteEntry(&bytes, 1, entry);
    FixV3Checksum(&bytes);
    ExpectBothPathsReject(bytes, "tbl_dup.cpdb", "duplicate section");
  }
  {  // Misaligned offset — caught before any span is formed, with the
     // offending section named.
    std::string bytes = pristine;
    TableEntry entry = ReadEntry(bytes, 2);
    entry.offset += 4;
    WriteEntry(&bytes, 2, entry);
    FixV3Checksum(&bytes);
    const auto decoded = DecodeModelArtifact(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find("aligned"), std::string::npos)
        << decoded.status().ToString();
    const auto mapped = MmapOpen(bytes, "tbl_misaligned.cpdb");
    ASSERT_FALSE(mapped.ok());
    EXPECT_EQ(mapped.status().code(), StatusCode::kInvalidArgument);
  }
  {  // Offset overlapping the header.
    std::string bytes = pristine;
    TableEntry entry = ReadEntry(bytes, 0);
    entry.offset = 0;
    WriteEntry(&bytes, 0, entry);
    FixV3Checksum(&bytes);
    ExpectBothPathsReject(bytes, "tbl_header_overlap.cpdb",
                          "section over the header");
  }
  {  // Offset past the end of the file -> OutOfRange, section named.
    std::string bytes = pristine;
    TableEntry entry = ReadEntry(bytes, 0);
    entry.offset = (bytes.size() + 4095) / 64 * 64 + 64 * 100;
    WriteEntry(&bytes, 0, entry);
    FixV3Checksum(&bytes);
    const auto decoded = DecodeModelArtifact(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kOutOfRange);
    EXPECT_NE(decoded.status().message().find("section"), std::string::npos)
        << decoded.status().ToString();
    const auto mapped = MmapOpen(bytes, "tbl_oob.cpdb");
    ASSERT_FALSE(mapped.ok());
    EXPECT_EQ(mapped.status().code(), StatusCode::kOutOfRange);
  }
  {  // Length sized to spill past the end of the file.
    std::string bytes = pristine;
    const size_t last = count - 1;
    TableEntry entry = ReadEntry(bytes, last);
    entry.length += 8;
    WriteEntry(&bytes, last, entry);
    FixV3Checksum(&bytes);
    ExpectBothPathsReject(bytes, "tbl_spill.cpdb", "over-long section");
  }
  {  // Two sections claiming the same byte range -> the overlap pair is
     // reported by name.
    std::string bytes = pristine;
    TableEntry first = ReadEntry(bytes, 0);
    TableEntry second = ReadEntry(bytes, 1);
    second.offset = first.offset;
    WriteEntry(&bytes, 1, second);
    FixV3Checksum(&bytes);
    const auto decoded = DecodeModelArtifact(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_TRUE(IsTypedFailure(decoded.status()));
    const auto mapped = MmapOpen(bytes, "tbl_overlap.cpdb");
    ASSERT_FALSE(mapped.ok());
    EXPECT_TRUE(IsTypedFailure(mapped.status()));
  }
  {  // A missing mandatory section (drop eta_agg by renaming it into a
     // derived id slot it cannot occupy) must not produce an index with
     // garbage aggregates.
    std::string bytes = pristine;
    for (size_t i = 0; i < count; ++i) {
      TableEntry entry = ReadEntry(bytes, i);
      if (entry.id == 8) {  // kEtaAgg
        entry.id = 63;
        WriteEntry(&bytes, i, entry);
        break;
      }
    }
    FixV3Checksum(&bytes);
    ExpectBothPathsReject(bytes, "tbl_missing.cpdb", "missing eta_agg");
  }
}

TEST_F(ArtifactTortureTest, TrailingBytesAreRejectedByBothPaths) {
  std::string bytes = EncodeV3(MakeArtifact(/*with_vocab=*/true));
  bytes.push_back('\0');
  ExpectBothPathsReject(bytes, "trailing.cpdb", "one trailing byte");
}

TEST_F(ArtifactTortureTest, VocabSectionForgeryIsRejected) {
  // Rewrite the vocab section's count field to promise more words than the
  // section holds; the internal walk must stop at the boundary.
  const std::string pristine = EncodeV3(MakeArtifact(/*with_vocab=*/true));
  const uint32_t count = ReadLE<uint32_t>(pristine, kSectionCountOffset);
  for (size_t i = 0; i < count; ++i) {
    const TableEntry entry = ReadEntry(pristine, i);
    if (entry.id != 7) continue;  // kVocab
    std::string bytes = pristine;
    WriteLE<uint64_t>(&bytes, static_cast<size_t>(entry.offset), ~0ull >> 8);
    ExpectBothPathsReject(bytes, "vocab_forged.cpdb", "forged vocab count");
    return;
  }
  FAIL() << "no vocab section found";
}

// ----- legacy formats stay protected -----

TEST_F(ArtifactTortureTest, LegacyForgedHeaderCannotSizeAllocations) {
  for (const uint32_t version : {1u, 2u}) {
    std::string bytes = testing::EncodeLegacyArtifact(
        MakeArtifact(/*with_vocab=*/version >= 2), version);
    // Legacy layout: ... |C| i32 @16, |Z| i32 @20, |U| u64 @24.
    WriteLE<uint64_t>(&bytes, 24, ~0ull >> 3);
    const auto decoded = DecodeModelArtifact(bytes);
    ASSERT_FALSE(decoded.ok()) << "v" << version;
    EXPECT_EQ(decoded.status().code(), StatusCode::kOutOfRange)
        << decoded.status().ToString();
    // The error names the first section the forged header truncates.
    EXPECT_NE(decoded.status().message().find("section"), std::string::npos)
        << decoded.status().ToString();
  }
}

TEST_F(ArtifactTortureTest, MappingALegacyArtifactIsFailedPrecondition) {
  for (const uint32_t version : {1u, 2u}) {
    const std::string bytes = testing::EncodeLegacyArtifact(
        MakeArtifact(/*with_vocab=*/version >= 2), version);
    const auto mapped = MmapOpen(bytes, "legacy.cpdb");
    ASSERT_FALSE(mapped.ok()) << "v" << version;
    EXPECT_EQ(mapped.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(mapped.status().message().find("mmap"), std::string::npos)
        << mapped.status().ToString();
  }
}

// ----- delta-specific torture -----

TEST_F(ArtifactTortureTest, DeltaForgeryTaxonomy) {
  ModelArtifact base = MakeArtifact(/*with_vocab=*/true);
  ModelArtifact target = MakeArtifact(/*with_vocab=*/true);
  target.generation = 12;
  target.pi[5] *= 2.0;
  auto delta = BuildModelDelta(base, target);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  auto encoded = EncodeModelDelta(*delta);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  const std::string pristine = *encoded;
  constexpr size_t kDeltaChecksum = 92;
  const auto fix = [](std::string* bytes) {
    uint32_t hash = 2166136261u;
    for (size_t i = 0; i < 96; ++i) {
      const bool in_hole = i >= kDeltaChecksum && i < kDeltaChecksum + 4;
      hash = (hash ^ (in_hole ? 0 : static_cast<uint8_t>((*bytes)[i]))) *
             16777619u;
    }
    WriteLE<uint32_t>(bytes, kDeltaChecksum, hash);
  };

  {  // Bad magic.
    std::string bytes = pristine;
    bytes[0] = 'X';
    const auto decoded = DecodeModelDelta(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  {  // Newer version.
    std::string bytes = pristine;
    WriteLE<uint32_t>(&bytes, 8, kModelDeltaVersion + 1);
    fix(&bytes);
    const auto decoded = DecodeModelDelta(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kUnimplemented);
  }
  {  // Foreign endianness.
    std::string bytes = pristine;
    WriteLE<uint32_t>(&bytes, 12, 0x04030201u);
    fix(&bytes);
    const auto decoded = DecodeModelDelta(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  {  // Forged touched count larger than |U|.
    std::string bytes = pristine;
    WriteLE<uint64_t>(&bytes, 84, 1000);
    fix(&bytes);
    const auto decoded = DecodeModelDelta(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  {  // Absurd |U| cannot size an allocation.
    std::string bytes = pristine;
    WriteLE<uint64_t>(&bytes, 24, ~0ull >> 3);
    fix(&bytes);
    const auto decoded = DecodeModelDelta(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_TRUE(IsTypedFailure(decoded.status()))
        << decoded.status().ToString();
  }
  {  // Trailing byte.
    std::string bytes = pristine;
    bytes.push_back('\0');
    const auto decoded = DecodeModelDelta(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(decoded.status().message().find("trailing"), std::string::npos);
  }
  {  // Unsorted touched ids: swap the encoded order of two ids. Craft a
     // delta with two touched rows first.
    ModelArtifact wide = target;
    wide.pi[0] += 1.0;  // Touch user 0 as well as user 1 (pi[5] above).
    auto two = BuildModelDelta(base, wide);
    ASSERT_TRUE(two.ok());
    ASSERT_GE(two->touched_users.size(), 2u);
    auto two_bytes = EncodeModelDelta(*two);
    ASSERT_TRUE(two_bytes.ok());
    std::string bytes = *two_bytes;
    const uint64_t first = ReadLE<uint64_t>(bytes, 96);
    const uint64_t second = ReadLE<uint64_t>(bytes, 104);
    WriteLE<uint64_t>(&bytes, 96, second);
    WriteLE<uint64_t>(&bytes, 104, first);
    const auto decoded = DecodeModelDelta(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << decoded.status().ToString();
  }
  {  // Applying against the wrong base generation.
    auto decoded = DecodeModelDelta(pristine);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ModelArtifact wrong_base = base;
    wrong_base.generation = 999;
    const auto applied = ApplyModelDelta(wrong_base, *decoded);
    ASSERT_FALSE(applied.ok());
    EXPECT_EQ(applied.status().code(), StatusCode::kFailedPrecondition);
  }
}

// ----- the pristine files still load (the suite must not be vacuous) -----

TEST_F(ArtifactTortureTest, PristineArtifactsLoadOnBothPaths) {
  for (const bool with_vocab : {false, true}) {
    const ModelArtifact artifact = MakeArtifact(with_vocab);
    const std::string bytes = EncodeV3(artifact);
    auto decoded = DecodeModelArtifact(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->generation, artifact.generation);
    EXPECT_EQ(decoded->pi, artifact.pi);
    auto mapped = MmapOpen(bytes, "pristine.cpdb");
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_EQ((*mapped)->generation(), artifact.generation);
    const ModelArtifact materialized = (*mapped)->Materialize();
    EXPECT_EQ(materialized.pi, artifact.pi);
    EXPECT_EQ(materialized.vocab_words, artifact.vocab_words);
  }
}

}  // namespace
}  // namespace cpd
