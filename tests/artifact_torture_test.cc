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
#include <map>
#include <string>
#include <vector>

#include "artifact_test_util.h"
#include "core/cpd_model.h"
#include "core/model_artifact.h"
#include "core/model_delta.h"
#include "core/model_state.h"
#include "serve/profile_index.h"
#include "util/file_util.h"
#include "util/rng.h"

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

/// Reads every row an index serves; ASan sees any span that outruns its
/// image.
void ReadEveryRow(const serve::ProfileIndex& index) {
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
  for (int c = 0; c < index.num_communities(); ++c) {
    for (const UserId member : index.CommunityMembers(c)) {
      EXPECT_GE(member, 0);
      EXPECT_LT(static_cast<size_t>(member), index.num_users());
    }
  }
  volatile double sink = sum;  // Keeps the reads.
  (void)sink;
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
    ReadEveryRow(bundle->index);
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

// ----- seed-reproducible mutation suites -----
//
// Each suite mutates pristine files with a fixed-seed generator, so every
// input is reproducible from the suite alone. Each input must end in a
// typed error or a valid decode (no crash, hang, or allocation sized by a
// forged field); for v3 the heap decoder and the owned-image loader must
// also agree on accept/reject and on the status code. Each suite pins its
// status-code histogram and the digest of its code sequence, so a codec
// change must decide every input exactly as before.

/// Status-code counts of one suite, plus an order-sensitive digest of the
/// code sequence. Printed when the suite ends and compared with the
/// recorded decisions: a codec change must decide every input as before.
class CodeHistogram {
 public:
  CodeHistogram(std::string suite, std::string expected)
      : suite_(std::move(suite)), expected_(std::move(expected)) {}
  ~CodeHistogram() {
    std::string summary;
    for (const auto& [code, count] : counts_) {
      summary += code + "=" + std::to_string(count) + " ";
    }
    char digest[32];
    std::snprintf(digest, sizeof(digest), "sequence=%016llx",
                  static_cast<unsigned long long>(sequence_));
    summary += digest;
    std::printf("mutation histogram %s: %s\n", suite_.c_str(),
                summary.c_str());
    EXPECT_EQ(summary, expected_) << suite_;
  }
  void Record(const std::string& label, const Status& status) {
    ++counts_[label + (label.empty() ? "" : ":") +
              StatusCodeToString(status.code())];
    sequence_ = sequence_ * 31 + static_cast<uint64_t>(status.code()) + 1;
  }

 private:
  std::string suite_;
  std::string expected_;
  std::map<std::string, int> counts_;
  uint64_t sequence_ = 0;
};

/// True when every vector and dimension of `a` and `b` is bitwise equal
/// (mutated doubles may be NaN, so == would not do).
bool SameBits(const ModelArtifact& a, const ModelArtifact& b) {
  const auto same = [](const std::vector<double>& x,
                       const std::vector<double>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  return a.num_communities == b.num_communities &&
         a.num_topics == b.num_topics && a.num_users == b.num_users &&
         a.vocab_size == b.vocab_size && a.num_time_bins == b.num_time_bins &&
         a.generation == b.generation && same(a.pi, b.pi) &&
         same(a.theta, b.theta) && same(a.phi, b.phi) && same(a.eta, b.eta) &&
         same(a.weights, b.weights) && same(a.popularity, b.popularity) &&
         a.vocab_words == b.vocab_words &&
         a.vocab_frequencies == b.vocab_frequencies;
}

/// Decodes `bytes` as a .cpdb through the heap codec and the owned-image
/// loader. Unless the loader reports a pre-v3 file (FailedPrecondition),
/// the two must agree on the outcome and, on success, on every decoded bit.
/// An accepted file is served and every row read; an accepted legacy file
/// is up-converted the way LoadModelBundle does it. Returns the heap
/// decoder's status.
Status CheckArtifactBytes(const std::string& bytes) {
  const auto heap = DecodeModelArtifact(bytes);
  const auto image = MappedModelArtifact::FromBytes(bytes);
  EXPECT_TRUE(heap.ok() || IsTypedFailure(heap.status()))
      << heap.status().ToString();
  EXPECT_TRUE(image.ok() || IsTypedFailure(image.status()))
      << image.status().ToString();
  const bool legacy =
      image.status().code() == StatusCode::kFailedPrecondition;
  if (!legacy) {
    EXPECT_EQ(heap.status().code(), image.status().code())
        << "heap: " << heap.status().ToString()
        << " / image: " << image.status().ToString();
  }
  std::shared_ptr<const MappedModelArtifact> served;
  if (image.ok()) {
    served = *image;
    if (heap.ok()) {
      EXPECT_TRUE(SameBits(*heap, served->Materialize()));
    }
  } else if (heap.ok()) {
    ArtifactWriteOptions options;
    options.section_alignment = 64;
    const auto encoded = EncodeModelArtifact(*heap, options);
    EXPECT_TRUE(encoded.ok()) << encoded.status().ToString();
    if (encoded.ok()) {
      const auto converted = MappedModelArtifact::FromBytes(*encoded);
      EXPECT_TRUE(converted.ok()) << converted.status().ToString();
      if (converted.ok()) served = *converted;
    }
  }
  if (served != nullptr) {
    auto index = serve::ProfileIndex::FromMapped(served);
    EXPECT_TRUE(index.ok() || IsTypedFailure(index.status()))
        << index.status().ToString();
    if (index.ok()) ReadEveryRow(*index);
    Vocabulary vocab;
    const Status built = served->BuildVocabulary(&vocab);
    EXPECT_TRUE(built.ok() || IsTypedFailure(built)) << built.ToString();
  }
  return heap.status();
}

/// Decodes `bytes` as a .cpdd. An accepted delta re-encodes to the same
/// bytes (the format has no slack), applies to `base` or fails typed, and
/// overlays the served base image or fails typed.
Status CheckDeltaBytes(const std::string& bytes, const ModelArtifact& base) {
  const auto decoded = DecodeModelDelta(bytes);
  EXPECT_TRUE(decoded.ok() || IsTypedFailure(decoded.status()))
      << decoded.status().ToString();
  if (!decoded.ok()) return decoded.status();
  const auto encoded = EncodeModelDelta(*decoded);
  EXPECT_TRUE(encoded.ok()) << encoded.status().ToString();
  if (encoded.ok()) {
    EXPECT_EQ(*encoded, bytes);
  }
  const auto applied = ApplyModelDelta(base, *decoded);
  EXPECT_TRUE(applied.ok() || IsTypedFailure(applied.status()))
      << applied.status().ToString();
  ArtifactWriteOptions options;
  options.section_alignment = 64;
  const auto base_bytes = EncodeModelArtifact(base, options);
  EXPECT_TRUE(base_bytes.ok());
  const auto image = MappedModelArtifact::FromBytes(*base_bytes);
  EXPECT_TRUE(image.ok());
  auto index = serve::ProfileIndex::FromMappedWithDelta(
      *image, std::make_shared<const ModelDelta>(*decoded));
  EXPECT_TRUE(index.ok() || IsTypedFailure(index.status()))
      << index.status().ToString();
  if (index.ok()) ReadEveryRow(*index);
  return decoded.status();
}

/// Flips 1..4 random bits in [begin, bytes->size()).
void FlipBits(std::string* bytes, size_t begin, Rng* rng) {
  const uint64_t flips = 1 + rng->NextUint64(4);
  for (uint64_t i = 0; i < flips; ++i) {
    const size_t at = begin + rng->NextUint64(bytes->size() - begin);
    (*bytes)[at] = static_cast<char>((*bytes)[at] ^ (1 << rng->NextUint64(8)));
  }
}

/// Values a forged length field takes: just past and just short of the
/// real value, zero, and sizes no input can back.
std::vector<uint64_t> InflatedValues(uint64_t real) {
  return {real + 1,  real == 0 ? 1 : real - 1, 0,       real * 2 + 7,
          255,       1ull << 31,               1ull << 32, 1ull << 61,
          ~0ull >> 1, ~0ull};
}

/// Writes the low `width` (4 or 8) bytes of `value` at `offset`.
void WriteField(std::string* bytes, size_t offset, size_t width,
                uint64_t value) {
  if (width == 4) {
    WriteLE<uint32_t>(bytes, offset, static_cast<uint32_t>(value));
  } else {
    WriteLE<uint64_t>(bytes, offset, value);
  }
}

/// Overwrites an aligned random 4- or 8-byte word in [begin, size) with an
/// inflated value of itself.
void InflateRandomWord(std::string* bytes, size_t begin, Rng* rng) {
  const size_t width = rng->NextUint64(2) == 0 ? 4 : 8;
  if (bytes->size() < begin + width) return;
  const size_t slots = (bytes->size() - begin) / width;
  const size_t offset = begin + width * rng->NextUint64(slots);
  const uint64_t real = width == 4 ? ReadLE<uint32_t>(*bytes, offset)
                                   : ReadLE<uint64_t>(*bytes, offset);
  const std::vector<uint64_t> values = InflatedValues(real);
  WriteField(bytes, offset, width, values[rng->NextUint64(values.size())]);
}

/// Offsets of every u32 word-length field of a vocabulary body that starts
/// with its u64 count at `begin` (and pristine entries after it).
std::vector<size_t> VocabLengthFields(const std::string& bytes, size_t begin,
                                      bool with_frequencies) {
  std::vector<size_t> fields;
  const uint64_t count = ReadLE<uint64_t>(bytes, begin);
  size_t cursor = begin + sizeof(uint64_t);
  for (uint64_t i = 0; i < count; ++i) {
    fields.push_back(cursor);
    cursor += sizeof(uint32_t) + ReadLE<uint32_t>(bytes, cursor) +
              (with_frequencies ? sizeof(int64_t) : 0);
  }
  return fields;
}

size_t V3SectionOffset(const std::string& bytes, uint32_t id) {
  const uint32_t count = ReadLE<uint32_t>(bytes, kSectionCountOffset);
  for (size_t i = 0; i < count; ++i) {
    const TableEntry entry = ReadEntry(bytes, i);
    if (entry.id == id) return static_cast<size_t>(entry.offset);
  }
  ADD_FAILURE() << "no section " << id;
  return 0;
}

constexpr int kMutationRounds = 4000;

TEST_F(ArtifactTortureTest, V3BodyMutationsAgreeOnBothPaths) {
  CodeHistogram histogram(
      "v3_body",
      "InvalidArgument=860 OK=3035 OutOfRange=105 sequence=e2ea56ea63fd0913");
  const std::string pristine = EncodeV3(MakeArtifact(/*with_vocab=*/true));
  const uint32_t count = ReadLE<uint32_t>(pristine, kSectionCountOffset);
  const size_t table_end = kFixedHeader + kTableEntry * count;
  Rng rng(1701);
  for (int round = 0; round < kMutationRounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    std::string bytes = pristine;
    if (rng.NextUint64(2) == 0) {
      FlipBits(&bytes, table_end, &rng);
    } else {
      // Inside one section's extent: the padding between sections is
      // never read, so this aims the flips at bytes a decoder must judge.
      const TableEntry entry = ReadEntry(pristine, rng.NextUint64(count));
      const size_t at =
          static_cast<size_t>(entry.offset + rng.NextUint64(entry.length));
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.NextUint64(8)));
    }
    histogram.Record("", CheckArtifactBytes(bytes));
  }
}

TEST_F(ArtifactTortureTest, V3LengthFieldInflationAgreesOnBothPaths) {
  CodeHistogram histogram(
      "v3_lengths",
      "count:InvalidArgument=10 random:InvalidArgument=265 random:OK=3666 "
      "random:OutOfRange=69 table_length:InvalidArgument=56 "
      "table_length:OutOfRange=74 word_length:InvalidArgument=4 "
      "word_length:OK=3 word_length:OutOfRange=43 "
      "sequence=ba3cc06ef0898003");
  const std::string pristine = EncodeV3(MakeArtifact(/*with_vocab=*/true));
  const size_t vocab = V3SectionOffset(pristine, 7);  // kVocab
  // The vocabulary count and every word length.
  for (const uint64_t value : InflatedValues(ReadLE<uint64_t>(pristine, vocab))) {
    std::string bytes = pristine;
    WriteLE<uint64_t>(&bytes, vocab, value);
    histogram.Record("count", CheckArtifactBytes(bytes));
  }
  for (const size_t field : VocabLengthFields(pristine, vocab, true)) {
    for (const uint64_t value :
         InflatedValues(ReadLE<uint32_t>(pristine, field))) {
      std::string bytes = pristine;
      WriteLE<uint32_t>(&bytes, field, static_cast<uint32_t>(value));
      histogram.Record("word_length", CheckArtifactBytes(bytes));
    }
  }
  // Every section-table length, checksum re-stamped so the forgery reaches
  // the geometry checks.
  const uint32_t count = ReadLE<uint32_t>(pristine, kSectionCountOffset);
  for (size_t i = 0; i < count; ++i) {
    for (const uint64_t value : InflatedValues(ReadEntry(pristine, i).length)) {
      std::string bytes = pristine;
      TableEntry entry = ReadEntry(bytes, i);
      entry.length = value;
      WriteEntry(&bytes, i, entry);
      FixV3Checksum(&bytes);
      histogram.Record("table_length", CheckArtifactBytes(bytes));
    }
  }
  // Random words of the body, inflated.
  Rng rng(1702);
  const size_t table_end = kFixedHeader + kTableEntry * count;
  for (int round = 0; round < kMutationRounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    std::string bytes = pristine;
    InflateRandomWord(&bytes, table_end, &rng);
    histogram.Record("random", CheckArtifactBytes(bytes));
  }
}

TEST_F(ArtifactTortureTest, LegacyMutationsEndTypedOrDecode) {
  constexpr size_t kLegacyHeader = 52;
  for (const uint32_t version : {1u, 2u}) {
    CodeHistogram histogram(
        version == 1 ? "v1" : "v2",
        version == 1
            ? "flip:OK=1957 header:InvalidArgument=6 header:OutOfRange=24 "
              "random:OK=2043 sequence=f68b7bd0544166c0"
            : "count:InvalidArgument=10 flip:InvalidArgument=33 flip:OK=1817 "
              "flip:OutOfRange=99 header:InvalidArgument=9 "
              "header:OutOfRange=21 random:InvalidArgument=12 "
              "random:OK=1993 random:OutOfRange=46 "
              "word_length:InvalidArgument=4 word_length:OK=3 "
              "word_length:OutOfRange=43 sequence=ee110f7e2d361bab");
    const ModelArtifact artifact = MakeArtifact(/*with_vocab=*/version >= 2);
    const std::string pristine =
        testing::EncodeLegacyArtifact(artifact, version);
    // Header dims and counts.
    for (const size_t offset : {size_t{24}, size_t{32}, size_t{44}}) {
      for (const uint64_t value :
           InflatedValues(ReadLE<uint64_t>(pristine, offset))) {
        std::string bytes = pristine;
        WriteLE<uint64_t>(&bytes, offset, value);
        histogram.Record("header", CheckArtifactBytes(bytes));
      }
    }
    if (version == 2) {
      // The vocabulary trailer starts after the last matrix.
      const size_t vocab = pristine.size() - [&] {
        size_t trailer = sizeof(uint64_t);
        for (const std::string& word : artifact.vocab_words) {
          trailer += sizeof(uint32_t) + word.size() + sizeof(int64_t);
        }
        return trailer;
      }();
      for (const uint64_t value :
           InflatedValues(ReadLE<uint64_t>(pristine, vocab))) {
        std::string bytes = pristine;
        WriteLE<uint64_t>(&bytes, vocab, value);
        histogram.Record("count", CheckArtifactBytes(bytes));
      }
      for (const size_t field : VocabLengthFields(pristine, vocab, true)) {
        for (const uint64_t value :
             InflatedValues(ReadLE<uint32_t>(pristine, field))) {
          std::string bytes = pristine;
          WriteLE<uint32_t>(&bytes, field, static_cast<uint32_t>(value));
          histogram.Record("word_length", CheckArtifactBytes(bytes));
        }
      }
    }
    Rng rng(1710 + version);
    for (int round = 0; round < kMutationRounds; ++round) {
      SCOPED_TRACE(::testing::Message() << "v" << version << " round "
                                        << round);
      std::string bytes = pristine;
      if (rng.NextUint64(2) == 0) {
        FlipBits(&bytes, kLegacyHeader, &rng);
        histogram.Record("flip", CheckArtifactBytes(bytes));
      } else {
        InflateRandomWord(&bytes, kLegacyHeader, &rng);
        histogram.Record("random", CheckArtifactBytes(bytes));
      }
    }
  }
}

/// `base` grown by two users and two words, with one old row changed: the
/// delta then carries touched rows, new users and appended words.
ModelArtifact GrownTarget(const ModelArtifact& base) {
  ModelArtifact target = base;
  target.generation = base.generation + 1;
  target.num_users += 2;
  target.vocab_size += 2;
  const size_t kc = static_cast<size_t>(base.num_communities);
  const size_t kz = static_cast<size_t>(base.num_topics);
  for (size_t i = 0; i < 2 * kc; ++i) target.pi.push_back(0.5 + i);
  target.pi[5] *= 2.0;
  target.phi.assign(kz * target.vocab_size, 0.0);
  for (size_t i = 0; i < target.phi.size(); ++i) target.phi[i] = 1.0 / (2 + i);
  target.vocab_words.push_back("epsilon");
  target.vocab_words.push_back("zeta");
  target.vocab_frequencies = {4, 4, 4, 4, 4, 2, 2};
  return target;
}

TEST_F(ArtifactTortureTest, DeltaMutationsEndTypedOrDecode) {
  CodeHistogram histogram(
      "delta",
      "appended_count:InvalidArgument=10 flip:InvalidArgument=197 "
      "flip:OK=1772 flip:OutOfRange=36 freq_count:InvalidArgument=10 "
      "header:InvalidArgument=41 header:OK=1 header:OutOfRange=8 "
      "random:InvalidArgument=75 random:OK=1905 random:OutOfRange=15 "
      "word_length:InvalidArgument=6 word_length:OutOfRange=14 "
      "sequence=8ddf628c0417aa20");
  const ModelArtifact base = MakeArtifact(/*with_vocab=*/true);
  const ModelArtifact target = GrownTarget(base);
  auto delta = BuildModelDelta(base, target);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  ASSERT_EQ(delta->appended_words.size(), 2u);
  auto encoded = EncodeModelDelta(*delta);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  const std::string pristine = *encoded;
  ASSERT_TRUE(CheckDeltaBytes(pristine, base).ok());
  constexpr size_t kDeltaHeader = 96;
  constexpr size_t kDeltaChecksum = 92;
  const auto restamp = [](std::string* bytes) {
    WriteLE<uint32_t>(bytes, kDeltaChecksum, 0);
    uint32_t hash = 2166136261u;
    for (size_t i = 0; i < kDeltaHeader; ++i) {
      hash = (hash ^ static_cast<uint8_t>((*bytes)[i])) * 16777619u;
    }
    WriteLE<uint32_t>(bytes, kDeltaChecksum, hash);
  };
  // Header counts and dims (checksum re-stamped): |U|, |W|, base |U|,
  // base |W|, touched_user_count.
  for (const size_t offset : {size_t{24}, size_t{32}, size_t{68}, size_t{76},
                              size_t{84}}) {
    for (const uint64_t value :
         InflatedValues(ReadLE<uint64_t>(pristine, offset))) {
      std::string bytes = pristine;
      WriteLE<uint64_t>(&bytes, offset, value);
      restamp(&bytes);
      histogram.Record("header", CheckDeltaBytes(bytes, base));
    }
  }
  // The vocabulary tail: appended-word count, each word length, and the
  // frequency count.
  const size_t frequencies =
      pristine.size() - sizeof(uint64_t) -
      delta->vocab_frequencies.size() * sizeof(int64_t);
  size_t appended = frequencies - sizeof(uint64_t);
  for (const std::string& word : delta->appended_words) {
    appended -= sizeof(uint32_t) + word.size();
  }
  ASSERT_EQ(ReadLE<uint64_t>(pristine, appended), 2u);
  ASSERT_EQ(ReadLE<uint64_t>(pristine, frequencies),
            delta->vocab_frequencies.size());
  for (const size_t field : {appended, frequencies}) {
    for (const uint64_t value :
         InflatedValues(ReadLE<uint64_t>(pristine, field))) {
      std::string bytes = pristine;
      WriteLE<uint64_t>(&bytes, field, value);
      histogram.Record(field == appended ? "appended_count" : "freq_count",
                       CheckDeltaBytes(bytes, base));
    }
  }
  for (const size_t field : VocabLengthFields(pristine, appended, false)) {
    for (const uint64_t value :
         InflatedValues(ReadLE<uint32_t>(pristine, field))) {
      std::string bytes = pristine;
      WriteLE<uint32_t>(&bytes, field, static_cast<uint32_t>(value));
      histogram.Record("word_length", CheckDeltaBytes(bytes, base));
    }
  }
  Rng rng(1720);
  for (int round = 0; round < kMutationRounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    std::string bytes = pristine;
    if (rng.NextUint64(2) == 0) {
      FlipBits(&bytes, kDeltaHeader, &rng);
      histogram.Record("flip", CheckDeltaBytes(bytes, base));
    } else {
      InflateRandomWord(&bytes, kDeltaHeader, &rng);
      histogram.Record("random", CheckDeltaBytes(bytes, base));
    }
  }
}

TEST_F(ArtifactTortureTest, SplicedFilesEndTypedOrDecode) {
  CodeHistogram histogram(
      "splice",
      "artifact:InvalidArgument=3207 artifact:OK=2442 "
      "artifact:OutOfRange=2340 artifact:Unimplemented=11 "
      "delta:InvalidArgument=7296 delta:OK=507 delta:OutOfRange=192 "
      "delta:Unimplemented=5 sequence=cfc910180254f61b");
  const ModelArtifact with_vocab = MakeArtifact(/*with_vocab=*/true);
  ModelArtifact rescaled = with_vocab;  // Same geometry, other values.
  for (double& value : rescaled.pi) value *= 3.0;
  for (double& value : rescaled.phi) value += 1.0;
  auto delta = BuildModelDelta(with_vocab, GrownTarget(with_vocab));
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  auto delta_bytes = EncodeModelDelta(*delta);
  ASSERT_TRUE(delta_bytes.ok());
  const std::vector<std::string> corpus = {
      EncodeV3(with_vocab),
      EncodeV3(rescaled),
      EncodeV3(MakeArtifact(/*with_vocab=*/false), /*top_k=*/0,
               /*alignment=*/8),
      testing::EncodeLegacyArtifact(with_vocab, 2),
      testing::EncodeLegacyArtifact(MakeArtifact(/*with_vocab=*/false), 1),
      *delta_bytes,
  };
  Rng rng(1730);
  for (int round = 0; round < 2 * kMutationRounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    const std::string& a = corpus[rng.NextUint64(corpus.size())];
    const std::string& b = corpus[rng.NextUint64(corpus.size())];
    std::string bytes;
    if (rng.NextUint64(2) == 0) {
      // a's head, b's tail.
      bytes = a.substr(0, rng.NextUint64(a.size() + 1));
      bytes.append(b, rng.NextUint64(b.size() + 1));
    } else {
      // A run of b pasted over a at the same or a random offset.
      bytes = a;
      const size_t length = 1 + rng.NextUint64(64);
      const size_t from = rng.NextUint64(b.size());
      const size_t to =
          rng.NextUint64(2) == 0 ? from : rng.NextUint64(bytes.size());
      bytes.replace(std::min(to, bytes.size()), length,
                    b.substr(from, length));
    }
    histogram.Record("artifact", CheckArtifactBytes(bytes));
    histogram.Record("delta", CheckDeltaBytes(bytes, with_vocab));
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
