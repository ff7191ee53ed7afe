// Round-trip properties of the artifact and delta codecs, over seeded
// random models instead of one trained fixture:
//   - encode(v3) -> decode -> encode is byte-stable, for every
//     vocab/top-k/alignment combination the writer accepts;
//   - encode(v3) -> mmap -> Materialize -> encode reproduces the original
//     file bitwise (the SaveBinary -> mmap load -> SaveBinary property);
//   - legacy v1/v2 bytes (from the test-only encoder) decode and re-encode
//     byte-stable too;
//   - delta application is order-stable: applying a chain one delta at a
//     time, or as one ComposeModelDeltas merge, lands on bitwise the same
//     artifact, and composition itself is associative on the wire.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "artifact_test_util.h"
#include "core/model_artifact.h"
#include "core/model_delta.h"
#include "core/model_state.h"
#include "util/file_util.h"
#include "util/logging.h"

namespace cpd {
namespace {

double RandomValue(std::mt19937_64* rng) {
  std::uniform_real_distribution<double> dist(0.001, 1.0);
  return dist(*rng);
}

void FillRandom(std::mt19937_64* rng, std::vector<double>* values,
                size_t count) {
  values->resize(count);
  for (double& value : *values) value = RandomValue(rng);
}

/// A random but internally consistent artifact: dims drawn small, every
/// estimate positive, vocabulary (when bundled) dense and unique.
ModelArtifact MakeRandomArtifact(std::mt19937_64* rng, bool with_vocab) {
  std::uniform_int_distribution<int> c_dist(1, 6);
  std::uniform_int_distribution<int> z_dist(1, 5);
  std::uniform_int_distribution<int> t_dist(1, 4);
  std::uniform_int_distribution<int> u_dist(1, 40);
  std::uniform_int_distribution<int> w_dist(1, 30);

  ModelArtifact artifact;
  artifact.num_communities = c_dist(*rng);
  artifact.num_topics = z_dist(*rng);
  artifact.num_time_bins = t_dist(*rng);
  artifact.num_users = static_cast<uint64_t>(u_dist(*rng));
  artifact.vocab_size = static_cast<uint64_t>(w_dist(*rng));
  artifact.generation = (*rng)() % 100;

  const size_t c = static_cast<size_t>(artifact.num_communities);
  const size_t z = static_cast<size_t>(artifact.num_topics);
  const size_t t = static_cast<size_t>(artifact.num_time_bins);
  FillRandom(rng, &artifact.pi, artifact.num_users * c);
  FillRandom(rng, &artifact.theta, c * z);
  FillRandom(rng, &artifact.phi, z * artifact.vocab_size);
  FillRandom(rng, &artifact.eta, c * c * z);
  FillRandom(rng, &artifact.weights, static_cast<size_t>(kNumDiffusionWeights));
  FillRandom(rng, &artifact.popularity, t * z);

  if (with_vocab) {
    for (uint64_t w = 0; w < artifact.vocab_size; ++w) {
      artifact.vocab_words.push_back("w" + std::to_string(w));
      artifact.vocab_frequencies.push_back(
          static_cast<int64_t>((*rng)() % 1000));
    }
  }
  CPD_CHECK(artifact.Validate().ok());
  return artifact;
}

/// The next generation of `base`, the way an ingest batch would move it:
/// a random subset of pi rows retouched, zero or more users and (when a
/// vocabulary is bundled) words appended, every global estimate refreshed,
/// the whole frequency table drifted, generation bumped by one.
ModelArtifact RandomSuccessor(std::mt19937_64* rng,
                              const ModelArtifact& base) {
  std::uniform_int_distribution<int> coin(0, 3);
  ModelArtifact next = base;
  next.generation = base.generation + 1;

  const size_t c = static_cast<size_t>(base.num_communities);
  for (uint64_t u = 0; u < base.num_users; ++u) {
    if (coin(*rng) == 0) {
      for (size_t i = 0; i < c; ++i) next.pi[u * c + i] = RandomValue(rng);
    }
  }
  const int new_users = coin(*rng) % 3;
  for (int n = 0; n < new_users; ++n) {
    for (size_t i = 0; i < c; ++i) next.pi.push_back(RandomValue(rng));
    next.num_users += 1;
  }

  const int new_words = base.has_vocabulary() ? coin(*rng) % 3 : 0;
  next.vocab_size += static_cast<uint64_t>(new_words);
  for (int n = 0; n < new_words; ++n) {
    next.vocab_words.push_back("g" + std::to_string(next.generation) + "w" +
                               std::to_string(n));
    next.vocab_frequencies.push_back(static_cast<int64_t>((*rng)() % 1000));
  }
  for (int64_t& frequency : next.vocab_frequencies) ++frequency;

  const size_t z = static_cast<size_t>(base.num_topics);
  FillRandom(rng, &next.phi, z * next.vocab_size);
  FillRandom(rng, &next.theta, next.theta.size());
  FillRandom(rng, &next.eta, next.eta.size());
  FillRandom(rng, &next.weights, next.weights.size());
  FillRandom(rng, &next.popularity, next.popularity.size());
  CPD_CHECK(next.Validate().ok());
  return next;
}

std::string MustEncode(const ModelArtifact& artifact,
                       const ArtifactWriteOptions& options = {}) {
  auto encoded = EncodeModelArtifact(artifact, options);
  CPD_CHECK(encoded.ok());
  return std::move(*encoded);
}

TEST(ArtifactRoundtripTest, V3EncodeDecodeEncodeIsByteStable) {
  const uint32_t top_ks[] = {0, 3, 64};
  const uint32_t alignments[] = {8, 64, 4096};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed);
    const ModelArtifact artifact = MakeRandomArtifact(&rng, seed % 2 == 0);
    for (const uint32_t top_k : top_ks) {
      for (const uint32_t alignment : alignments) {
        ArtifactWriteOptions options;
        options.derived_top_k = top_k;
        options.section_alignment = alignment;
        const std::string first = MustEncode(artifact, options);
        auto decoded = DecodeModelArtifact(first);
        ASSERT_TRUE(decoded.ok())
            << decoded.status().ToString() << " seed=" << seed
            << " top_k=" << top_k << " align=" << alignment;
        EXPECT_EQ(decoded->pi, artifact.pi);
        EXPECT_EQ(decoded->phi, artifact.phi);
        EXPECT_EQ(decoded->vocab_words, artifact.vocab_words);
        EXPECT_EQ(decoded->generation, artifact.generation);
        // Same knobs, same bytes: the derived sections are a pure function
        // of the estimates, the padding is all zero.
        EXPECT_EQ(MustEncode(*decoded, options), first)
            << "seed=" << seed << " top_k=" << top_k
            << " align=" << alignment;
      }
    }
  }
}

TEST(ArtifactRoundtripTest, MmapMaterializeReencodeReproducesTheFile) {
  for (uint64_t seed = 11; seed <= 16; ++seed) {
    std::mt19937_64 rng(seed);
    const ModelArtifact artifact = MakeRandomArtifact(&rng, seed % 2 == 0);
    const std::string bytes = MustEncode(artifact);
    const std::string path = ::testing::TempDir() + "/roundtrip_" +
                             std::to_string(seed) + ".cpdb";
    ASSERT_TRUE(WriteStringToFile(path, bytes).ok());

    auto mapped = MappedModelArtifact::Open(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    // The zero-copy spans are the decoded vectors, bit for bit.
    EXPECT_TRUE(std::equal((*mapped)->pi().begin(), (*mapped)->pi().end(),
                           artifact.pi.begin(), artifact.pi.end()));
    EXPECT_TRUE(std::equal((*mapped)->phi().begin(), (*mapped)->phi().end(),
                           artifact.phi.begin(), artifact.phi.end()));
    EXPECT_EQ((*mapped)->generation(), artifact.generation);

    // Save -> mmap load -> save: the re-encoded file is the original file.
    const ModelArtifact materialized = (*mapped)->Materialize();
    EXPECT_EQ(MustEncode(materialized), bytes) << "seed=" << seed;
  }
}

TEST(ArtifactRoundtripTest, LegacyVersionsRoundTripByteStable) {
  for (uint64_t seed = 21; seed <= 24; ++seed) {
    std::mt19937_64 rng(seed);
    ModelArtifact artifact = MakeRandomArtifact(&rng, /*with_vocab=*/true);
    for (const uint32_t version : {2u, 1u}) {
      if (version == 1) {
        // The v1 wire has no vocabulary section and the encoder refuses to
        // drop one silently.
        artifact.vocab_words.clear();
        artifact.vocab_frequencies.clear();
      }
      const std::string first =
          testing::EncodeLegacyArtifact(artifact, version);
      auto decoded = DecodeModelArtifact(first);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(decoded->has_vocabulary(), version >= 2);
      EXPECT_EQ(testing::EncodeLegacyArtifact(*decoded, version), first)
          << "seed=" << seed << " v" << version;
    }
  }
}

TEST(ArtifactRoundtripTest, DeltaCodecRoundTripsByteStable) {
  for (uint64_t seed = 31; seed <= 36; ++seed) {
    std::mt19937_64 rng(seed);
    const ModelArtifact base = MakeRandomArtifact(&rng, seed % 2 == 0);
    const ModelArtifact target = RandomSuccessor(&rng, base);
    auto delta = BuildModelDelta(base, target);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    auto encoded = EncodeModelDelta(*delta);
    ASSERT_TRUE(encoded.ok());
    auto decoded = DecodeModelDelta(*encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    auto re_encoded = EncodeModelDelta(*decoded);
    ASSERT_TRUE(re_encoded.ok());
    EXPECT_EQ(*re_encoded, *encoded) << "seed=" << seed;

    // Build -> apply reproduces the target on the wire.
    auto applied = ApplyModelDelta(base, *decoded);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(MustEncode(*applied), MustEncode(target)) << "seed=" << seed;
  }
}

TEST(ArtifactRoundtripTest, DeltaApplicationIsOrderStable) {
  for (uint64_t seed = 41; seed <= 46; ++seed) {
    std::mt19937_64 rng(seed);
    const ModelArtifact a = MakeRandomArtifact(&rng, seed % 2 == 0);
    const ModelArtifact b = RandomSuccessor(&rng, a);
    const ModelArtifact c = RandomSuccessor(&rng, b);
    const ModelArtifact d = RandomSuccessor(&rng, c);
    auto ab = BuildModelDelta(a, b);
    auto bc = BuildModelDelta(b, c);
    auto cd = BuildModelDelta(c, d);
    ASSERT_TRUE(ab.ok() && bc.ok() && cd.ok());

    // One delta at a time == one composed merge, bitwise.
    auto step_b = ApplyModelDelta(a, *ab);
    ASSERT_TRUE(step_b.ok());
    auto step_c = ApplyModelDelta(*step_b, *bc);
    ASSERT_TRUE(step_c.ok());
    auto composed = ComposeModelDeltas(*ab, *bc);
    ASSERT_TRUE(composed.ok()) << composed.status().ToString();
    auto jumped = ApplyModelDelta(a, *composed);
    ASSERT_TRUE(jumped.ok()) << jumped.status().ToString();
    EXPECT_EQ(MustEncode(*jumped), MustEncode(*step_c)) << "seed=" << seed;
    EXPECT_EQ(MustEncode(*jumped), MustEncode(c)) << "seed=" << seed;

    // Composition associates on the wire.
    auto left = ComposeModelDeltas(*composed, *cd);
    auto bc_cd = ComposeModelDeltas(*bc, *cd);
    ASSERT_TRUE(left.ok() && bc_cd.ok());
    auto right = ComposeModelDeltas(*ab, *bc_cd);
    ASSERT_TRUE(right.ok());
    auto left_bytes = EncodeModelDelta(*left);
    auto right_bytes = EncodeModelDelta(*right);
    ASSERT_TRUE(left_bytes.ok() && right_bytes.ok());
    EXPECT_EQ(*left_bytes, *right_bytes) << "seed=" << seed;

    // Out-of-order application refuses, it does not corrupt.
    EXPECT_EQ(ApplyModelDelta(a, *bc).status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(ComposeModelDeltas(*bc, *ab).status().code(),
              StatusCode::kFailedPrecondition);
  }
}

}  // namespace
}  // namespace cpd
