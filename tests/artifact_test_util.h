#ifndef CPD_TESTS_ARTIFACT_TEST_UTIL_H_
#define CPD_TESTS_ARTIFACT_TEST_UTIL_H_

/// \file artifact_test_util.h
/// Test-only artifact helpers. The library writes only v3, but the v1/v2
/// readers stay, so tests (and the load benches) build legacy bytes with
/// the sequential encoder kept here:
///
///   magic "CPDBMODL" | u32 version | u32 endian tag 0x01020304 |
///   i32 |C| | i32 |Z| | u64 |U| | u64 |W| | i32 T | u64 #weights |
///   pi | theta | phi | eta | weights | popularity
///   [v2] u64 vocab_count | vocab_count x (u32 len | bytes | i64 freq)
///
/// IndexFromArtifact serves a hand-built ModelArtifact through the one
/// production construction path (an owned v3 image + FromMapped).

#include <cstdint>
#include <string>
#include <vector>

#include "core/model_artifact.h"
#include "serve/profile_index.h"
#include "util/logging.h"

namespace cpd::testing {

/// Encodes `artifact` as a legacy v1 or v2 file. v1 has no vocabulary
/// section, so a bundled vocabulary there is a test bug (CHECK).
inline std::string EncodeLegacyArtifact(const ModelArtifact& artifact,
                                        uint32_t version) {
  CPD_CHECK(version == 1 || version == 2);
  CPD_CHECK(version == 2 || !artifact.has_vocabulary());
  std::string out(kModelArtifactMagic, sizeof(kModelArtifactMagic));
  const auto raw = [&out](const auto& value) {
    out.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  const auto doubles = [&out](const std::vector<double>& values) {
    out.append(reinterpret_cast<const char*>(values.data()),
               values.size() * sizeof(double));
  };
  raw(version);
  raw(kModelArtifactEndianTag);
  raw(artifact.num_communities);
  raw(artifact.num_topics);
  raw(artifact.num_users);
  raw(artifact.vocab_size);
  raw(artifact.num_time_bins);
  raw(static_cast<uint64_t>(artifact.weights.size()));
  doubles(artifact.pi);
  doubles(artifact.theta);
  doubles(artifact.phi);
  doubles(artifact.eta);
  doubles(artifact.weights);
  doubles(artifact.popularity);
  if (version == 2) {
    raw(static_cast<uint64_t>(artifact.vocab_words.size()));
    for (size_t i = 0; i < artifact.vocab_words.size(); ++i) {
      raw(static_cast<uint32_t>(artifact.vocab_words[i].size()));
      out.append(artifact.vocab_words[i]);
      raw(artifact.vocab_frequencies[i]);
    }
  }
  return out;
}

/// Builds a ProfileIndex over `artifact` via an owned v3 image.
inline StatusOr<serve::ProfileIndex> IndexFromArtifact(
    const ModelArtifact& artifact) {
  auto bytes = EncodeModelArtifact(artifact);
  if (!bytes.ok()) return bytes.status();
  auto image = MappedModelArtifact::FromBytes(*bytes);
  if (!image.ok()) return image.status();
  return serve::ProfileIndex::FromMapped(std::move(*image));
}

}  // namespace cpd::testing

#endif  // CPD_TESTS_ARTIFACT_TEST_UTIL_H_
