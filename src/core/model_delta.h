#ifndef CPD_CORE_MODEL_DELTA_H_
#define CPD_CORE_MODEL_DELTA_H_

/// \file model_delta.h
/// The delta artifact (".cpdd"): what one ingest generation changed,
/// relative to a named base .cpdb generation. An incremental warm start
/// touches only the users that posted or linked in the batch (plus any
/// newly joined ones), but the full artifact still re-serializes every pi
/// row; the delta form ships just the touched rows, so publishing
/// generation N+1 is O(touched) bytes and the serving index can patch a
/// copy-on-write overlay over the mapped base instead of rebuilding.
///
/// The global estimates (theta, phi, eta, weights, popularity) are small —
/// O(|C| |Z| + |Z| |W|), independent of |U| — and every Gibbs sweep
/// perturbs all of them, so the delta always carries them whole; only pi
/// (the |U| x |C| matrix that dominates artifact size) is row-diffed.
///
/// Wire layout (little-endian, same endianness tag as .cpdb):
///
///   magic "CPDDELTA" | u32 version=1 | u32 endian tag |
///   i32 |C| | i32 |Z| | u64 |U| (result) | u64 |W| (result) | i32 T |
///   u64 #weights | u64 base_generation | u64 generation |
///   u64 base_num_users | u64 base_vocab_size | u64 touched_user_count |
///   u32 header_checksum (FNV-1a over the header, field zeroed) |
///   touched user ids (u64 each, strictly increasing; every id in
///     [base_|U|, |U|) must appear — new users have no base row to fall
///     back on) |
///   touched pi rows (touched_user_count x |C| doubles, id order) |
///   theta (C*Z) | phi (Z*W) | eta (C*C*Z) | weights | popularity (T*Z) |
///   u64 appended_word_count | appended (u32 len | bytes) each |
///   u64 frequency_count (0, or |W|) | frequencies (i64 each)
///
/// Vocabulary rule: a delta carries vocabulary (appended words for ids
/// [base_|W|, |W|) plus a full refreshed frequency table) iff the target
/// artifact bundles one; the base's first base_|W| words are taken as-is.
///
/// The codec is the .cpdb's: util/wire_format.h's WireWriter/WireReader
/// move every byte (each matrix is one append or one memcpy), its
/// HeaderChecksum stamps the header, and model_artifact.h's
/// CheckModelFilePreamble judges the magic / version / byte order.
///
/// Error taxonomy matches model_artifact.h: InvalidArgument for bad
/// magic/endianness/dims/checksum/ordering and trailing bytes,
/// Unimplemented for a newer version, OutOfRange for truncated bytes, and
/// FailedPrecondition when ApplyModelDelta is pointed at the wrong base
/// generation.

#include <cstdint>
#include <string>
#include <vector>

#include "core/model_artifact.h"
#include "util/status.h"

namespace cpd {

inline constexpr char kModelDeltaMagic[8] = {'C', 'P', 'D', 'D',
                                             'E', 'L', 'T', 'A'};
inline constexpr uint32_t kModelDeltaVersion = 1;

/// Decoded (or to-be-encoded) contents of one .cpdd delta.
struct ModelDelta {
  // Result-generation dimensions (what applying the delta produces).
  int32_t num_communities = 0;
  int32_t num_topics = 0;
  uint64_t num_users = 0;
  uint64_t vocab_size = 0;
  int32_t num_time_bins = 1;

  /// Generation stamp of the artifact this delta patches; ApplyModelDelta
  /// refuses any other base.
  uint64_t base_generation = 0;
  /// Generation stamp of the result.
  uint64_t generation = 0;
  uint64_t base_num_users = 0;
  uint64_t base_vocab_size = 0;

  /// Strictly increasing user ids whose pi rows this delta replaces (or,
  /// for ids >= base_num_users, introduces).
  std::vector<uint64_t> touched_users;
  /// touched_users.size() x |C| replacement rows, in touched_users order.
  std::vector<double> touched_pi;

  // Full result-generation globals (size-independent of |U|).
  std::vector<double> theta;
  std::vector<double> phi;
  std::vector<double> eta;
  std::vector<double> weights;
  std::vector<double> popularity;

  /// Words appended by this generation (ids base_vocab_size..vocab_size).
  /// Empty when the target carries no vocabulary.
  std::vector<std::string> appended_words;
  /// Refreshed occurrence counts for the *whole* result vocabulary (word
  /// frequencies drift every batch): empty, or exactly vocab_size entries.
  std::vector<int64_t> vocab_frequencies;

  bool has_vocabulary() const { return !vocab_frequencies.empty(); }

  /// InvalidArgument when any field disagrees with the dims or ordering
  /// rules above.
  Status Validate() const;
};

/// Header dimensions of the artifact a delta is applied to (an owned
/// ModelArtifact or a mapped v3 image).
struct DeltaBaseDims {
  uint64_t generation = 0;
  int32_t num_communities = 0;
  int32_t num_topics = 0;
  int32_t num_time_bins = 1;
  uint64_t num_users = 0;
  uint64_t vocab_size = 0;
};

/// The one rule for a base under `delta`: FailedPrecondition unless
/// base.generation == delta.base_generation; InvalidArgument unless |C|
/// and |Z| are equal, the base's T is not larger than the delta's (the
/// popularity matrix ships whole, so a later time bin may appear but none
/// may vanish) and the base's |U|/|W| are the delta's base dims.
/// ApplyModelDelta and ProfileIndex::FromMappedWithDelta both call it.
Status CheckDeltaBase(const DeltaBaseDims& base, const ModelDelta& delta);

/// Serializes the delta (deterministic: same delta -> same bytes).
StatusOr<std::string> EncodeModelDelta(const ModelDelta& delta);

/// Parses bytes produced by EncodeModelDelta; see the taxonomy above.
StatusOr<ModelDelta> DecodeModelDelta(const std::string& bytes);

/// Whole-file convenience wrappers.
Status WriteModelDelta(const std::string& path, const ModelDelta& delta);
StatusOr<ModelDelta> ReadModelDelta(const std::string& path);

/// Diffs `target` against `base`: touched = every pi row that changed
/// bitwise, plus all rows of users new in `target`. Fails when the two
/// artifacts are not one lineage (mismatched C/Z, shrinking T, users or
/// vocabulary, diverging base words, or target.generation <=
/// base.generation would still encode — generations are caller-owned and
/// only equality is checked at apply time).
StatusOr<ModelDelta> BuildModelDelta(const ModelArtifact& base,
                                     const ModelArtifact& target);

/// Merges two consecutive deltas into one that patches `first`'s base
/// straight to `second`'s result: touched rows are the union (second's row
/// wins on overlap), the globals/frequencies come from `second` alone, and
/// the appended word lists concatenate. FailedPrecondition unless
/// second.base_generation == first.generation; InvalidArgument when the
/// chained dims disagree (C/Z differ, T shrinks, or second's base |U|/|W|
/// are not first's result). Lets the registry apply an arbitrary .cpdd chain
/// against the one mapped base artifact it keeps open.
StatusOr<ModelDelta> ComposeModelDeltas(const ModelDelta& first,
                                        const ModelDelta& second);

/// Applies `delta` to `base`, producing the full result artifact
/// (generation = delta.generation). Fails as CheckDeltaBase does, and
/// with InvalidArgument when the delta carries a vocabulary the base lacks.
StatusOr<ModelArtifact> ApplyModelDelta(const ModelArtifact& base,
                                        const ModelDelta& delta);

}  // namespace cpd

#endif  // CPD_CORE_MODEL_DELTA_H_
