#include "core/model_delta.h"

#include <algorithm>
#include <cstring>

#include "core/model_state.h"
#include "util/file_util.h"
#include "util/string_util.h"
#include "util/wire_format.h"

namespace cpd {

namespace {

using uint128_t = unsigned __int128;

// 0  magic[8]                 52 u64 base_generation
// 8  u32 version              60 u64 generation
// 12 u32 endian tag           68 u64 base_num_users
// 16 i32 |C|                  76 u64 base_vocab_size
// 20 i32 |Z|                  84 u64 touched_user_count
// 24 u64 |U| (result)         92 u32 header_checksum
// 32 u64 |W| (result)
// 40 i32 T
// 44 u64 #weights
constexpr size_t kDeltaHeaderBytes = 96;
constexpr size_t kDeltaChecksumOffset = 92;

constexpr ModelFilePreamble kModelDeltaPreamble = {
    .magic = kModelDeltaMagic,
    .kind = "model delta",
    .not_this_kind = "not a CPD model delta",
    .min_version = 1,
    .max_version = kModelDeltaVersion,
    .header_bytes = kDeltaHeaderBytes};

}  // namespace

Status ModelDelta::Validate() const {
  if (num_communities < 1 || num_topics < 1 || num_time_bins < 1) {
    return Status::InvalidArgument("model delta: non-positive dimensions");
  }
  if (weights.size() != static_cast<size_t>(kNumDiffusionWeights)) {
    return Status::InvalidArgument(
        StrFormat("model delta: %zu diffusion weights, expected %d",
                  weights.size(), kNumDiffusionWeights));
  }
  if (base_num_users > num_users) {
    return Status::InvalidArgument(StrFormat(
        "model delta: base has %llu users but result has %llu (users never "
        "leave a lineage)",
        static_cast<unsigned long long>(base_num_users),
        static_cast<unsigned long long>(num_users)));
  }
  if (base_vocab_size > vocab_size) {
    return Status::InvalidArgument(StrFormat(
        "model delta: base has %llu words but result has %llu (vocabulary "
        "ids are append-only)",
        static_cast<unsigned long long>(base_vocab_size),
        static_cast<unsigned long long>(vocab_size)));
  }
  const size_t kc = static_cast<size_t>(num_communities);
  const size_t kz = static_cast<size_t>(num_topics);
  const size_t kt = static_cast<size_t>(num_time_bins);
  const auto check = [](size_t actual, size_t expected, const char* name) {
    if (actual != expected) {
      return Status::InvalidArgument(
          StrFormat("model delta: %s has %zu entries, header implies %zu",
                    name, actual, expected));
    }
    return Status::OK();
  };
  CPD_RETURN_IF_ERROR(
      check(touched_pi.size(), touched_users.size() * kc, "touched pi"));
  CPD_RETURN_IF_ERROR(check(theta.size(), kc * kz, "theta"));
  CPD_RETURN_IF_ERROR(check(phi.size(), kz * vocab_size, "phi"));
  CPD_RETURN_IF_ERROR(check(eta.size(), kc * kc * kz, "eta"));
  CPD_RETURN_IF_ERROR(check(popularity.size(), kt * kz, "popularity"));
  uint64_t previous = 0;
  bool first = true;
  size_t new_users_touched = 0;
  for (const uint64_t user : touched_users) {
    if (!first && user <= previous) {
      return Status::InvalidArgument(
          "model delta: touched user ids are not strictly increasing");
    }
    if (user >= num_users) {
      return Status::InvalidArgument(StrFormat(
          "model delta: touched user %llu out of range (|U|=%llu)",
          static_cast<unsigned long long>(user),
          static_cast<unsigned long long>(num_users)));
    }
    if (user >= base_num_users) ++new_users_touched;
    previous = user;
    first = false;
  }
  if (new_users_touched != num_users - base_num_users) {
    return Status::InvalidArgument(StrFormat(
        "model delta: %llu users are new in this generation but only %zu "
        "of their pi rows are shipped",
        static_cast<unsigned long long>(num_users - base_num_users),
        new_users_touched));
  }
  if (has_vocabulary()) {
    CPD_RETURN_IF_ERROR(check(vocab_frequencies.size(), vocab_size,
                              "vocabulary frequencies"));
    CPD_RETURN_IF_ERROR(
        check(appended_words.size(),
              static_cast<size_t>(vocab_size - base_vocab_size),
              "appended words"));
  } else if (!appended_words.empty()) {
    return Status::InvalidArgument(
        "model delta: appended words without a frequency table");
  }
  return Status::OK();
}

StatusOr<std::string> EncodeModelDelta(const ModelDelta& delta) {
  CPD_RETURN_IF_ERROR(delta.Validate());
  std::string out;
  out.reserve(kDeltaHeaderBytes +
              delta.touched_users.size() * sizeof(uint64_t) +
              (delta.touched_pi.size() + delta.theta.size() +
               delta.phi.size() + delta.eta.size() + delta.weights.size() +
               delta.popularity.size()) *
                  sizeof(double));
  WireWriter writer(&out);
  writer.Bytes({kModelDeltaMagic, sizeof(kModelDeltaMagic)});
  writer.U32(kModelDeltaVersion);
  writer.U32(kModelArtifactEndianTag);
  writer.I32(delta.num_communities);
  writer.I32(delta.num_topics);
  writer.U64(delta.num_users);
  writer.U64(delta.vocab_size);
  writer.I32(delta.num_time_bins);
  writer.U64(delta.weights.size());
  writer.U64(delta.base_generation);
  writer.U64(delta.generation);
  writer.U64(delta.base_num_users);
  writer.U64(delta.base_vocab_size);
  writer.U64(delta.touched_users.size());
  writer.U32(0u);  // Header checksum, stored below.
  writer.StoreAt<uint32_t>(kDeltaChecksumOffset,
                           HeaderChecksum(out, kDeltaChecksumOffset));
  writer.Array(delta.touched_users);
  writer.Array(delta.touched_pi);
  writer.Array(delta.theta);
  writer.Array(delta.phi);
  writer.Array(delta.eta);
  writer.Array(delta.weights);
  writer.Array(delta.popularity);
  writer.U64(delta.appended_words.size());
  for (const std::string& word : delta.appended_words) {
    writer.U32(static_cast<uint32_t>(word.size()));
    writer.Bytes(word);
  }
  writer.Vec(delta.vocab_frequencies);
  return out;
}

StatusOr<ModelDelta> DecodeModelDelta(const std::string& bytes) {
  CPD_RETURN_IF_ERROR(
      CheckModelFilePreamble(bytes, kModelDeltaPreamble).status());
  WireReader reader(bytes);
  reader.Bytes(kModelFilePreambleBytes);
  ModelDelta delta;
  delta.num_communities = reader.I32();
  delta.num_topics = reader.I32();
  delta.num_users = reader.U64();
  delta.vocab_size = reader.U64();
  delta.num_time_bins = reader.I32();
  const uint64_t num_weights = reader.U64();
  delta.base_generation = reader.U64();
  delta.generation = reader.U64();
  delta.base_num_users = reader.U64();
  delta.base_vocab_size = reader.U64();
  const uint64_t touched_count = reader.U64();
  const uint32_t stored_checksum = reader.U32();
  if (HeaderChecksum(std::string_view(bytes).substr(0, kDeltaHeaderBytes),
                     kDeltaChecksumOffset) != stored_checksum) {
    return Status::InvalidArgument(
        "model delta: header checksum mismatch (corrupt header)");
  }
  if (delta.num_communities < 1 || delta.num_topics < 1 ||
      delta.num_time_bins < 1) {
    return Status::InvalidArgument(
        "model delta: corrupt header (non-positive dimensions)");
  }
  if (num_weights != static_cast<uint64_t>(kNumDiffusionWeights)) {
    return Status::InvalidArgument(
        StrFormat("model delta: %llu diffusion weights, expected %d",
                  static_cast<unsigned long long>(num_weights),
                  kNumDiffusionWeights));
  }
  if (touched_count > delta.num_users) {
    return Status::InvalidArgument(StrFormat(
        "model delta: %llu touched users but |U|=%llu",
        static_cast<unsigned long long>(touched_count),
        static_cast<unsigned long long>(delta.num_users)));
  }
  // Bound every matrix against the bytes that actually follow before sizing
  // any allocation (128-bit accumulation so a crafted header cannot wrap).
  const size_t kc = static_cast<size_t>(delta.num_communities);
  const size_t kz = static_cast<size_t>(delta.num_topics);
  const size_t kt = static_cast<size_t>(delta.num_time_bins);
  const uint128_t body_doubles =
      static_cast<uint128_t>(touched_count) * kc +
      static_cast<uint128_t>(kc) * kz +
      static_cast<uint128_t>(kz) * delta.vocab_size +
      static_cast<uint128_t>(kc) * kc * kz +
      static_cast<uint128_t>(num_weights) + static_cast<uint128_t>(kt) * kz;
  const uint128_t body_bytes =
      static_cast<uint128_t>(touched_count) * sizeof(uint64_t) +
      body_doubles * sizeof(double);
  if (body_bytes > reader.remaining()) {
    return Status::OutOfRange(StrFormat(
        "model delta: truncated body (%zu bytes left, header needs %llu)",
        reader.remaining(),
        static_cast<unsigned long long>(
            body_bytes > ~0ull ? ~0ull : static_cast<uint64_t>(body_bytes))));
  }
  reader.Array(touched_count, &delta.touched_users);
  reader.Array(touched_count * kc, &delta.touched_pi);
  reader.Array(kc * kz, &delta.theta);
  reader.Array(kz * delta.vocab_size, &delta.phi);
  reader.Array(kc * kc * kz, &delta.eta);
  reader.Array(num_weights, &delta.weights);
  reader.Array(kt * kz, &delta.popularity);

  const auto truncated_vocab = [] {
    return Status::OutOfRange("model delta: truncated vocabulary section");
  };
  const uint64_t appended_count = reader.U64();
  if (!reader.ok()) return truncated_vocab();
  if (appended_count > delta.vocab_size - delta.base_vocab_size &&
      delta.vocab_size >= delta.base_vocab_size) {
    return Status::InvalidArgument(StrFormat(
        "model delta: %llu appended words but the vocabulary grew by %llu",
        static_cast<unsigned long long>(appended_count),
        static_cast<unsigned long long>(delta.vocab_size -
                                        delta.base_vocab_size)));
  }
  delta.appended_words.reserve(static_cast<size_t>(
      std::min<uint64_t>(appended_count, reader.remaining() / 4 + 1)));
  for (uint64_t i = 0; i < appended_count; ++i) {
    const std::string_view word = reader.Bytes(reader.U32());
    if (!reader.ok()) return truncated_vocab();
    delta.appended_words.emplace_back(word);
  }
  const uint64_t frequency_count = reader.U64();
  if (!reader.ok()) return truncated_vocab();
  if (frequency_count != 0 && frequency_count != delta.vocab_size) {
    return Status::InvalidArgument(StrFormat(
        "model delta: frequency table has %llu entries, header says "
        "|W|=%llu",
        static_cast<unsigned long long>(frequency_count),
        static_cast<unsigned long long>(delta.vocab_size)));
  }
  reader.Array(frequency_count, &delta.vocab_frequencies);
  if (!reader.ok()) return truncated_vocab();
  if (reader.remaining() != 0) {
    return Status::InvalidArgument(StrFormat(
        "model delta: %zu trailing bytes after the last section",
        reader.remaining()));
  }
  CPD_RETURN_IF_ERROR(delta.Validate());
  return delta;
}

Status WriteModelDelta(const std::string& path, const ModelDelta& delta) {
  auto encoded = EncodeModelDelta(delta);
  if (!encoded.ok()) return encoded.status();
  return WriteStringToFile(path, *encoded);
}

StatusOr<ModelDelta> ReadModelDelta(const std::string& path) {
  auto contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  auto decoded = DecodeModelDelta(*contents);
  if (!decoded.ok()) {
    return Status(decoded.status().code(),
                  decoded.status().message() + ": " + path);
  }
  return decoded;
}

StatusOr<ModelDelta> BuildModelDelta(const ModelArtifact& base,
                                     const ModelArtifact& target) {
  CPD_RETURN_IF_ERROR(base.Validate());
  CPD_RETURN_IF_ERROR(target.Validate());
  if (base.num_communities != target.num_communities ||
      base.num_topics != target.num_topics ||
      target.num_time_bins < base.num_time_bins) {
    return Status::InvalidArgument(
        "model delta: base and target disagree on |C|/|Z| or T shrinks (not "
        "one lineage)");
  }
  if (target.num_users < base.num_users) {
    return Status::InvalidArgument(
        "model delta: target has fewer users than base (users never leave a "
        "lineage)");
  }
  if (target.vocab_size < base.vocab_size) {
    return Status::InvalidArgument(
        "model delta: target vocabulary is smaller than base (word ids are "
        "append-only)");
  }
  if (target.has_vocabulary() && base.has_vocabulary()) {
    for (size_t w = 0; w < base.vocab_words.size(); ++w) {
      if (base.vocab_words[w] != target.vocab_words[w]) {
        return Status::InvalidArgument(StrFormat(
            "model delta: word id %zu is '%s' in base but '%s' in target "
            "(word ids are append-only)",
            w, base.vocab_words[w].c_str(), target.vocab_words[w].c_str()));
      }
    }
  }
  ModelDelta delta;
  delta.num_communities = target.num_communities;
  delta.num_topics = target.num_topics;
  delta.num_users = target.num_users;
  delta.vocab_size = target.vocab_size;
  delta.num_time_bins = target.num_time_bins;
  delta.base_generation = base.generation;
  delta.generation = target.generation;
  delta.base_num_users = base.num_users;
  delta.base_vocab_size = base.vocab_size;
  const size_t kc = static_cast<size_t>(target.num_communities);
  for (uint64_t u = 0; u < target.num_users; ++u) {
    const double* target_row = target.pi.data() + u * kc;
    const bool is_new = u >= base.num_users;
    const bool changed =
        is_new || std::memcmp(base.pi.data() + u * kc, target_row,
                              kc * sizeof(double)) != 0;
    if (!changed) continue;
    delta.touched_users.push_back(u);
    delta.touched_pi.insert(delta.touched_pi.end(), target_row,
                            target_row + kc);
  }
  delta.theta = target.theta;
  delta.phi = target.phi;
  delta.eta = target.eta;
  delta.weights = target.weights;
  delta.popularity = target.popularity;
  if (target.has_vocabulary()) {
    delta.appended_words.assign(
        target.vocab_words.begin() +
            static_cast<ptrdiff_t>(base.vocab_size),
        target.vocab_words.end());
    delta.vocab_frequencies = target.vocab_frequencies;
  }
  return delta;
}

StatusOr<ModelDelta> ComposeModelDeltas(const ModelDelta& first,
                                        const ModelDelta& second) {
  CPD_RETURN_IF_ERROR(first.Validate());
  CPD_RETURN_IF_ERROR(second.Validate());
  if (second.base_generation != first.generation) {
    return Status::FailedPrecondition(StrFormat(
        "model delta: cannot chain — the second delta patches generation "
        "%llu but the first produces generation %llu",
        static_cast<unsigned long long>(second.base_generation),
        static_cast<unsigned long long>(first.generation)));
  }
  if (first.num_communities != second.num_communities ||
      first.num_topics != second.num_topics ||
      second.num_time_bins < first.num_time_bins) {
    return Status::InvalidArgument(
        "model delta: chained deltas disagree on |C|/|Z| or T shrinks");
  }
  if (second.base_num_users != first.num_users ||
      second.base_vocab_size != first.vocab_size) {
    return Status::InvalidArgument(StrFormat(
        "model delta: the second delta expects a base with |U|=%llu "
        "|W|=%llu but the first produces |U|=%llu |W|=%llu",
        static_cast<unsigned long long>(second.base_num_users),
        static_cast<unsigned long long>(second.base_vocab_size),
        static_cast<unsigned long long>(first.num_users),
        static_cast<unsigned long long>(first.vocab_size)));
  }
  if (second.has_vocabulary() != first.has_vocabulary() &&
      first.vocab_size != 0) {
    return Status::InvalidArgument(
        "model delta: chained deltas disagree on whether the lineage "
        "bundles a vocabulary");
  }
  ModelDelta out;
  out.num_communities = second.num_communities;
  out.num_topics = second.num_topics;
  out.num_users = second.num_users;
  out.vocab_size = second.vocab_size;
  out.num_time_bins = second.num_time_bins;
  out.base_generation = first.base_generation;
  out.generation = second.generation;
  out.base_num_users = first.base_num_users;
  out.base_vocab_size = first.base_vocab_size;
  const size_t kc = static_cast<size_t>(second.num_communities);
  // Merge the sorted touched lists; on overlap the second delta's row is
  // the surviving one.
  size_t i = 0;
  size_t j = 0;
  while (i < first.touched_users.size() || j < second.touched_users.size()) {
    uint64_t user;
    const double* row;
    if (j >= second.touched_users.size() ||
        (i < first.touched_users.size() &&
         first.touched_users[i] < second.touched_users[j])) {
      user = first.touched_users[i];
      row = first.touched_pi.data() + i * kc;
      ++i;
    } else {
      user = second.touched_users[j];
      row = second.touched_pi.data() + j * kc;
      ++j;
      if (i < first.touched_users.size() && first.touched_users[i] == user) {
        ++i;  // superseded
      }
    }
    out.touched_users.push_back(user);
    out.touched_pi.insert(out.touched_pi.end(), row, row + kc);
  }
  out.theta = second.theta;
  out.phi = second.phi;
  out.eta = second.eta;
  out.weights = second.weights;
  out.popularity = second.popularity;
  out.appended_words.reserve(first.appended_words.size() +
                             second.appended_words.size());
  out.appended_words = first.appended_words;
  out.appended_words.insert(out.appended_words.end(),
                            second.appended_words.begin(),
                            second.appended_words.end());
  out.vocab_frequencies = second.vocab_frequencies;
  CPD_RETURN_IF_ERROR(out.Validate());
  return out;
}

Status CheckDeltaBase(const DeltaBaseDims& base, const ModelDelta& delta) {
  if (base.generation != delta.base_generation) {
    return Status::FailedPrecondition(StrFormat(
        "model delta: patches generation %llu but the base artifact is "
        "generation %llu",
        static_cast<unsigned long long>(delta.base_generation),
        static_cast<unsigned long long>(base.generation)));
  }
  if (base.num_communities != delta.num_communities ||
      base.num_topics != delta.num_topics ||
      base.num_time_bins > delta.num_time_bins) {
    return Status::InvalidArgument(StrFormat(
        "model delta: a base with |C|=%d |Z|=%d T=%d does not fit a delta "
        "with |C|=%d |Z|=%d T=%d (|C|/|Z| must match, T may only grow)",
        base.num_communities, base.num_topics, base.num_time_bins,
        delta.num_communities, delta.num_topics, delta.num_time_bins));
  }
  if (base.num_users != delta.base_num_users ||
      base.vocab_size != delta.base_vocab_size) {
    return Status::InvalidArgument(StrFormat(
        "model delta: expects a base with |U|=%llu |W|=%llu, got |U|=%llu "
        "|W|=%llu",
        static_cast<unsigned long long>(delta.base_num_users),
        static_cast<unsigned long long>(delta.base_vocab_size),
        static_cast<unsigned long long>(base.num_users),
        static_cast<unsigned long long>(base.vocab_size)));
  }
  return Status::OK();
}

StatusOr<ModelArtifact> ApplyModelDelta(const ModelArtifact& base,
                                        const ModelDelta& delta) {
  CPD_RETURN_IF_ERROR(base.Validate());
  CPD_RETURN_IF_ERROR(delta.Validate());
  CPD_RETURN_IF_ERROR(CheckDeltaBase(
      {base.generation, base.num_communities, base.num_topics,
       base.num_time_bins, base.num_users, base.vocab_size},
      delta));
  if (delta.has_vocabulary() && !base.has_vocabulary() &&
      delta.base_vocab_size != 0) {
    return Status::InvalidArgument(
        "model delta: carries a vocabulary but the base artifact bundles "
        "none");
  }
  ModelArtifact result;
  result.num_communities = delta.num_communities;
  result.num_topics = delta.num_topics;
  result.num_users = delta.num_users;
  result.vocab_size = delta.vocab_size;
  result.num_time_bins = delta.num_time_bins;
  result.generation = delta.generation;
  const size_t kc = static_cast<size_t>(delta.num_communities);
  result.pi.assign(static_cast<size_t>(delta.num_users) * kc, 0.0);
  std::memcpy(result.pi.data(), base.pi.data(),
              base.pi.size() * sizeof(double));
  for (size_t i = 0; i < delta.touched_users.size(); ++i) {
    std::memcpy(result.pi.data() + delta.touched_users[i] * kc,
                delta.touched_pi.data() + i * kc, kc * sizeof(double));
  }
  result.theta = delta.theta;
  result.phi = delta.phi;
  result.eta = delta.eta;
  result.weights = delta.weights;
  result.popularity = delta.popularity;
  if (delta.has_vocabulary()) {
    result.vocab_words.reserve(static_cast<size_t>(delta.vocab_size));
    result.vocab_words.assign(
        base.vocab_words.begin(),
        base.vocab_words.begin() +
            static_cast<ptrdiff_t>(delta.base_vocab_size));
    result.vocab_words.insert(result.vocab_words.end(),
                              delta.appended_words.begin(),
                              delta.appended_words.end());
    result.vocab_frequencies = delta.vocab_frequencies;
  }
  CPD_RETURN_IF_ERROR(result.Validate());
  return result;
}

}  // namespace cpd
