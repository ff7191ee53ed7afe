#include "core/model_artifact.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "core/artifact_derived.h"
#include "core/model_state.h"
#include "util/file_util.h"
#include "util/string_util.h"
#include "util/wire_format.h"

namespace cpd {

namespace {

/// Overflow-proof arithmetic for size checks against attacker-controlled
/// headers: every dimension fits in 64 bits, so no product of two (plus a
/// sum of a handful) can wrap 128.
using uint128_t = unsigned __int128;

// ----- v3 fixed geometry -----
// 0  magic[8]           40 i32 T
// 8  u32 version        44 u64 #weights
// 12 u32 endian tag     52 u32 section_alignment
// 16 i32 |C|            56 u32 section_count
// 20 i32 |Z|            60 u32 derived_top_k
// 24 u64 |U|            64 u32 header_checksum
// 32 u64 |W|            68 u64 model_generation
// 76 section table (24 bytes per entry), then aligned sections.
constexpr size_t kV3FixedHeaderBytes = 76;
constexpr size_t kV3TableEntryBytes = 24;
constexpr size_t kV3ChecksumOffset = 64;
constexpr uint32_t kV3MaxSections = 64;
constexpr uint32_t kV3MaxAlignment = 1u << 24;

size_t AlignUp(size_t value, size_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

Status CheckAlignment(uint32_t alignment) {
  if (alignment < 8 || alignment > kV3MaxAlignment ||
      (alignment & (alignment - 1)) != 0) {
    return Status::InvalidArgument(StrFormat(
        "model artifact: section alignment %u is not a power of two in "
        "[8, %u]",
        alignment, kV3MaxAlignment));
  }
  return Status::OK();
}

/// The bytes of one v3 section of a validated layout.
std::string_view SectionBytes(const char* data, const ArtifactV3Layout& layout,
                              ArtifactSection id) {
  const ArtifactV3Layout::Extent& extent =
      layout.sections[static_cast<uint32_t>(id)];
  return {data + extent.offset, static_cast<size_t>(extent.length)};
}

/// The one walk over a bundled vocabulary. A v2 trailer and a v3 section
/// hold the same bytes, u64 count | count x (u32 len | bytes | i64 freq),
/// and the count must be 0 or `vocab_size`. Validates only when `words` is
/// null, else also fills `words` and `frequencies`. Stops after the last
/// entry; what follows is the caller's to judge. Returns the count.
StatusOr<uint64_t> ReadVocabulary(WireReader* reader, uint64_t vocab_size,
                                  std::vector<std::string>* words,
                                  std::vector<int64_t>* frequencies) {
  const uint64_t count = reader->U64();
  if (!reader->ok()) {
    return Status::OutOfRange("model artifact: truncated vocabulary section");
  }
  if (count != 0 && count != vocab_size) {
    return Status::InvalidArgument(StrFormat(
        "model artifact: vocabulary section has %llu words, header says "
        "|W|=%llu",
        static_cast<unsigned long long>(count),
        static_cast<unsigned long long>(vocab_size)));
  }
  if (words != nullptr) {
    // An entry is at least 12 bytes, so the input bounds the reserve.
    const size_t bound = static_cast<size_t>(
        std::min<uint64_t>(count, reader->remaining() / 12 + 1));
    words->reserve(bound);
    frequencies->reserve(bound);
  }
  for (uint64_t i = 0; i < count; ++i) {
    const std::string_view word = reader->Bytes(reader->U32());
    const int64_t frequency = reader->I64();
    if (!reader->ok()) {
      return Status::OutOfRange(
          "model artifact: truncated vocabulary section");
    }
    if (words != nullptr) {
      words->emplace_back(word);
      frequencies->push_back(frequency);
    }
  }
  return count;
}

Status VocabularyFromWords(const std::vector<std::string>& words,
                           const std::vector<int64_t>& frequencies,
                           Vocabulary* out) {
  Vocabulary vocab;
  for (size_t i = 0; i < words.size(); ++i) {
    if (vocab.GetOrAdd(words[i]) != static_cast<WordId>(i)) {
      return Status::InvalidArgument(
          "model artifact: duplicate vocabulary word '" + words[i] + "'");
    }
    vocab.CountOccurrence(static_cast<WordId>(i), frequencies[i]);
  }
  *out = std::move(vocab);
  return Status::OK();
}

}  // namespace

const char* ArtifactSectionName(uint32_t id) {
  switch (static_cast<ArtifactSection>(id)) {
    case ArtifactSection::kPi:
      return "pi";
    case ArtifactSection::kTheta:
      return "theta";
    case ArtifactSection::kPhi:
      return "phi";
    case ArtifactSection::kEta:
      return "eta";
    case ArtifactSection::kWeights:
      return "weights";
    case ArtifactSection::kPopularity:
      return "popularity";
    case ArtifactSection::kVocab:
      return "vocab";
    case ArtifactSection::kEtaAgg:
      return "eta_agg";
    case ArtifactSection::kTopkCommunities:
      return "topk_communities";
    case ArtifactSection::kTopkWeights:
      return "topk_weights";
    case ArtifactSection::kMemberOffsets:
      return "member_offsets";
    case ArtifactSection::kMembers:
      return "members";
    case ArtifactSection::kMemberWeights:
      return "member_weights";
  }
  return "unknown";
}

int32_t ArtifactV3Layout::effective_top_k() const {
  if (derived_top_k == 0) return 0;
  return static_cast<int32_t>(std::min<uint64_t>(
      derived_top_k, static_cast<uint64_t>(num_communities)));
}

Status ModelArtifact::Validate() const {
  if (num_communities < 1 || num_topics < 1 || num_time_bins < 1) {
    return Status::InvalidArgument("model artifact: non-positive dimensions");
  }
  if (weights.size() != static_cast<size_t>(kNumDiffusionWeights)) {
    return Status::InvalidArgument(
        StrFormat("model artifact: %zu diffusion weights, expected %d",
                  weights.size(), kNumDiffusionWeights));
  }
  const size_t kc = static_cast<size_t>(num_communities);
  const size_t kz = static_cast<size_t>(num_topics);
  const size_t kt = static_cast<size_t>(num_time_bins);
  const auto check = [](size_t actual, size_t expected, const char* name) {
    if (actual != expected) {
      return Status::InvalidArgument(
          StrFormat("model artifact: %s has %zu entries, header implies %zu",
                    name, actual, expected));
    }
    return Status::OK();
  };
  CPD_RETURN_IF_ERROR(check(pi.size(), num_users * kc, "pi"));
  CPD_RETURN_IF_ERROR(check(theta.size(), kc * kz, "theta"));
  CPD_RETURN_IF_ERROR(check(phi.size(), kz * vocab_size, "phi"));
  CPD_RETURN_IF_ERROR(check(eta.size(), kc * kc * kz, "eta"));
  CPD_RETURN_IF_ERROR(check(popularity.size(), kt * kz, "popularity"));
  if (!vocab_words.empty()) {
    CPD_RETURN_IF_ERROR(check(vocab_words.size(), vocab_size, "vocabulary"));
    CPD_RETURN_IF_ERROR(check(vocab_frequencies.size(), vocab_words.size(),
                              "vocabulary frequencies"));
  } else if (!vocab_frequencies.empty()) {
    return Status::InvalidArgument(
        "model artifact: vocabulary frequencies without words");
  }
  return Status::OK();
}

Status ModelArtifact::BuildVocabulary(Vocabulary* out) const {
  if (!has_vocabulary()) {
    return Status::FailedPrecondition(
        "model artifact carries no bundled vocabulary (v1 file, or saved "
        "without one)");
  }
  CPD_RETURN_IF_ERROR(Validate());
  return VocabularyFromWords(vocab_words, vocab_frequencies, out);
}

namespace {

std::string EncodeVocabSection(const ModelArtifact& artifact) {
  std::string out;
  WireWriter writer(&out);
  writer.U64(artifact.vocab_words.size());
  for (size_t i = 0; i < artifact.vocab_words.size(); ++i) {
    const std::string& word = artifact.vocab_words[i];
    writer.U32(static_cast<uint32_t>(word.size()));
    writer.Bytes(word);
    writer.I64(artifact.vocab_frequencies[i]);
  }
  return out;
}

/// The packed bytes of a vector, as one section payload.
template <typename T>
std::string_view PayloadBytes(const std::vector<T>& values) {
  return {reinterpret_cast<const char*>(values.data()),
          values.size() * sizeof(T)};
}

StatusOr<std::string> EncodeV3(const ModelArtifact& artifact,
                               const ArtifactWriteOptions& options) {
  const uint32_t alignment = options.section_alignment;
  CPD_RETURN_IF_ERROR(CheckAlignment(alignment));
  const ArtifactDerived derived = BuildArtifactDerived(
      std::span<const double>(artifact.pi),
      std::span<const double>(artifact.eta), artifact.num_communities,
      artifact.num_topics, static_cast<size_t>(artifact.num_users),
      static_cast<int>(std::min<uint32_t>(options.derived_top_k, 1u << 20)));
  const std::string vocab_section = EncodeVocabSection(artifact);

  struct Payload {
    ArtifactSection id;
    std::string_view bytes;
  };
  std::vector<Payload> payloads = {
      {ArtifactSection::kPi, PayloadBytes(artifact.pi)},
      {ArtifactSection::kTheta, PayloadBytes(artifact.theta)},
      {ArtifactSection::kPhi, PayloadBytes(artifact.phi)},
      {ArtifactSection::kEta, PayloadBytes(artifact.eta)},
      {ArtifactSection::kWeights, PayloadBytes(artifact.weights)},
      {ArtifactSection::kPopularity, PayloadBytes(artifact.popularity)},
      {ArtifactSection::kVocab, vocab_section},
      {ArtifactSection::kEtaAgg, PayloadBytes(derived.eta_agg)},
  };
  if (options.derived_top_k > 0) {
    payloads.push_back({ArtifactSection::kTopkCommunities,
                        PayloadBytes(derived.topk_communities)});
    payloads.push_back(
        {ArtifactSection::kTopkWeights, PayloadBytes(derived.topk_weights)});
    payloads.push_back({ArtifactSection::kMemberOffsets,
                        PayloadBytes(derived.member_offsets)});
    payloads.push_back(
        {ArtifactSection::kMembers, PayloadBytes(derived.members)});
    payloads.push_back({ArtifactSection::kMemberWeights,
                        PayloadBytes(derived.member_weights)});
  }

  const size_t table_end =
      kV3FixedHeaderBytes + payloads.size() * kV3TableEntryBytes;
  std::vector<size_t> offsets(payloads.size());
  size_t cursor = table_end;
  for (size_t i = 0; i < payloads.size(); ++i) {
    cursor = AlignUp(cursor, alignment);
    offsets[i] = cursor;
    cursor += payloads[i].bytes.size();
  }
  std::string out;
  out.reserve(cursor);
  WireWriter writer(&out);
  writer.Bytes({kModelArtifactMagic, sizeof(kModelArtifactMagic)});
  writer.U32(3u);
  writer.U32(kModelArtifactEndianTag);
  writer.I32(artifact.num_communities);
  writer.I32(artifact.num_topics);
  writer.U64(artifact.num_users);
  writer.U64(artifact.vocab_size);
  writer.I32(artifact.num_time_bins);
  writer.U64(artifact.weights.size());
  writer.U32(alignment);
  writer.U32(static_cast<uint32_t>(payloads.size()));
  writer.U32(options.derived_top_k);
  writer.U32(0u);  // Header checksum, stored below.
  writer.U64(artifact.generation);
  for (size_t i = 0; i < payloads.size(); ++i) {
    writer.U32(static_cast<uint32_t>(payloads[i].id));
    writer.U32(0u);
    writer.U64(offsets[i]);
    writer.U64(payloads[i].bytes.size());
  }
  for (size_t i = 0; i < payloads.size(); ++i) {
    out.resize(offsets[i], '\0');  // Zero padding up to the alignment.
    writer.Bytes(payloads[i].bytes);
  }
  writer.StoreAt<uint32_t>(
      kV3ChecksumOffset,
      HeaderChecksum(std::string_view(out).substr(0, table_end),
                     kV3ChecksumOffset));
  return out;
}

uint128_t SectionExpectedBytes(ArtifactSection id,
                               const ArtifactV3Layout& layout) {
  const uint128_t kc = static_cast<uint128_t>(layout.num_communities);
  const uint128_t kz = static_cast<uint128_t>(layout.num_topics);
  const uint128_t kt = static_cast<uint128_t>(layout.num_time_bins);
  const uint128_t ku = static_cast<uint128_t>(layout.num_users);
  const uint128_t kw = static_cast<uint128_t>(layout.vocab_size);
  const uint128_t k = static_cast<uint128_t>(layout.effective_top_k());
  switch (id) {
    case ArtifactSection::kPi:
      return ku * kc * sizeof(double);
    case ArtifactSection::kTheta:
      return kc * kz * sizeof(double);
    case ArtifactSection::kPhi:
      return kz * kw * sizeof(double);
    case ArtifactSection::kEta:
      return kc * kc * kz * sizeof(double);
    case ArtifactSection::kWeights:
      return static_cast<uint128_t>(layout.num_weights) * sizeof(double);
    case ArtifactSection::kPopularity:
      return kt * kz * sizeof(double);
    case ArtifactSection::kVocab:
      return 0;  // Validated by the internal walk instead.
    case ArtifactSection::kEtaAgg:
      return kc * kc * sizeof(double);
    case ArtifactSection::kTopkCommunities:
      return ku * k * sizeof(int32_t);
    case ArtifactSection::kTopkWeights:
      return ku * k * sizeof(double);
    case ArtifactSection::kMemberOffsets:
      return (kc + 1) * sizeof(uint64_t);
    case ArtifactSection::kMembers:
      return ku * k * sizeof(int32_t);
    case ArtifactSection::kMemberWeights:
      return ku * k * sizeof(double);
  }
  return 0;
}

/// Validates `data[0..size)` as a v3 artifact whose preamble already
/// passed CheckModelFilePreamble, and fills `layout`: checksum, table,
/// section geometry and the vocabulary/posting internals are all checked
/// here, with section-named typed errors. The heap decoder and the mapped
/// reader both call it, so the two cannot disagree on what a valid file is.
Status ParseV3Layout(const char* data, size_t size,
                     ArtifactV3Layout* layout) {
  if (size < kV3FixedHeaderBytes) {
    return Status::OutOfRange(StrFormat(
        "model artifact: truncated v3 header (%zu bytes, need %zu)", size,
        kV3FixedHeaderBytes));
  }
  WireReader header(std::string_view(data, size));
  header.Bytes(kModelFilePreambleBytes);
  layout->num_communities = header.I32();
  layout->num_topics = header.I32();
  layout->num_users = header.U64();
  layout->vocab_size = header.U64();
  layout->num_time_bins = header.I32();
  layout->num_weights = header.U64();
  layout->section_alignment = header.U32();
  const uint32_t section_count = header.U32();
  layout->derived_top_k = header.U32();
  const uint32_t stored_checksum = header.U32();
  layout->generation = header.U64();

  if (layout->num_communities < 1 || layout->num_topics < 1 ||
      layout->num_time_bins < 1) {
    return Status::InvalidArgument(
        "model artifact: corrupt header (non-positive dimensions)");
  }
  if (layout->num_weights != static_cast<uint64_t>(kNumDiffusionWeights)) {
    return Status::InvalidArgument(
        StrFormat("model artifact: %llu diffusion weights, expected %d",
                  static_cast<unsigned long long>(layout->num_weights),
                  kNumDiffusionWeights));
  }
  const uint32_t alignment = layout->section_alignment;
  CPD_RETURN_IF_ERROR(CheckAlignment(alignment));
  if (section_count < 1 || section_count > kV3MaxSections) {
    return Status::InvalidArgument(
        StrFormat("model artifact: implausible section count %u",
                  section_count));
  }
  const size_t table_end =
      kV3FixedHeaderBytes + section_count * kV3TableEntryBytes;
  if (table_end > size) {
    return Status::OutOfRange(StrFormat(
        "model artifact: truncated section table (%u sections need %zu "
        "bytes, file has %zu)",
        section_count, table_end, size));
  }
  if (HeaderChecksum(std::string_view(data, table_end), kV3ChecksumOffset) !=
      stored_checksum) {
    return Status::InvalidArgument(
        "model artifact: header checksum mismatch (corrupt header or "
        "section table)");
  }

  for (uint32_t i = 0; i <= kArtifactSectionMax; ++i) {
    layout->sections[i] = ArtifactV3Layout::Extent{};
  }
  struct Placed {
    uint64_t offset;
    uint64_t end;
    uint32_t id;
  };
  std::vector<Placed> placed;
  placed.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    const uint32_t id = header.U32();
    const uint32_t reserved = header.U32();
    const uint64_t offset = header.U64();
    const uint64_t length = header.U64();
    if (id < 1 || id > kArtifactSectionMax) {
      return Status::InvalidArgument(
          StrFormat("model artifact: unknown section id %u", id));
    }
    const char* name = ArtifactSectionName(id);
    if (reserved != 0) {
      return Status::InvalidArgument(StrFormat(
          "model artifact: section %s has a nonzero reserved field", name));
    }
    if (layout->sections[id].offset != 0) {
      return Status::InvalidArgument(
          StrFormat("model artifact: duplicate section %s", name));
    }
    if (offset % alignment != 0) {
      return Status::InvalidArgument(StrFormat(
          "model artifact: section %s misaligned (offset %llu, alignment "
          "%u)",
          name, static_cast<unsigned long long>(offset), alignment));
    }
    if (offset < table_end) {
      return Status::InvalidArgument(StrFormat(
          "model artifact: section %s overlaps the header/section table "
          "(offset %llu)",
          name, static_cast<unsigned long long>(offset)));
    }
    if (offset > size || length > size - offset) {
      return Status::OutOfRange(StrFormat(
          "model artifact: section %s out of bounds (offset %llu + %llu "
          "bytes > file size %zu)",
          name, static_cast<unsigned long long>(offset),
          static_cast<unsigned long long>(length), size));
    }
    layout->sections[id] = ArtifactV3Layout::Extent{offset, length};
    placed.push_back(Placed{offset, offset + length, id});
  }
  std::sort(placed.begin(), placed.end(),
            [](const Placed& a, const Placed& b) {
              return a.offset < b.offset;
            });
  for (size_t i = 1; i < placed.size(); ++i) {
    if (placed[i - 1].end > placed[i].offset) {
      return Status::InvalidArgument(
          StrFormat("model artifact: sections %s and %s overlap",
                    ArtifactSectionName(placed[i - 1].id),
                    ArtifactSectionName(placed[i].id)));
    }
  }
  const uint64_t last_end = placed.empty() ? table_end : placed.back().end;
  if (last_end != size) {
    return Status::OutOfRange(StrFormat(
        "model artifact: %llu trailing bytes after the last section",
        static_cast<unsigned long long>(size - last_end)));
  }

  for (uint32_t id = 1; id <= kArtifactSectionMax; ++id) {
    const bool required =
        id <= static_cast<uint32_t>(ArtifactSection::kEtaAgg) ||
        layout->has_derived();
    const bool present = layout->sections[id].offset != 0;
    if (required && !present) {
      return Status::InvalidArgument(StrFormat(
          "model artifact: missing section %s", ArtifactSectionName(id)));
    }
    if (!required && present) {
      return Status::InvalidArgument(StrFormat(
          "model artifact: section %s present but derived_top_k is 0",
          ArtifactSectionName(id)));
    }
  }

  for (uint32_t id = 1; id <= kArtifactSectionMax; ++id) {
    if (layout->sections[id].offset == 0) continue;
    if (id == static_cast<uint32_t>(ArtifactSection::kVocab)) continue;
    const uint128_t expected =
        SectionExpectedBytes(static_cast<ArtifactSection>(id), *layout);
    if (static_cast<uint128_t>(layout->sections[id].length) != expected) {
      return Status::InvalidArgument(StrFormat(
          "model artifact: section %s has %llu bytes, dims imply %llu",
          ArtifactSectionName(id),
          static_cast<unsigned long long>(layout->sections[id].length),
          static_cast<unsigned long long>(
              expected > ~0ull ? ~0ull : static_cast<uint64_t>(expected))));
    }
  }

  // Vocabulary internals: count must be 0 or |W| and the entries must pack
  // the section exactly.
  WireReader vocab(SectionBytes(data, *layout, ArtifactSection::kVocab));
  const auto vocab_count =
      ReadVocabulary(&vocab, layout->vocab_size, nullptr, nullptr);
  if (!vocab_count.ok()) return vocab_count.status();
  if (vocab.remaining() != 0) {
    return Status::InvalidArgument(StrFormat(
        "model artifact: %zu trailing bytes in the vocabulary section",
        vocab.remaining()));
  }
  layout->vocab_count = *vocab_count;

  // Derived-structure internals: every id a query would chase must resolve,
  // so a corrupt stored structure is a load error, not an out-of-bounds
  // read at serve time.
  if (layout->has_derived()) {
    const uint64_t k = static_cast<uint64_t>(layout->effective_top_k());
    const uint64_t total = layout->num_users * k;
    const uint64_t* offsets = reinterpret_cast<const uint64_t*>(
        data +
        layout->sections[static_cast<uint32_t>(ArtifactSection::kMemberOffsets)]
            .offset);
    const size_t c_count = static_cast<size_t>(layout->num_communities);
    if (offsets[0] != 0 || offsets[c_count] != total) {
      return Status::InvalidArgument(
          "model artifact: section member_offsets corrupt (does not span "
          "the postings)");
    }
    for (size_t c = 0; c < c_count; ++c) {
      if (offsets[c] > offsets[c + 1]) {
        return Status::InvalidArgument(StrFormat(
            "model artifact: section member_offsets corrupt (offset %zu "
            "decreases)",
            c));
      }
    }
    const int32_t* topk = reinterpret_cast<const int32_t*>(
        data + layout->sections[static_cast<uint32_t>(
                                    ArtifactSection::kTopkCommunities)]
                   .offset);
    for (uint64_t i = 0; i < total; ++i) {
      if (topk[i] < 0 || topk[i] >= layout->num_communities) {
        return Status::InvalidArgument(StrFormat(
            "model artifact: section topk_communities corrupt (entry %llu "
            "is community %d, |C|=%d)",
            static_cast<unsigned long long>(i), topk[i],
            layout->num_communities));
      }
    }
    const int32_t* members = reinterpret_cast<const int32_t*>(
        data +
        layout->sections[static_cast<uint32_t>(ArtifactSection::kMembers)]
            .offset);
    for (uint64_t i = 0; i < total; ++i) {
      if (members[i] < 0 ||
          static_cast<uint64_t>(members[i]) >= layout->num_users) {
        return Status::InvalidArgument(StrFormat(
            "model artifact: section members corrupt (entry %llu is user "
            "%d, |U|=%llu)",
            static_cast<unsigned long long>(i), members[i],
            static_cast<unsigned long long>(layout->num_users)));
      }
    }
  }
  return Status::OK();
}

/// Heap copy of a validated v3 image: each estimate section is one memcpy
/// out of `data`, and the vocabulary is filled by the one walk. The derived
/// sections (eta_agg, top-k, postings) are not surfaced: they are a pure
/// function of the estimates, and the encoder rebuilds them.
ModelArtifact ArtifactFromV3(const char* data,
                             const ArtifactV3Layout& layout) {
  ModelArtifact artifact;
  artifact.num_communities = layout.num_communities;
  artifact.num_topics = layout.num_topics;
  artifact.num_users = layout.num_users;
  artifact.vocab_size = layout.vocab_size;
  artifact.num_time_bins = layout.num_time_bins;
  artifact.generation = layout.generation;
  const auto copy = [&](ArtifactSection id, std::vector<double>* out) {
    WireReader section(SectionBytes(data, layout, id));
    section.Array(section.remaining() / sizeof(double), out);
  };
  copy(ArtifactSection::kPi, &artifact.pi);
  copy(ArtifactSection::kTheta, &artifact.theta);
  copy(ArtifactSection::kPhi, &artifact.phi);
  copy(ArtifactSection::kEta, &artifact.eta);
  copy(ArtifactSection::kWeights, &artifact.weights);
  copy(ArtifactSection::kPopularity, &artifact.popularity);
  // ParseV3Layout validated the section, so the walk cannot fail.
  WireReader vocab(SectionBytes(data, layout, ArtifactSection::kVocab));
  (void)ReadVocabulary(&vocab, layout.vocab_size, &artifact.vocab_words,
                       &artifact.vocab_frequencies);
  return artifact;
}

/// Names the first sequential-format section that does not fit in
/// `remaining_doubles` (v1/v2 truncation diagnostics).
const char* FirstTruncatedLegacySection(const ModelArtifact& artifact,
                                        uint64_t num_weights,
                                        uint128_t remaining_doubles) {
  const uint128_t kc = static_cast<uint128_t>(artifact.num_communities);
  const uint128_t kz = static_cast<uint128_t>(artifact.num_topics);
  const uint128_t kt = static_cast<uint128_t>(artifact.num_time_bins);
  const struct {
    const char* name;
    uint128_t doubles;
  } sections[] = {
      {"pi", static_cast<uint128_t>(artifact.num_users) * kc},
      {"theta", kc * kz},
      {"phi", kz * artifact.vocab_size},
      {"eta", kc * kc * kz},
      {"weights", static_cast<uint128_t>(num_weights)},
      {"popularity", kt * kz},
  };
  uint128_t used = 0;
  for (const auto& section : sections) {
    used += section.doubles;
    if (used > remaining_doubles) return section.name;
  }
  return "body";
}

/// Decodes a v1/v2 file (the sequential layout) past its preamble.
StatusOr<ModelArtifact> DecodeLegacy(std::string_view bytes,
                                     uint32_t version) {
  WireReader reader(bytes);
  reader.Bytes(kModelFilePreambleBytes);
  ModelArtifact artifact;
  artifact.num_communities = reader.I32();
  artifact.num_topics = reader.I32();
  artifact.num_users = reader.U64();
  artifact.vocab_size = reader.U64();
  artifact.num_time_bins = reader.I32();
  const uint64_t num_weights = reader.U64();
  if (!reader.ok()) {
    return Status::OutOfRange("model artifact: truncated header");
  }
  if (artifact.num_communities < 1 || artifact.num_topics < 1 ||
      artifact.num_time_bins < 1) {
    return Status::InvalidArgument(
        "model artifact: corrupt header (non-positive dimensions)");
  }
  // Reject absurd headers before sizing any allocation against them: every
  // matrix must fit in the bytes that actually follow. The products are
  // accumulated in 128 bits so a crafted header cannot wrap the check (each
  // factor fits in 64 bits, so no term overflows 128).
  const size_t kc = static_cast<size_t>(artifact.num_communities);
  const size_t kz = static_cast<size_t>(artifact.num_topics);
  const size_t kt = static_cast<size_t>(artifact.num_time_bins);
  const uint128_t total_doubles =
      static_cast<uint128_t>(artifact.num_users) * kc +
      static_cast<uint128_t>(kc) * kz +
      static_cast<uint128_t>(kz) * artifact.vocab_size +
      static_cast<uint128_t>(kc) * kc * kz +
      static_cast<uint128_t>(num_weights) + static_cast<uint128_t>(kt) * kz;
  if (total_doubles > reader.remaining() / sizeof(double)) {
    return Status::OutOfRange(StrFormat(
        "model artifact: truncated in section %s (%zu bytes left, header "
        "needs %llu doubles)",
        FirstTruncatedLegacySection(artifact, num_weights,
                                    reader.remaining() / sizeof(double)),
        reader.remaining(),
        static_cast<unsigned long long>(
            total_doubles > ~0ull ? ~0ull
                                  : static_cast<uint64_t>(total_doubles))));
  }
  reader.Array(artifact.num_users * kc, &artifact.pi);
  reader.Array(kc * kz, &artifact.theta);
  reader.Array(kz * artifact.vocab_size, &artifact.phi);
  reader.Array(kc * kc * kz, &artifact.eta);
  reader.Array(num_weights, &artifact.weights);
  reader.Array(kt * kz, &artifact.popularity);
  if (version >= 2) {
    CPD_RETURN_IF_ERROR(ReadVocabulary(&reader, artifact.vocab_size,
                                       &artifact.vocab_words,
                                       &artifact.vocab_frequencies)
                            .status());
  }
  if (reader.remaining() != 0) {
    return Status::InvalidArgument(StrFormat(
        "model artifact: %zu trailing bytes after the last section",
        reader.remaining()));
  }
  CPD_RETURN_IF_ERROR(artifact.Validate());
  return artifact;
}

}  // namespace

// The encoder always writes host byte order and stamps
// kModelArtifactEndianTag; the decoder rejects a foreign tag instead of
// byte-swapping (every deployment target of this library is little-endian;
// a swap path would be untested dead code).
StatusOr<uint32_t> CheckModelFilePreamble(std::string_view bytes,
                                          const ModelFilePreamble& format) {
  WireReader reader(bytes);
  if (reader.Bytes(sizeof(kModelArtifactMagic)) !=
      std::string_view(format.magic, sizeof(kModelArtifactMagic))) {
    return Status::InvalidArgument(format.not_this_kind);
  }
  if (bytes.size() < format.header_bytes) {
    return Status::OutOfRange(
        StrFormat("%s: truncated header (%zu bytes, need %zu)", format.kind,
                  bytes.size(), format.header_bytes));
  }
  const uint32_t version = reader.U32();
  if (version < format.min_version || version > format.max_version) {
    return Status::Unimplemented(
        StrFormat("%s: version %u not supported (reader understands "
                  "versions %u..%u)",
                  format.kind, version, format.min_version,
                  format.max_version));
  }
  if (reader.U32() != kModelArtifactEndianTag) {
    return Status::InvalidArgument(StrFormat(
        "%s: foreign byte order (written on an incompatible host)",
        format.kind));
  }
  return version;
}

StatusOr<std::string> EncodeModelArtifact(const ModelArtifact& artifact,
                                          const ArtifactWriteOptions& options) {
  CPD_RETURN_IF_ERROR(artifact.Validate());
  return EncodeV3(artifact, options);
}

StatusOr<ModelArtifact> DecodeModelArtifact(const std::string& bytes) {
  const auto version = CheckModelFilePreamble(bytes, kModelArtifactPreamble);
  if (!version.ok()) return version.status();
  if (*version < 3) return DecodeLegacy(bytes, *version);
  ArtifactV3Layout layout;
  CPD_RETURN_IF_ERROR(ParseV3Layout(bytes.data(), bytes.size(), &layout));
  return ArtifactFromV3(bytes.data(), layout);
}

Status WriteModelArtifact(const std::string& path,
                          const ModelArtifact& artifact,
                          const ArtifactWriteOptions& options) {
  auto encoded = EncodeModelArtifact(artifact, options);
  if (!encoded.ok()) return encoded.status();
  return WriteStringToFile(path, *encoded);
}

StatusOr<ModelArtifact> ReadModelArtifact(const std::string& path) {
  auto contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  auto decoded = DecodeModelArtifact(*contents);
  if (!decoded.ok()) {
    return Status(decoded.status().code(),
                  decoded.status().message() + ": " + path);
  }
  return decoded;
}

bool LooksLikeModelArtifact(const std::string& bytes) {
  return bytes.size() >= sizeof(kModelArtifactMagic) &&
         std::memcmp(bytes.data(), kModelArtifactMagic,
                     sizeof(kModelArtifactMagic)) == 0;
}

// ----- MappedModelArtifact -----

StatusOr<std::shared_ptr<const MappedModelArtifact>> MappedModelArtifact::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("cannot open model artifact: " + path);
  }
  struct stat info;
  if (::fstat(fd, &info) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat model artifact: " + path);
  }
  const size_t size = static_cast<size_t>(info.st_size);
  if (size < sizeof(kModelArtifactMagic)) {
    ::close(fd);
    return Status::InvalidArgument("not a CPD binary model artifact: " + path);
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps the file alive.
  if (base == MAP_FAILED) {
    return Status::IOError("mmap failed for model artifact: " + path);
  }
  auto mapped = std::shared_ptr<MappedModelArtifact>(new MappedModelArtifact());
  mapped->path_ = path;
  mapped->data_ = static_cast<const char*>(base);
  mapped->size_ = size;
  // On failure the shared_ptr destructor unmaps.
  CPD_RETURN_IF_ERROR(mapped->Parse());
  return std::shared_ptr<const MappedModelArtifact>(std::move(mapped));
}

StatusOr<std::shared_ptr<const MappedModelArtifact>>
MappedModelArtifact::FromBytes(std::string_view bytes,
                               const std::string& path) {
  auto image = std::shared_ptr<MappedModelArtifact>(new MappedModelArtifact());
  image->path_ = path;
  // Whole u64 words, so every section offset (a multiple of an alignment
  // >= 8) lands 8-byte-aligned, as in a page-aligned mapping. At least one
  // word, so even an empty input is an owned (non-mapped) image.
  image->owned_.resize(std::max<size_t>(
      1, (bytes.size() + sizeof(uint64_t) - 1) / sizeof(uint64_t)));
  std::memcpy(image->owned_.data(), bytes.data(), bytes.size());
  image->data_ = reinterpret_cast<const char*>(image->owned_.data());
  image->size_ = bytes.size();
  CPD_RETURN_IF_ERROR(image->Parse());
  return std::shared_ptr<const MappedModelArtifact>(std::move(image));
}

Status MappedModelArtifact::Parse() {
  const auto fail = [this](Status status) {
    return path_.empty()
               ? status
               : Status(status.code(), status.message() + ": " + path_);
  };
  const auto version = CheckModelFilePreamble(
      std::string_view(data_, size_), kModelArtifactPreamble);
  if (!version.ok()) return fail(version.status());
  if (*version < 3) {
    return fail(Status::FailedPrecondition(StrFormat(
        "model artifact: version %u has no mmap layout; LoadModelBundle "
        "up-converts it to a v3 image",
        *version)));
  }
  const Status parsed = ParseV3Layout(data_, size_, &layout_);
  if (!parsed.ok()) return fail(parsed);
  return Status::OK();
}

MappedModelArtifact::~MappedModelArtifact() {
  if (data_ != nullptr && owned_.empty()) {
    ::munmap(const_cast<char*>(data_), size_);
  }
}

std::span<const int32_t> MappedModelArtifact::topk_communities() const {
  return {reinterpret_cast<const int32_t*>(
              SectionData(ArtifactSection::kTopkCommunities)),
          static_cast<size_t>(
              SectionLength(ArtifactSection::kTopkCommunities) /
              sizeof(int32_t))};
}

std::span<const uint64_t> MappedModelArtifact::member_offsets() const {
  return {reinterpret_cast<const uint64_t*>(
              SectionData(ArtifactSection::kMemberOffsets)),
          static_cast<size_t>(SectionLength(ArtifactSection::kMemberOffsets) /
                              sizeof(uint64_t))};
}

std::span<const int32_t> MappedModelArtifact::members() const {
  return {
      reinterpret_cast<const int32_t*>(SectionData(ArtifactSection::kMembers)),
      static_cast<size_t>(SectionLength(ArtifactSection::kMembers) /
                          sizeof(int32_t))};
}

Status MappedModelArtifact::BuildVocabulary(Vocabulary* out) const {
  if (!has_vocabulary()) {
    return Status::FailedPrecondition(
        "model artifact carries no bundled vocabulary (v1 file, or saved "
        "without one)");
  }
  std::vector<std::string> words;
  std::vector<int64_t> frequencies;
  WireReader vocab(SectionBytes(data_, layout_, ArtifactSection::kVocab));
  CPD_RETURN_IF_ERROR(
      ReadVocabulary(&vocab, layout_.vocab_size, &words, &frequencies)
          .status());
  return VocabularyFromWords(words, frequencies, out);
}

ModelArtifact MappedModelArtifact::Materialize() const {
  return ArtifactFromV3(data_, layout_);
}

}  // namespace cpd
