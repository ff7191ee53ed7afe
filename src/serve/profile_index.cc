#include "serve/profile_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/artifact_derived.h"
#include "core/cpd_model.h"
#include "util/file_util.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace cpd::serve {

namespace {

/// Encodes `artifact` into an owned v3 image whose stored derived sections
/// match `options`, so FromMapped adopts them instead of rebuilding. The
/// sections are packed at 8 bytes: page alignment only pays for mmap.
StatusOr<std::shared_ptr<const MappedModelArtifact>> EncodeImage(
    const ModelArtifact& artifact, const ProfileIndexOptions& options,
    const std::string& path) {
  ArtifactWriteOptions write;
  write.derived_top_k =
      options.build_membership_index
          ? static_cast<uint32_t>(std::max(options.membership_top_k, 0))
          : 0;
  write.section_alignment = 8;
  auto bytes = EncodeModelArtifact(artifact, write);
  if (!bytes.ok()) return bytes.status();
  return MappedModelArtifact::FromBytes(*bytes, path);
}

/// Maps a v3 file; up-converts a v1/v2 artifact or a text model to an owned
/// v3 image. A file that is neither surfaces the legacy decoder's (or the
/// text loader's) typed error, so a corrupt v3 file reports what it always
/// has.
StatusOr<std::shared_ptr<const MappedModelArtifact>> OpenImage(
    const std::string& path, const ProfileIndexOptions& options) {
  auto mapped = MappedModelArtifact::Open(path);
  if (mapped.ok()) return mapped;
  auto contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  if (LooksLikeModelArtifact(*contents)) {
    auto artifact = DecodeModelArtifact(*contents);
    if (!artifact.ok()) {
      return Status(artifact.status().code(),
                    artifact.status().message() + ": " + path);
    }
    return EncodeImage(*artifact, options, path);
  }
  auto model = CpdModel::LoadFromFile(path);
  if (!model.ok()) return model.status();
  return EncodeImage(model->ToArtifact(), options, path);
}

}  // namespace

ProfileIndex ProfileIndex::FromModel(const CpdModel& model,
                                     const ProfileIndexOptions& options) {
  ProfileIndexOptions resolved = options;
  resolved.heterogeneous_links =
      options.heterogeneous_links &&
      model.config().ablation.heterogeneous_links;
  // A trained model always yields a valid image.
  auto image = EncodeImage(model.ToArtifact(), resolved, "");
  CPD_CHECK(image.ok());
  auto index = FromMapped(std::move(*image), resolved);
  CPD_CHECK(index.ok());
  return std::move(*index);
}

StatusOr<ProfileIndex> ProfileIndex::FromMapped(
    std::shared_ptr<const MappedModelArtifact> mapped,
    const ProfileIndexOptions& options) {
  if (mapped == nullptr) {
    return Status::InvalidArgument("FromMapped: null image");
  }
  if (options.membership_top_k < 1) {
    return Status::InvalidArgument("membership_top_k < 1");
  }
  ProfileIndex index;
  index.options_ = options;
  index.num_communities_ = mapped->num_communities();
  index.num_topics_ = mapped->num_topics();
  index.num_users_ = static_cast<size_t>(mapped->num_users());
  index.vocab_size_ = static_cast<size_t>(mapped->vocab_size());
  index.num_time_bins_ = mapped->num_time_bins();
  index.generation_ = mapped->generation();
  index.BuildPiRows(mapped->pi().data());
  index.theta_ = mapped->theta();
  index.phi_ = mapped->phi();
  index.eta_ = mapped->eta();
  index.weights_ = mapped->weights();
  index.popularity_ = mapped->popularity();
  // eta_agg is mandatory in v3, so the aggregation never reruns on load.
  index.eta_agg_ = mapped->eta_agg();
  const int wanted_k =
      std::min(options.membership_top_k, index.num_communities_);
  if (!options.build_membership_index) {
    index.member_offsets_store_.assign(index.kc() + 1, 0);
    index.member_offsets_ = index.member_offsets_store_;
  } else if (mapped->stored_top_k() == wanted_k) {
    // Adopt the stored membership/posting sections: zero build cost. The
    // encoder produced them with the same BuildArtifactDerived the rebuild
    // below runs, so adopted and rebuilt structures are bit-identical.
    index.top_k_per_user_ = wanted_k;
    index.MaterializeTopMemberships(mapped->topk_communities(),
                                    mapped->topk_weights());
    index.member_offsets_ = mapped->member_offsets();
    index.members_ = mapped->members();
    index.member_weights_ = mapped->member_weights();
  } else {
    // Requested k differs from the stored one (or none stored): pay the
    // heap rebuild; the estimate spans stay zero-copy.
    ArtifactDerived derived = BuildArtifactDerived(
        mapped->pi(), mapped->eta(), index.num_communities_,
        index.num_topics_, index.num_users_, wanted_k);
    index.AdoptDerived(std::move(derived));
  }
  index.BuildScoringTables();
  index.image_ = std::move(mapped);
  return index;
}

StatusOr<ProfileIndex> ProfileIndex::FromMappedWithDelta(
    std::shared_ptr<const MappedModelArtifact> mapped,
    std::shared_ptr<const ModelDelta> delta,
    const ProfileIndexOptions& options) {
  if (mapped == nullptr || delta == nullptr) {
    return Status::InvalidArgument("FromMappedWithDelta: null image or delta");
  }
  if (options.membership_top_k < 1) {
    return Status::InvalidArgument("membership_top_k < 1");
  }
  CPD_RETURN_IF_ERROR(delta->Validate());
  CPD_RETURN_IF_ERROR(CheckDeltaBase(
      {mapped->generation(), mapped->num_communities(), mapped->num_topics(),
       mapped->num_time_bins(), mapped->num_users(), mapped->vocab_size()},
      *delta));
  ProfileIndex index;
  index.options_ = options;
  index.num_communities_ = delta->num_communities;
  index.num_topics_ = delta->num_topics;
  index.num_users_ = static_cast<size_t>(delta->num_users);
  index.vocab_size_ = static_cast<size_t>(delta->vocab_size);
  index.num_time_bins_ = delta->num_time_bins;
  index.generation_ = delta->generation;
  // Copy-on-write pi: every untouched row keeps aliasing the shared image;
  // touched rows point into the delta's packed rows. Users new in this
  // generation have no base row — delta->Validate() guarantees each is
  // touched, so every slot gets a pointer below.
  index.pi_rows_.assign(index.num_users_, nullptr);
  const double* base_pi = mapped->pi().data();
  for (size_t u = 0; u < static_cast<size_t>(delta->base_num_users); ++u) {
    index.pi_rows_[u] = base_pi + u * index.kc();
  }
  for (size_t i = 0; i < delta->touched_users.size(); ++i) {
    index.pi_rows_[static_cast<size_t>(delta->touched_users[i])] =
        delta->touched_pi.data() + i * index.kc();
  }
  // The globals are O(|C||Z| + |Z||W|) and fully refreshed every sweep, so
  // the delta ships them whole; serve them from it.
  index.theta_ = delta->theta;
  index.phi_ = delta->phi;
  index.eta_ = delta->eta;
  index.weights_ = delta->weights;
  index.popularity_ = delta->popularity;
  // eta and pi both changed, so the stored derived sections describe the
  // base generation — rebuild over the overlay.
  index.RebuildDerived();
  index.BuildScoringTables();
  index.image_ = std::move(mapped);
  index.delta_ = std::move(delta);
  return index;
}

StatusOr<ProfileIndex> ProfileIndex::LoadFromFile(
    const std::string& path, const ProfileIndexOptions& options) {
  auto bundle = LoadModelBundle(path, options);
  if (!bundle.ok()) return bundle.status();
  return std::move(bundle->index);
}

StatusOr<ModelBundle> LoadModelBundle(const std::string& path,
                                      const ProfileIndexOptions& options) {
  auto image = OpenImage(path, options);
  if (!image.ok()) return image.status();
  std::shared_ptr<const Vocabulary> vocabulary;
  if ((*image)->has_vocabulary()) {
    auto vocab = std::make_shared<Vocabulary>();
    CPD_RETURN_IF_ERROR((*image)->BuildVocabulary(vocab.get()));
    vocabulary = std::move(vocab);
  }
  auto index = ProfileIndex::FromMapped(std::move(*image), options);
  if (!index.ok()) return index.status();
  return ModelBundle{std::move(*index), std::move(vocabulary)};
}

void ProfileIndex::BuildPiRows(const double* pi) {
  pi_rows_.resize(num_users_);
  for (size_t u = 0; u < num_users_; ++u) {
    pi_rows_[u] = pi + u * kc();
  }
}

void ProfileIndex::RebuildDerived() {
  const int wanted_k = options_.build_membership_index
                           ? std::min(options_.membership_top_k,
                                      num_communities_)
                           : 0;
  ArtifactDerived derived =
      BuildArtifactDerived(pi_rows_.data(), eta_, num_communities_,
                           num_topics_, num_users_, wanted_k);
  AdoptDerived(std::move(derived));
}

void ProfileIndex::AdoptDerived(ArtifactDerived&& derived) {
  eta_agg_store_ = std::move(derived.eta_agg);
  eta_agg_ = eta_agg_store_;
  if (derived.top_k == 0) {
    top_k_per_user_ = 0;
    member_offsets_store_.assign(kc() + 1, 0);
    member_offsets_ = member_offsets_store_;
    members_ = {};
    member_weights_ = {};
    return;
  }
  top_k_per_user_ = derived.top_k;
  MaterializeTopMemberships(derived.topk_communities, derived.topk_weights);
  member_offsets_store_ = std::move(derived.member_offsets);
  members_store_ = std::move(derived.members);
  member_weights_store_ = std::move(derived.member_weights);
  member_offsets_ = member_offsets_store_;
  members_ = members_store_;
  member_weights_ = member_weights_store_;
}

void ProfileIndex::MaterializeTopMemberships(
    std::span<const int32_t> communities, std::span<const double> weights) {
  top_memberships_.resize(communities.size());
  for (size_t i = 0; i < communities.size(); ++i) {
    top_memberships_[i] = {static_cast<int>(communities[i]), weights[i]};
  }
}

void ProfileIndex::BuildScoringTables() {
  const size_t c_count = kc();
  const size_t z_count = kz();
  // Fused eta*theta rows, (c,z)-major: G[c][z][c2] = eta(c,c2,z) *
  // theta_c2[z]. One multiply per cell, so dotting a row with pi_v
  // reproduces the naive kernel's ((eta*theta)*pi_v) grouping bit-for-bit
  // (tests/reference_scoring.h keeps those kernels as the oracle).
  eta_theta_.assign(c_count * z_count * c_count, 0.0);
  for (size_t c = 0; c < c_count; ++c) {
    for (size_t c2 = 0; c2 < c_count; ++c2) {
      const double* eta_row = eta_.data() + (c * c_count + c2) * z_count;
      const double* theta_row = theta_.data() + c2 * z_count;
      for (size_t z = 0; z < z_count; ++z) {
        eta_theta_[(c * z_count + z) * c_count + c2] =
            eta_row[z] * theta_row[z];
      }
    }
  }
  // M[c][z] = sum_c2 G[c][z][c2], c2 ascending — the same accumulation
  // the reference Eq. 19 kernel performs per request.
  link_content_.assign(c_count * z_count, 0.0);
  for (size_t c = 0; c < c_count; ++c) {
    for (size_t z = 0; z < z_count; ++z) {
      const double* row = eta_theta_.data() + (c * z_count + z) * c_count;
      double total = 0.0;
      for (size_t c2 = 0; c2 < c_count; ++c2) total += row[c2];
      link_content_[c * z_count + z] = total;
    }
  }
  // Word-major log-phi: the same floored std::log the reference kernels
  // apply per token, hoisted to build time and transposed so a query
  // word's topic row is contiguous.
  word_log_phi_.assign(vocab_size_ * z_count, 0.0);
  for (size_t z = 0; z < z_count; ++z) {
    const double* phi_row = phi_.data() + z * vocab_size_;
    for (size_t w = 0; w < vocab_size_; ++w) {
      word_log_phi_[w * z_count + z] =
          std::log(std::max(phi_row[w], 1e-300));
    }
  }
}

double ProfileIndex::TopicPopularity(int32_t t, int z) const {
  t = std::min(std::max(t, 0), num_time_bins_ - 1);
  return popularity_[static_cast<size_t>(t) * kz() + static_cast<size_t>(z)];
}

Status ProfileIndex::CheckUser(UserId u) const {
  if (u < 0 || static_cast<size_t>(u) >= num_users_) {
    return Status::OutOfRange(
        StrFormat("user %d outside [0, %zu)", u, num_users_));
  }
  return Status::OK();
}

Status ProfileIndex::CheckCommunity(int c) const {
  if (c < 0 || c >= num_communities_) {
    return Status::OutOfRange(
        StrFormat("community %d outside [0, %d)", c, num_communities_));
  }
  return Status::OK();
}

Status ProfileIndex::CheckWord(WordId w) const {
  if (w < 0 || static_cast<size_t>(w) >= vocab_size_) {
    return Status::OutOfRange(
        StrFormat("word %d outside [0, %zu)", w, vocab_size_));
  }
  return Status::OK();
}

Status ProfileIndex::CheckTopic(int z) const {
  if (z < 0 || z >= num_topics_) {
    return Status::OutOfRange(
        StrFormat("topic %d outside [0, %d)", z, num_topics_));
  }
  return Status::OK();
}

}  // namespace cpd::serve
