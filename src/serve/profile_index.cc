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

StatusOr<ArtifactLoadMode> ParseArtifactLoadMode(const std::string& text) {
  if (text == "auto") return ArtifactLoadMode::kAuto;
  if (text == "heap") return ArtifactLoadMode::kHeap;
  if (text == "mmap") return ArtifactLoadMode::kMmap;
  return Status::InvalidArgument("load_mode must be auto|heap|mmap, got '" +
                                 text + "'");
}

const char* ArtifactLoadModeName(ArtifactLoadMode mode) {
  switch (mode) {
    case ArtifactLoadMode::kAuto:
      return "auto";
    case ArtifactLoadMode::kHeap:
      return "heap";
    case ArtifactLoadMode::kMmap:
      return "mmap";
  }
  return "auto";
}

ProfileIndex ProfileIndex::FromModel(const CpdModel& model,
                                     const ProfileIndexOptions& options) {
  // Reuse the artifact struct as the common ingestion path so the from-model
  // and from-file constructions cannot diverge.
  ProfileIndexOptions resolved = options;
  resolved.heterogeneous_links =
      options.heterogeneous_links &&
      model.config().ablation.heterogeneous_links;
  auto index = FromArtifact(model.ToArtifact(), resolved);
  // A trained model always yields a valid artifact.
  CPD_CHECK(index.ok());
  return std::move(*index);
}

StatusOr<ProfileIndex> ProfileIndex::FromArtifact(
    ModelArtifact artifact, const ProfileIndexOptions& options) {
  CPD_RETURN_IF_ERROR(artifact.Validate());
  if (options.membership_top_k < 1) {
    return Status::InvalidArgument("membership_top_k < 1");
  }
  ProfileIndex index;
  index.options_ = options;
  index.num_communities_ = artifact.num_communities;
  index.num_topics_ = artifact.num_topics;
  index.num_users_ = artifact.num_users;
  index.vocab_size_ = artifact.vocab_size;
  index.num_time_bins_ = artifact.num_time_bins;
  index.generation_ = artifact.generation;
  index.pi_store_ = std::move(artifact.pi);
  index.theta_store_ = std::move(artifact.theta);
  index.phi_store_ = std::move(artifact.phi);
  index.eta_store_ = std::move(artifact.eta);
  index.weights_store_ = std::move(artifact.weights);
  index.popularity_store_ = std::move(artifact.popularity);
  index.BuildPiRows(index.pi_store_.data());
  index.theta_ = index.theta_store_;
  index.phi_ = index.phi_store_;
  index.eta_ = index.eta_store_;
  index.weights_ = index.weights_store_;
  index.popularity_ = index.popularity_store_;
  index.RebuildDerived();
  index.BuildScoringTables();
  return index;
}

StatusOr<ProfileIndex> ProfileIndex::FromMapped(
    std::shared_ptr<const MappedModelArtifact> mapped,
    const ProfileIndexOptions& options) {
  if (mapped == nullptr) {
    return Status::InvalidArgument("FromMapped: null mapping");
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
    // encoder produced them with the same BuildArtifactDerived the heap
    // path runs, so adopted and rebuilt structures are bit-identical.
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
  index.mapped_ = std::move(mapped);
  return index;
}

StatusOr<ProfileIndex> ProfileIndex::FromMappedWithDelta(
    std::shared_ptr<const MappedModelArtifact> mapped,
    const ModelDelta& delta, const ProfileIndexOptions& options) {
  if (mapped == nullptr) {
    return Status::InvalidArgument("FromMappedWithDelta: null mapping");
  }
  if (options.membership_top_k < 1) {
    return Status::InvalidArgument("membership_top_k < 1");
  }
  CPD_RETURN_IF_ERROR(delta.Validate());
  if (mapped->generation() != delta.base_generation) {
    return Status::FailedPrecondition(StrFormat(
        "model delta: patches generation %llu but the mapped artifact is "
        "generation %llu",
        static_cast<unsigned long long>(delta.base_generation),
        static_cast<unsigned long long>(mapped->generation())));
  }
  if (mapped->num_communities() != delta.num_communities ||
      mapped->num_topics() != delta.num_topics ||
      mapped->num_time_bins() != delta.num_time_bins) {
    return Status::InvalidArgument(
        "model delta: base artifact disagrees on |C|/|Z|/T");
  }
  if (mapped->num_users() != delta.base_num_users ||
      mapped->vocab_size() != delta.base_vocab_size) {
    return Status::InvalidArgument(StrFormat(
        "model delta: expects a base with |U|=%llu |W|=%llu, got |U|=%llu "
        "|W|=%llu",
        static_cast<unsigned long long>(delta.base_num_users),
        static_cast<unsigned long long>(delta.base_vocab_size),
        static_cast<unsigned long long>(mapped->num_users()),
        static_cast<unsigned long long>(mapped->vocab_size())));
  }
  ProfileIndex index;
  index.options_ = options;
  index.num_communities_ = delta.num_communities;
  index.num_topics_ = delta.num_topics;
  index.num_users_ = static_cast<size_t>(delta.num_users);
  index.vocab_size_ = static_cast<size_t>(delta.vocab_size);
  index.num_time_bins_ = delta.num_time_bins;
  index.generation_ = delta.generation;
  // Copy-on-write pi: every untouched row keeps aliasing the shared
  // mapping; only the delta's packed rows occupy new heap. Users new in
  // this generation have no base row — delta.Validate() guarantees each
  // is touched, so every slot gets a pointer below.
  index.delta_pi_store_ = delta.touched_pi;
  index.pi_rows_.assign(index.num_users_, nullptr);
  const double* base_pi = mapped->pi().data();
  for (size_t u = 0; u < static_cast<size_t>(delta.base_num_users); ++u) {
    index.pi_rows_[u] = base_pi + u * index.kc();
  }
  for (size_t i = 0; i < delta.touched_users.size(); ++i) {
    index.pi_rows_[static_cast<size_t>(delta.touched_users[i])] =
        index.delta_pi_store_.data() + i * index.kc();
  }
  // The globals are O(|C||Z| + |Z||W|) and fully refreshed every sweep, so
  // the delta ships them whole; adopt copies.
  index.theta_store_ = delta.theta;
  index.phi_store_ = delta.phi;
  index.eta_store_ = delta.eta;
  index.weights_store_ = delta.weights;
  index.popularity_store_ = delta.popularity;
  index.theta_ = index.theta_store_;
  index.phi_ = index.phi_store_;
  index.eta_ = index.eta_store_;
  index.weights_ = index.weights_store_;
  index.popularity_ = index.popularity_store_;
  // eta and pi both changed, so the stored derived sections describe the
  // base generation — rebuild over the overlay.
  index.RebuildDerived();
  index.BuildScoringTables();
  index.mapped_ = std::move(mapped);
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
  if (options.load_mode != ArtifactLoadMode::kHeap) {
    auto mapped = MappedModelArtifact::Open(path);
    if (mapped.ok()) {
      std::shared_ptr<const Vocabulary> vocabulary;
      if ((*mapped)->has_vocabulary()) {
        auto vocab = std::make_shared<Vocabulary>();
        CPD_RETURN_IF_ERROR((*mapped)->BuildVocabulary(vocab.get()));
        vocabulary = std::move(vocab);
      }
      auto index = ProfileIndex::FromMapped(std::move(*mapped), options);
      if (!index.ok()) return index.status();
      return ModelBundle{std::move(*index), std::move(vocabulary)};
    }
    if (options.load_mode == ArtifactLoadMode::kMmap) {
      return mapped.status();
    }
    // kAuto: any mmap failure (v1/v2 artifact, text model, corrupt or
    // missing file) falls through to the reference heap loader, which
    // loads the legacy formats and re-derives the same typed error for a
    // genuinely bad file — so kAuto surfaces exactly the errors the heap
    // path always has.
  }
  auto contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  if (LooksLikeModelArtifact(*contents)) {
    auto artifact = DecodeModelArtifact(*contents);
    if (!artifact.ok()) {
      return Status(artifact.status().code(),
                    artifact.status().message() + ": " + path);
    }
    std::shared_ptr<const Vocabulary> vocabulary;
    if (artifact->has_vocabulary()) {
      // Extract before FromArtifact moves the matrices out.
      auto vocab = std::make_shared<Vocabulary>();
      CPD_RETURN_IF_ERROR(artifact->BuildVocabulary(vocab.get()));
      vocabulary = std::move(vocab);
    }
    auto index = ProfileIndex::FromArtifact(std::move(*artifact), options);
    if (!index.ok()) return index.status();
    return ModelBundle{std::move(*index), std::move(vocabulary)};
  }
  auto model = CpdModel::LoadFromFile(path);
  if (!model.ok()) return model.status();
  auto index = ProfileIndex::FromArtifact(model->ToArtifact(), options);
  if (!index.ok()) return index.status();
  return ModelBundle{std::move(*index), nullptr};
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
