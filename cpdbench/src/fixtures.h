#ifndef CPDBENCH_FIXTURES_H_
#define CPDBENCH_FIXTURES_H_

// Seed-derived inputs: the Twitter-like synthetic graph as the TSV files
// operators feed cpd_train / cpd_serve, and the trained v3 artifact the
// serving workloads load. Fixtures are generated by `cpdbench prepare` in
// their own process (so generation never shows in a measured process's
// peak RSS) and cached under the work directory by their parameters.

#include <cstdint>
#include <string>

#include "core/model_config.h"
#include "graph/social_graph.h"
#include "util/status.h"

namespace cpdbench {

struct GraphFixture {
  std::string dir;
  size_t num_users = 0;
  std::string docs;
  std::string friends;
  std::string diffusion;
};

/// The graph fixture's location (nothing is generated).
GraphFixture GraphFixtureFor(const std::string& work_dir, double scale,
                             uint64_t seed);
/// Generates the TSV files unless a complete copy is cached.
cpd::Status PrepareGraph(GraphFixture* fixture, double scale, uint64_t seed);
/// Reads the TSV files back exactly as cpd_serve does.
cpd::StatusOr<cpd::SocialGraph> LoadGraph(const GraphFixture& fixture);

/// The serving model: trained on the graph fixture with `config`, saved as
/// a v3 artifact with the vocabulary bundled (cpd_train --model_binary).
std::string ModelPathFor(const GraphFixture& fixture,
                         const cpd::CpdConfig& config);
cpd::Status PrepareModel(const GraphFixture& fixture,
                         const cpd::CpdConfig& config);

}  // namespace cpdbench

#endif  // CPDBENCH_FIXTURES_H_
