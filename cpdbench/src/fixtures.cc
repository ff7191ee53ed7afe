#include "fixtures.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/cpd_model.h"
#include "graph/graph_io.h"
#include "synth/generator.h"
#include "synth/synth_config.h"

namespace cpdbench {
namespace fs = std::filesystem;

namespace {

bool Exists(const std::string& path) { return fs::exists(path); }

/// Marks a fixture complete; written last, so an interrupted generation is
/// redone rather than read half-written.
cpd::Status Seal(const std::string& marker) {
  std::ofstream out(marker);
  out << "ok\n";
  return out ? cpd::Status::OK()
             : cpd::Status::Internal("cannot write " + marker);
}

}  // namespace

GraphFixture GraphFixtureFor(const std::string& work_dir, double scale,
                             uint64_t seed) {
  char name[96];
  std::snprintf(name, sizeof(name), "twitter-x%g-%016llx", scale,
                static_cast<unsigned long long>(seed));
  GraphFixture fixture;
  fixture.dir = (fs::path(work_dir) / "fixtures" / name).string();
  fixture.docs = fixture.dir + "/docs.tsv";
  fixture.friends = fixture.dir + "/friends.tsv";
  fixture.diffusion = fixture.dir + "/diffusion.tsv";
  std::ifstream users(fixture.dir + "/users");
  users >> fixture.num_users;
  return fixture;
}

cpd::Status PrepareGraph(GraphFixture* fixture, double scale, uint64_t seed) {
  const std::string marker = fixture->dir + "/graph.done";
  if (!Exists(marker)) {
    fs::create_directories(fixture->dir);
    cpd::SynthConfig synth = cpd::SynthConfig::TwitterLike().Scaled(scale);
    synth.seed = seed;
    auto generated = cpd::GenerateSocialGraph(synth);
    if (!generated.ok()) return generated.status();
    const cpd::SocialGraph& graph = generated->graph;
    CPD_RETURN_IF_ERROR(cpd::SaveSocialGraph(graph, fixture->docs,
                                             fixture->friends,
                                             fixture->diffusion));
    std::ofstream users(fixture->dir + "/users");
    users << graph.num_users() << "\n";
    if (!users) return cpd::Status::Internal("cannot write user count");
    users.close();
    CPD_RETURN_IF_ERROR(Seal(marker));
  }
  *fixture = GraphFixtureFor(fs::path(fixture->dir).parent_path().parent_path(),
                             scale, seed);
  return cpd::Status::OK();
}

cpd::StatusOr<cpd::SocialGraph> LoadGraph(const GraphFixture& fixture) {
  if (fixture.num_users == 0) {
    return cpd::Status::NotFound("graph fixture missing: " + fixture.dir);
  }
  return cpd::LoadSocialGraph(fixture.num_users, fixture.docs, fixture.friends,
                              fixture.diffusion);
}

std::string ModelPathFor(const GraphFixture& fixture,
                         const cpd::CpdConfig& config) {
  char name[128];
  std::snprintf(name, sizeof(name), "model-c%d-z%d-em%d-%016llx.cpdb",
                config.num_communities, config.num_topics,
                config.em_iterations,
                static_cast<unsigned long long>(config.seed));
  return fixture.dir + "/" + name;
}

cpd::Status PrepareModel(const GraphFixture& fixture,
                         const cpd::CpdConfig& config) {
  const std::string path = ModelPathFor(fixture, config);
  if (Exists(path + ".done")) return cpd::Status::OK();
  auto graph = LoadGraph(fixture);
  if (!graph.ok()) return graph.status();
  auto model = cpd::CpdModel::Train(*graph, config);
  if (!model.ok()) return model.status();
  CPD_RETURN_IF_ERROR(model->SaveBinary(path, &graph->corpus().vocabulary()));
  return Seal(path + ".done");
}

}  // namespace cpdbench
