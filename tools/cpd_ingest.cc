// Offline streaming-ingest front end: apply a JSON update batch to a
// trained model + its training graph, run warm-started EM sweeps over the
// touched shards, and write a fresh v3 artifact — no full retrain, no
// server required. The same batch format is accepted online by cpd_serve's
// POST /admin/ingest (docs/HTTP_API.md pins it).
//
// Usage:
//   cpd_ingest --model in.cpdb --update batch.json --out out.cpdb
//              --users N --docs docs.tsv --friends friends.tsv
//              --diffusion diffusion.tsv
//              [--warm_iters 2] [--threads 1] [--shards 0] [--seed 42]
//              [--save_graph prefix]    (writes prefix.{docs,friends,
//                                        diffusion}.tsv of the merged graph
//                                        for the next ingest)
//
// The graph quartet must be the data --model was trained on (user/doc/word
// ids are append-only across ingests). Exit codes: 0 ok, 1 runtime failure,
// 2 usage error.

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "core/cpd_model.h"
#include "graph/graph_io.h"
#include "ingest/ingest_pipeline.h"
#include "ingest/update_batch.h"
#include "util/flags.h"
#include "util/timer.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --model in.cpdb --update batch.json --out out.cpdb\n"
               "          --users N --docs docs.tsv --friends friends.tsv "
               "--diffusion diffusion.tsv\n"
               "          [--warm_iters 2] [--threads 1] [--shards 0]\n"
               "          [--seed 42] [--save_graph prefix] [--emit_delta 0]\n",
               argv0);
}

const std::set<std::string> kKnownFlags = {
    "model", "update",     "out",     "users",  "docs", "friends",
    "diffusion", "warm_iters", "threads", "shards", "seed", "save_graph",
    "emit_delta"};

}  // namespace

int main(int argc, char** argv) {
  auto parsed = cpd::ParseFlags(argc, argv, kKnownFlags);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().message().c_str());
    Usage(argv[0]);
    return 2;
  }
  cpd::FlagMap args = std::move(*parsed);
  const auto usage = [argv] { Usage(argv[0]); };
  const auto int_flag = [&args, &usage](const std::string& name,
                                        int64_t fallback) {
    return cpd::GetInt64FlagOrExit(args, name, fallback, usage);
  };
  for (const char* required :
       {"model", "update", "out", "users", "docs", "friends", "diffusion"}) {
    if (!args.count(required)) {
      Usage(argv[0]);
      return 2;
    }
  }

  const uint64_t num_users = cpd::GetUint64FlagOrExit(args, "users", 0, usage);
  auto loaded = cpd::LoadSocialGraph(num_users, args["docs"], args["friends"],
                                     args["diffusion"]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "graph load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  auto graph =
      std::make_shared<const cpd::SocialGraph>(std::move(*loaded));

  // Decode the artifact (not just the model) so the base generation stamp
  // survives into any emitted delta.
  auto artifact = cpd::ReadModelArtifact(args["model"]);
  if (!artifact.ok()) {
    std::fprintf(stderr, "model load failed: %s\n",
                 artifact.status().ToString().c_str());
    return 1;
  }
  const uint64_t base_generation = artifact->generation;
  auto model = cpd::CpdModel::FromArtifact(std::move(*artifact));
  if (!model.ok()) {
    std::fprintf(stderr, "model load failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }

  auto batch = cpd::ingest::LoadUpdateBatch(args["update"]);
  if (!batch.ok()) {
    std::fprintf(stderr, "update batch load failed: %s\n",
                 batch.status().ToString().c_str());
    return 1;
  }

  cpd::ingest::IngestOptions options;
  options.config = model->config();
  options.config.num_communities = model->num_communities();
  options.config.num_topics = model->num_topics();
  options.config.num_threads = static_cast<int>(int_flag("threads", 1));
  options.config.num_shards = static_cast<int>(int_flag("shards", 0));
  options.config.seed = cpd::GetUint64FlagOrExit(args, "seed", 42, usage);
  options.warm_iterations = static_cast<int>(int_flag("warm_iters", 2));
  // --emit_delta 1 also writes "<out minus .cpdb>.cpdd": the diff against
  // the input artifact, for POST /admin/reload {"delta": ...} publication.
  options.write_delta = int_flag("emit_delta", 0) != 0;
  options.base_generation = base_generation;

  auto pipeline =
      cpd::ingest::IngestPipeline::Create(graph, *model, std::move(options));
  if (!pipeline.ok()) {
    std::fprintf(stderr, "pipeline setup failed: %s\n",
                 pipeline.status().ToString().c_str());
    return 1;
  }

  std::printf("ingesting %zu documents, %zu friendships, %zu diffusions...\n",
              batch->documents.size(), batch->friendships.size(),
              batch->diffusions.size());
  auto result = (*pipeline)->Ingest(*batch, args["out"]);
  if (!result.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "wrote %s\n"
      "  +%zu docs (%zu dropped), +%zu users, +%zu friendships, "
      "+%zu diffusions, +%zu words\n"
      "  now %zu users / %zu docs / %zu words\n"
      "  apply %.3f s, warm sweeps %.3f s, save %.3f s, total %.3f s\n"
      "  link log-likelihood %.2f\n",
      result->artifact_path.c_str(), result->counts.new_documents,
      result->counts.dropped_documents, result->counts.new_users,
      result->counts.new_friendships, result->counts.new_diffusions,
      result->counts.new_words, result->num_users, result->num_documents,
      result->vocab_size, result->apply_seconds, result->warm_seconds,
      result->save_seconds, result->total_seconds,
      result->link_log_likelihood);
  if (!result->delta_path.empty()) {
    std::printf("  delta -> %s (%zu bytes vs %zu full; generation %llu)\n",
                result->delta_path.c_str(), result->delta_bytes,
                result->artifact_bytes,
                static_cast<unsigned long long>(result->generation));
  }

  if (args.count("save_graph")) {
    const std::string prefix = args["save_graph"];
    const auto merged = (*pipeline)->graph();
    const cpd::Status saved = cpd::SaveSocialGraph(
        *merged, prefix + ".docs.tsv", prefix + ".friends.tsv",
        prefix + ".diffusion.tsv");
    if (!saved.ok()) {
      std::fprintf(stderr, "merged graph save failed: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("merged graph saved to %s.{docs,friends,diffusion}.tsv "
                "(%zu users; pass --users %zu next time)\n",
                prefix.c_str(), merged->num_users(), merged->num_users());
  }
  return 0;
}
