// Serving front end for trained models: load a binary ".cpdb" artifact (or
// a legacy text model) into a ProfileIndex and answer the four §5 query
// types through the QueryEngine — interactively (REPL on stdin) or from a
// batch file. Artifacts bundle the vocabulary, so textual `rank` queries
// work without --vocab (the flag remains as an override).
//
// Usage:
//   cpd_query --model model.cpdb [--vocab vocab.tsv] [--top_k 5]
//             [--users N --docs docs.tsv --friends friends.tsv
//              --diffusion diffusion.tsv]                 (enables `diffusion`)
//             [--batch queries.txt]
//
// Commands (one per line):
//   membership <user> [k]          top-k communities of a user
//   rank <term> [term...]          Eq. 19 community ranking for a query
//                                  (terms are vocabulary words with --vocab,
//                                  numeric word ids otherwise)
//   topusers <community> [k]       strongest members of a community
//   diffusion <u> <v> <doc> <t>    Eq. 18 diffusion probability
//   help | quit
//
// The REPL answers one query at a time; --batch parses every line first,
// answers them in input order, and prints the responses.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/community_ranking.h"
#include "graph/graph_io.h"
#include "serve/profile_index.h"
#include "serve/query_engine.h"
#include "text/vocabulary.h"
#include "util/file_util.h"
#include "util/flags.h"
#include "util/status.h"
#include "util/timer.h"

namespace {

using cpd::serve::ProfileIndex;
using cpd::serve::QueryEngine;
using cpd::serve::QueryRequest;
using cpd::serve::QueryResponse;

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --model model.cpdb [--vocab vocab.tsv] [--top_k 5]\n"
               "          [--users N --docs docs.tsv "
               "--friends friends.tsv --diffusion diffusion.tsv]\n"
               "          [--batch queries.txt]\n"
               "commands: membership <user> [k] | rank <term...> |\n"
               "          topusers <community> [k] | diffusion <u> <v> <doc> "
               "<t> | help | quit\n",
               argv0);
}

const std::set<std::string> kKnownFlags = {
    "model", "vocab", "top_k", "users", "docs", "friends", "diffusion",
    "batch"};

/// Parses one command line into a typed request. `vocab` may be null (rank
/// terms are then numeric word ids).
cpd::StatusOr<QueryRequest> ParseCommand(const std::string& line,
                                         const cpd::Vocabulary* vocab) {
  std::istringstream in(line);
  std::string command;
  in >> command;
  auto malformed = [&command](const std::string& expect) {
    return cpd::Status::InvalidArgument("usage: " + command + " " + expect);
  };
  if (command == "membership") {
    cpd::serve::MembershipRequest request;
    if (!(in >> request.user)) return malformed("<user> [k]");
    in >> request.top_k;
    request.include_distribution = false;
    return QueryRequest(request);
  }
  if (command == "rank") {
    cpd::serve::RankCommunitiesRequest request;
    if (vocab != nullptr) {
      // Same tokenization as the offline app: stem against the vocabulary,
      // fall back to raw tokens (synthetic vocabularies are unstemmed).
      std::string text;
      std::getline(in, text);
      request.words = cpd::CommunityRanker::ParseQuery(*vocab, text);
      if (request.words.empty()) {
        return cpd::Status::NotFound("no query term is in the vocabulary:" +
                                     text);
      }
    } else {
      std::string term;
      while (in >> term) {
        char* end = nullptr;
        const auto w =
            static_cast<cpd::WordId>(std::strtol(term.c_str(), &end, 10));
        if (end == term.c_str() || *end != '\0') {
          return cpd::Status::InvalidArgument(
              "no --vocab loaded; rank takes numeric word ids, got: " + term);
        }
        request.words.push_back(w);
      }
      if (request.words.empty()) return malformed("<term> [term...]");
    }
    request.top_k = 5;
    return QueryRequest(request);
  }
  if (command == "topusers") {
    cpd::serve::TopUsersRequest request;
    if (!(in >> request.community)) return malformed("<community> [k]");
    if (!(in >> request.top_k)) request.top_k = 10;
    return QueryRequest(request);
  }
  if (command == "diffusion") {
    cpd::serve::DiffusionRequest request;
    if (!(in >> request.source >> request.target >> request.document >>
          request.time_bin)) {
      return malformed("<source_user> <target_user> <doc> <time_bin>");
    }
    return QueryRequest(request);
  }
  return cpd::Status::InvalidArgument("unknown command: " + command +
                                      " (try: help)");
}

void PrintResponse(const QueryResponse& response, const ProfileIndex& index,
                   const cpd::Vocabulary* vocab) {
  if (const auto* membership =
          std::get_if<cpd::serve::MembershipResponse>(&response)) {
    for (const auto& entry : membership->top) {
      std::printf("  c%02d  %.4f\n", entry.community, entry.weight);
    }
    return;
  }
  if (const auto* ranked =
          std::get_if<cpd::serve::RankCommunitiesResponse>(&response)) {
    for (const auto& entry : ranked->ranked) {
      std::printf("  c%02d  score %.6g", entry.community, entry.score);
      if (!entry.topic_distribution.empty() && vocab != nullptr) {
        // Label with the top word of the dominant query topic.
        size_t best_z = 0;
        for (size_t z = 1; z < entry.topic_distribution.size(); ++z) {
          if (entry.topic_distribution[z] > entry.topic_distribution[best_z]) {
            best_z = z;
          }
        }
        const auto phi = index.TopicWords(static_cast<int>(best_z));
        size_t best_w = 0;
        for (size_t w = 1; w < phi.size(); ++w) {
          if (phi[w] > phi[best_w]) best_w = w;
        }
        std::printf("  (topic %zu: %s)", best_z,
                    vocab->WordOf(static_cast<cpd::WordId>(best_w)).c_str());
      }
      std::printf("\n");
    }
    return;
  }
  if (const auto* diffusion =
          std::get_if<cpd::serve::DiffusionResponse>(&response)) {
    std::printf("  p(diffuse) = %.6f   p(friend) = %.6f\n",
                diffusion->probability, diffusion->friendship_score);
    return;
  }
  const auto& top_users = std::get<cpd::serve::TopUsersResponse>(response);
  for (size_t i = 0; i < top_users.users.size(); ++i) {
    std::printf("  u%-6d  %.4f\n", top_users.users[i], top_users.weights[i]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = cpd::ParseFlags(argc, argv, kKnownFlags);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().message().c_str());
    Usage(argv[0]);
    return 2;
  }
  cpd::FlagMap args = std::move(*parsed);
  if (!args.count("model")) {
    Usage(argv[0]);
    return 2;
  }
  // Typed flag parsing: a mistyped numeric flag is a usage error (exit 2),
  // identically to cpd_train / cpd_serve.
  const auto usage = [argv] { Usage(argv[0]); };
  const auto int_flag = [&args, &usage](const std::string& name,
                                        int64_t fallback) {
    return cpd::GetInt64FlagOrExit(args, name, fallback, usage);
  };

  cpd::serve::ProfileIndexOptions options;
  options.membership_top_k =
      static_cast<int>(int_flag("top_k", options.membership_top_k));
  cpd::WallTimer load_timer;
  auto bundle = cpd::serve::LoadModelBundle(args["model"], options);
  if (!bundle.ok()) {
    std::fprintf(stderr, "model load failed: %s\n",
                 bundle.status().ToString().c_str());
    return 1;
  }
  const ProfileIndex* index = &bundle->index;
  std::printf("loaded %s in %.0f ms: |C|=%d |Z|=%d users=%zu vocab=%zu%s\n",
              args["model"].c_str(), load_timer.ElapsedMillis(),
              index->num_communities(), index->num_topics(),
              index->num_users(), index->vocab_size(),
              bundle->vocabulary != nullptr ? " (vocabulary bundled)" : "");

  // --vocab overrides the artifact's bundled vocabulary; without either,
  // rank queries take numeric word ids.
  std::optional<cpd::Vocabulary> vocab;
  if (args.count("vocab")) {
    auto loaded = cpd::Vocabulary::LoadFromFile(args["vocab"]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "vocab load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    if (loaded->size() != index->vocab_size()) {
      std::fprintf(stderr, "vocab has %zu words, model expects %zu\n",
                   loaded->size(), index->vocab_size());
      return 1;
    }
    vocab = std::move(*loaded);
  }

  std::optional<cpd::SocialGraph> graph;
  if (args.count("docs")) {
    if (!args.count("users") || !args.count("friends") ||
        !args.count("diffusion")) {
      std::fprintf(stderr,
                   "diffusion queries need --users, --docs, --friends and "
                   "--diffusion together\n");
      return 2;
    }
    const uint64_t users = cpd::GetUint64FlagOrExit(args, "users", 0, usage);
    auto loaded = cpd::LoadSocialGraph(users, args["docs"], args["friends"],
                                       args["diffusion"]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "graph load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    graph = std::move(*loaded);
  }

  const QueryEngine engine(*index, graph ? &*graph : nullptr);
  const cpd::Vocabulary* vocab_ptr =
      vocab ? &*vocab : bundle->vocabulary.get();

  if (args.count("batch")) {
    auto lines = cpd::ReadLines(args["batch"]);
    if (!lines.ok()) {
      std::fprintf(stderr, "batch read failed: %s\n",
                   lines.status().ToString().c_str());
      return 1;
    }
    std::vector<std::string> commands;
    std::vector<QueryRequest> requests;
    for (const std::string& line : *lines) {
      if (line.empty() || line[0] == '#') continue;
      auto request = ParseCommand(line, vocab_ptr);
      if (!request.ok()) {
        std::fprintf(stderr, "%s: %s\n", line.c_str(),
                     request.status().ToString().c_str());
        return 1;
      }
      commands.push_back(line);
      requests.push_back(std::move(*request));
    }
    cpd::WallTimer timer;
    std::vector<cpd::StatusOr<QueryResponse>> responses;
    responses.reserve(requests.size());
    for (const QueryRequest& request : requests) {
      responses.push_back(engine.Query(request));
    }
    const double elapsed = timer.ElapsedSeconds();
    for (size_t i = 0; i < responses.size(); ++i) {
      std::printf("> %s\n", commands[i].c_str());
      if (!responses[i].ok()) {
        std::printf("  error: %s\n", responses[i].status().ToString().c_str());
        continue;
      }
      PrintResponse(*responses[i], *index, vocab_ptr);
    }
    std::printf("%zu queries in %.1f ms (%.0f queries/sec)\n",
                responses.size(), elapsed * 1e3,
                static_cast<double>(responses.size()) / elapsed);
    return 0;
  }

  // REPL: one query per line, answered immediately.
  std::printf("cpd_query> ");
  std::fflush(stdout);
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") break;
    if (line == "help") {
      Usage(argv[0]);
    } else if (!line.empty()) {
      auto request = ParseCommand(line, vocab_ptr);
      if (!request.ok()) {
        std::printf("  error: %s\n", request.status().ToString().c_str());
      } else {
        cpd::WallTimer timer;
        auto response = engine.Query(*request);
        const double ms = timer.ElapsedMillis();
        if (!response.ok()) {
          std::printf("  error: %s\n", response.status().ToString().c_str());
        } else {
          PrintResponse(*response, *index, vocab_ptr);
          std::printf("  (%.2f ms)\n", ms);
        }
      }
    }
    std::printf("cpd_query> ");
    std::fflush(stdout);
  }
  return 0;
}
