// Workloads `train` and `train_dist`: cold CPD training on the Twitter-like
// graph, measured from outside through EmTrainer's public calls.
//
// Set-up (timed `setup_repeats` times, median reported) is trainer
// construction + Initialize() + one warm-up EM iteration, which includes
// the shard plan, executor build and, for train_dist, worker spawn. Then
// EM iterations (EStep + MStep), as many as --seconds asks for, are timed
// one by one. The chain is deterministic for a seed and shard count, so
// train_dist must end with the perplexity and link log-likelihood, bit for
// bit, of the same chain on the pooled executor, which it replays after
// measuring.

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>

#include "core/cpd_model.h"
#include "core/em_trainer.h"
#include "eval/metrics.h"
#include "proc.h"
#include "workloads.h"

namespace cpdbench {
namespace {

namespace fs = std::filesystem;

struct ChainOutcome {
  std::vector<double> setup_s;
  std::vector<double> iteration_s;
  double tokens_per_s = 0.0;
  double link_ll = 0.0;
  double perplexity = 0.0;
  double peak_rss_mb = 0.0;
  bool ok = true;
  std::string error;
};

double ContentPerplexityOf(const cpd::SocialGraph& graph,
                           const cpd::CpdConfig& config,
                           const cpd::ModelState& state) {
  const cpd::CpdModel model = cpd::CpdModel::FromState(graph, config, state);
  std::vector<std::vector<double>> pi(model.num_users());
  for (size_t u = 0; u < model.num_users(); ++u) {
    const auto row = model.Membership(static_cast<cpd::UserId>(u));
    pi[u].assign(row.begin(), row.end());
  }
  std::vector<std::vector<double>> theta(
      static_cast<size_t>(model.num_communities()));
  for (int c = 0; c < model.num_communities(); ++c) {
    const auto row = model.ContentProfile(c);
    theta[static_cast<size_t>(c)].assign(row.begin(), row.end());
  }
  std::vector<std::vector<double>> phi(static_cast<size_t>(model.num_topics()));
  for (int z = 0; z < model.num_topics(); ++z) {
    const auto row = model.TopicWords(z);
    phi[static_cast<size_t>(z)].assign(row.begin(), row.end());
  }
  std::vector<cpd::DocId> docs(graph.num_documents());
  std::iota(docs.begin(), docs.end(), 0);
  return cpd::ContentPerplexity(graph, docs, pi, theta, phi);
}

/// Peak RSS of the processes running the trainer: this one plus any
/// cpd_worker children (read while they are still alive).
double TrainerPeakRssMb() {
  double total = PeakRssMb(::getpid());
  for (const pid_t pid : ChildPids("cpd_worker")) total += PeakRssMb(pid);
  return total;
}

/// Phase spans the trainer records itself (config.trace_out), renamed by
/// the row they were recorded on.
std::string TrainerRowPrefix(int tid) {
  if (tid == 0) return "trainer.";
  if (tid == 1) return "coordinator.";
  return "worker.";
}

struct TraceCounters {
  cpd::TrainStats stats;
  std::vector<double> shard_seconds;
};

/// One chain: `setups` timed set-ups (all but the last discarded), then
/// `iterations` timed EM iterations. With a span log, every public call is
/// recorded and the trainer's own phase spans are imported.
ChainOutcome RunChain(const cpd::SocialGraph& graph, cpd::CpdConfig config,
                      int setups, int iterations, SpanLog* spans,
                      TraceCounters* before, TraceCounters* after,
                      int64_t* measured_begin_us, int64_t* measured_end_us) {
  ChainOutcome out;
  std::unique_ptr<cpd::EmTrainer> trainer;
  std::vector<int64_t> parents;
  const auto fail = [&out](const std::string& what, const cpd::Status& s) {
    out.ok = false;
    out.error = what + ": " + s.ToString();
    return out;
  };
  for (int r = 0; r < setups; ++r) {
    trainer.reset();
    const int64_t start = NowUs();
    {
      ScopedSpan span(spans, "EmTrainer::EmTrainer", 0);
      trainer = std::make_unique<cpd::EmTrainer>(graph, config);
    }
    cpd::Status s;
    {
      ScopedSpan span(spans, "EmTrainer::Initialize", 0);
      s = trainer->Initialize();
    }
    if (!s.ok()) return fail("Initialize", s);
    {
      ScopedSpan span(spans, "EmTrainer::EStep", 0);
      s = trainer->EStep();
      parents.push_back(span.End());
    }
    if (!s.ok()) return fail("warm-up EStep", s);
    {
      ScopedSpan span(spans, "EmTrainer::MStep", 0);
      trainer->MStep();
      parents.push_back(span.End());
    }
    out.setup_s.push_back(static_cast<double>(NowUs() - start) * 1e-6);
  }

  if (before != nullptr) before->stats = trainer->stats();
  std::vector<double> shard_total;
  const int64_t begin = NowUs();
  for (int k = 0; k < iterations; ++k) {
    const int64_t start = NowUs();
    {
      ScopedSpan span(spans, "EmTrainer::EStep", 0);
      const cpd::Status s = trainer->EStep();
      parents.push_back(span.End());
      if (!s.ok()) return fail("EStep", s);
    }
    if (trainer->executor() != nullptr) {
      const std::vector<double>& shard = trainer->executor()->shard_seconds();
      shard_total.resize(shard.size(), 0.0);
      for (size_t i = 0; i < shard.size(); ++i) shard_total[i] += shard[i];
    }
    {
      ScopedSpan span(spans, "EmTrainer::MStep", 0);
      trainer->MStep();
      parents.push_back(span.End());
    }
    out.iteration_s.push_back(static_cast<double>(NowUs() - start) * 1e-6);
  }
  const int64_t end = NowUs();
  if (measured_begin_us != nullptr) *measured_begin_us = begin;
  if (measured_end_us != nullptr) *measured_end_us = end;
  if (after != nullptr) {
    after->stats = trainer->stats();
    after->shard_seconds = shard_total;
  }

  const double measured_s = static_cast<double>(end - begin) * 1e-6;
  const double tokens = static_cast<double>(graph.corpus().total_tokens()) *
                        config.gibbs_sweeps_per_em * iterations;
  out.tokens_per_s = tokens / measured_s;
  out.link_ll = trainer->sampler()->LinkLogLikelihood();
  out.peak_rss_mb = TrainerPeakRssMb();
  if (spans != nullptr && trainer->trace_recorder() != nullptr) {
    spans->Import(trainer->trace_recorder()->ToJson(), 10, parents,
                  TrainerRowPrefix);
  }
  out.perplexity = ContentPerplexityOf(graph, config, trainer->state());
  return out;
}

/// Serial = pooled = distributed: the chain's end state depends only on the
/// seed and the shard count. train_dist replays its chain in-process on the
/// pooled executor, after the measured runs, and must match it bit for bit.
void CheckAgainstPooledChain(const cpd::SocialGraph& graph,
                             const cpd::CpdConfig& config, int iterations,
                             const ChainOutcome& outcome, Result* result) {
  cpd::CpdConfig local = config;
  local.executor_mode = cpd::ExecutorMode::kAuto;
  local.dist_workers = 0;
  const ChainOutcome reference = RunChain(graph, local, 1, iterations, nullptr,
                                          nullptr, nullptr, nullptr, nullptr);
  if (!reference.ok) {
    result->Fail("pooled reference chain: " + reference.error);
    return;
  }
  result->Check(std::bit_cast<uint64_t>(outcome.link_ll) ==
                    std::bit_cast<uint64_t>(reference.link_ll),
                "link log-likelihood differs from the pooled chain of the same "
                "seed and shard count");
  result->Check(std::bit_cast<uint64_t>(outcome.perplexity) ==
                    std::bit_cast<uint64_t>(reference.perplexity),
                "perplexity differs from the pooled chain of the same seed and "
                "shard count");
}

/// The traced run's chain: same seed, so the same work as `plain`; spans
/// around every public call plus the trainer's own per-sweep phase spans.
/// Sets the per-layer metrics and writes the trace.
void MeasureTracedChain(const RunOptions& options, const cpd::SocialGraph& graph,
                        const cpd::CpdConfig& config, int iterations,
                        const ChainOutcome& plain, Result* result) {
  const double sweeps = static_cast<double>(config.gibbs_sweeps_per_em) *
                        iterations;
  const double iter_p50_ms = Median(plain.iteration_s) * 1e3;
  // trace_out only has to be non-empty to turn the trainer's recorder on:
  // the file is written by Train(), which the benchmark does not call (it
  // drives EStep/MStep).
  cpd::CpdConfig traced_config = config;
  traced_config.trace_out =
      (fs::path(options.work_dir) / "traces" / (options.workload + "-trainer.json"))
          .string();
  SpanLog spans;
  spans.NameRow(0, "bench: EmTrainer calls");
  TraceCounters before;
  TraceCounters after;
  int64_t begin_us = 0;
  int64_t end_us = 0;
  const ChainOutcome traced = RunChain(graph, traced_config, 1, iterations,
                                       &spans, &before, &after, &begin_us,
                                       &end_us);
  result->AddAttempted(iterations + 1);
  if (!traced.ok) {
    result->AddFailed(1);
    result->Fail(traced.error);
    return;
  }
  result->Check(std::bit_cast<uint64_t>(traced.link_ll) ==
                    std::bit_cast<uint64_t>(plain.link_ll),
                "traced chain differs from the untraced chain");

  const double k = iterations;
  const cpd::TrainStats& s0 = before.stats;
  const cpd::TrainStats& s1 = after.stats;
  result->Set("core.sample_shards_s", spans.TotalSeconds("trainer.sample_shards", begin_us, end_us) / k, "s");
  result->Set("core.snapshot_s", spans.TotalSeconds("trainer.snapshot", begin_us, end_us) / k, "s");
  result->Set("core.merge_s", spans.TotalSeconds("trainer.merge", begin_us, end_us) / k, "s");
  result->Set("core.augment_s", spans.TotalSeconds("trainer.augment", begin_us, end_us) / k, "s");
  result->Set("core.mstep_s", spans.TotalSeconds("EmTrainer::MStep", begin_us, end_us) / k, "s");
  result->Set("core.estep_unattributed_s",
              spans.SelfSeconds("EmTrainer::EStep", begin_us, end_us) / k, "s");
  result->Set("core.doc_moves_per_sweep",
              static_cast<double>(s1.delta_doc_moves - s0.delta_doc_moves) / sweeps,
              "count");
  result->Set("core.delta_entries_per_sweep",
              static_cast<double>(s1.delta_entries - s0.delta_entries) / sweeps,
              "count");
  const double hits =
      static_cast<double>(s1.eta_collapse_hits - s0.eta_collapse_hits);
  const double misses =
      static_cast<double>(s1.eta_collapse_misses - s0.eta_collapse_misses);
  result->Set("sampling.collapse_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  if (!after.shard_seconds.empty()) {
    const double max_s = *std::max_element(after.shard_seconds.begin(),
                                           after.shard_seconds.end());
    const double mean_s =
        std::accumulate(after.shard_seconds.begin(), after.shard_seconds.end(),
                        0.0) /
        static_cast<double>(after.shard_seconds.size());
    result->Set("parallel.shard_max_s", max_s / k, "s");
    result->Set("parallel.shard_mean_s", mean_s / k, "s");
    result->Set("parallel.imbalance", mean_s > 0 ? max_s / mean_s : 0.0, "ratio");
  }
  result->Set("dist.bytes_out_per_sweep",
              static_cast<double>(s1.dist_bytes_out - s0.dist_bytes_out) / sweeps,
              "B");
  result->Set("dist.bytes_in_per_sweep",
              static_cast<double>(s1.dist_bytes_in - s0.dist_bytes_in) / sweeps,
              "B");
  result->Set("dist.serialize_s",
              (s1.dist_serialize_seconds - s0.dist_serialize_seconds) / k, "s");
  result->Set("dist.wait_s", (s1.dist_wait_seconds - s0.dist_wait_seconds) / k,
              "s");
  result->Set("dist.redispatched",
              static_cast<double>(s1.dist_shards_redispatched -
                                  s0.dist_shards_redispatched),
              "count");

  const double wall_s = static_cast<double>(end_us - begin_us) * 1e-6;
  result->Set("trace.coverage", spans.LeafCoverageSeconds(begin_us, end_us) / wall_s,
              "ratio");
  result->Set("trace.overhead",
              Median(traced.iteration_s) * 1e3 / iter_p50_ms - 1.0, "ratio");
  WriteTrace(spans, options, result);
}

}  // namespace

GraphFixture WorkloadGraph(const RunOptions& options) {
  return GraphFixtureFor(options.work_dir, options.Param("scale"),
                         DeriveSeed(options.seed, 1));
}

cpd::CpdConfig TrainConfig(const RunOptions& options) {
  cpd::CpdConfig config;
  config.num_communities = static_cast<int>(options.Param("communities"));
  config.num_topics = static_cast<int>(options.Param("topics"));
  config.num_threads = static_cast<int>(options.Param("threads"));
  config.num_shards = static_cast<int>(options.Param("shards"));
  config.seed = DeriveSeed(options.seed, 2);
  if (options.workload == "train_dist") {
    config.executor_mode = cpd::ExecutorMode::kDistributed;
    config.dist_workers = static_cast<int>(options.Param("workers"));
  }
  return config;
}

void RunTrain(const RunOptions& options, bool distributed, Result* result) {
  const GraphFixture fixture = WorkloadGraph(options);
  auto loaded = LoadGraph(fixture);
  if (!loaded.ok()) {
    result->Fail("graph load: " + loaded.status().ToString());
    return;
  }
  const cpd::SocialGraph& graph = *loaded;
  const cpd::CpdConfig config = TrainConfig(options);
  // --seconds sizes the measured work: a fixed number of EM iterations per
  // second asked for, whatever the code under test makes of them.
  const int iterations = static_cast<int>(std::max(
      1.0, std::round(options.seconds * options.Param("iterations_per_second"))));
  const int setups = static_cast<int>(options.Param("setup_repeats"));
  std::printf("%s: %zu users, %zu documents, %lld tokens, |C|=%d |Z|=%d, "
              "%d shards, %s executor%s, %d measured EM iterations\n",
              options.workload.c_str(), graph.num_users(),
              graph.num_documents(),
              static_cast<long long>(graph.corpus().total_tokens()),
              config.num_communities, config.num_topics,
              config.ResolvedNumShards(), distributed ? "distributed" : "pooled",
              distributed ? (" over " + std::to_string(config.dist_workers) +
                             " workers").c_str()
                          : "",
              iterations);

  // Untraced chain: the end-to-end metrics (or, in a traced run, the
  // reference the tracing overhead is measured against).
  const ChainOutcome plain =
      RunChain(graph, config, options.trace ? 1 : setups, iterations, nullptr,
               nullptr, nullptr, nullptr, nullptr);
  result->AddAttempted(iterations + (options.trace ? 1 : setups));
  if (!plain.ok) {
    result->AddFailed(1);
    result->Fail(plain.error);
    return;
  }
  result->Check(std::isfinite(plain.link_ll), "link log-likelihood not finite");
  result->Check(std::isfinite(plain.perplexity) && plain.perplexity > 0,
                "perplexity not finite");
  std::printf("chain: link log-likelihood %.17g, perplexity %.17g\n",
              plain.link_ll, plain.perplexity);

  result->Set("setup_s", Median(plain.setup_s), "s");
  result->Set("throughput_per_s", plain.tokens_per_s, "1/s");
  result->Set("latency_p50_ms", Median(plain.iteration_s) * 1e3, "ms");
  // A training job's user waits for the whole job: set-up plus every
  // measured iteration.
  result->Set("latency_tail_ms",
              (Median(plain.setup_s) +
               std::accumulate(plain.iteration_s.begin(),
                               plain.iteration_s.end(), 0.0)) * 1e3,
              "ms");
  result->Set("peak_rss_mb", plain.peak_rss_mb, "MB");
  result->Set("e2e.setup_s", Median(plain.setup_s), "s");
  result->Set("e2e.peak_rss_mb", plain.peak_rss_mb, "MB");
  result->Set("e2e.train_tokens_per_s", plain.tokens_per_s, "tok/s");
  result->Set("e2e.train_perplexity", plain.perplexity, "ratio");
  result->Set("e2e.train_link_ll", plain.link_ll, "nat");

  if (options.trace) {
    MeasureTracedChain(options, graph, config, iterations, plain, result);
  }
  if (distributed) {
    CheckAgainstPooledChain(graph, config, iterations, plain, result);
  }
}

}  // namespace cpdbench
