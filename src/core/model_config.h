#ifndef CPD_CORE_MODEL_CONFIG_H_
#define CPD_CORE_MODEL_CONFIG_H_

/// \file model_config.h
/// Configuration for the CPD model (paper §3-4), including the ablation
/// switches used by the model-design study (§6.2) and the baselines that are
/// structural restrictions of CPD (COLD).

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/string_util.h"

namespace cpd {

/// How the topic-popularity factor n_tz (§3.1) is represented. The paper
/// says "the count of topic z at t"; raw counts saturate the sigmoid, so the
/// default is the per-bin fraction (see DESIGN.md §5).
enum class PopularityMode {
  kRaw,       ///< Raw count of topic-z diffusions in bin t.
  kFraction,  ///< Count divided by total diffusions in bin t.
  kLog1p,     ///< log(1 + count).
};

/// E-step sampling backend (§4.3 performance work). Both target the same
/// posterior; they must agree statistically.
enum class SamplerMode {
  /// Exact conditional scan: O(|Z|) per topic draw, O(|C|) per community
  /// draw with full log-space evaluation. Reference implementation.
  kDense,
  /// Sparse decomposition + stale Walker alias proposals with a
  /// Metropolis-Hastings correction (LightLDA-style cycle proposals).
  /// Amortized cost per document is proportional to the document length and
  /// the nonzero counts touched, not |Z| or |C|.
  kSparse,
};

/// How the E-step dispatches its snapshot/delta shards (§4.3 refactored as
/// plan -> snapshot -> shard-local sample -> delta-merge). Every mode samples
/// against an immutable StateSnapshot and emits CounterDeltas; only the
/// dispatch differs, so serial and pooled runs with the same seed and shard
/// count are bit-identical.
enum class ExecutorMode {
  /// num_threads == 1 -> kSerial, otherwise kPooled.
  kAuto,
  /// Shards run in shard order on the calling thread.
  kSerial,
  /// Shards fan out over a persistent thread pool.
  kPooled,
  /// Shards ship to cpd_worker processes over the src/dist wire protocol
  /// (snapshot out, CounterDelta back). Bit-identical to kSerial/kPooled for
  /// the same seed and shard count because shard RNG streams travel with
  /// their shards. Requires dist_workers or dist_worker_addrs.
  kDistributed,
};

/// Ablation / variant switches. Default = full CPD.
struct CpdAblation {
  /// false reproduces the "no joint modeling" baseline: detect communities
  /// from friendship links only, then freeze them and fit the profiles.
  bool joint_profiling = true;

  /// false reproduces "no heterogeneity": diffusion links are generated the
  /// same way as friendship links (Eq. 3), ignoring topics/eta/nu.
  bool heterogeneous_links = true;

  /// false drops the individual-preference factor nu^T f_uv from Eq. 5.
  bool individual_factor = true;

  /// false drops the topic-popularity factor n_tz from Eq. 5.
  bool topic_factor = true;

  /// false drops friendship links from the model entirely (COLD-style).
  bool model_friendship = true;

  /// false drops diffusion links from the model entirely.
  bool model_diffusion = true;
};

/// Full model configuration (Table 2 symbols in comments).
struct CpdConfig {
  int num_communities = 20;  ///< |C|
  int num_topics = 20;       ///< |Z|

  /// Dirichlet priors; negative values select the paper's convention
  /// alpha = 50/|Z|, rho = 50/|C| [13], capped so the prior stays sparse
  /// relative to the likelihood: alpha <= 1.0 and rho <= 0.1. The uncapped
  /// convention assumes the paper's data scale (hundreds of documents per
  /// user, where rho/n_u is negligible); at smaller scales an uncapped rho
  /// smooths every user's membership toward uniform and nothing is detected
  /// (see DESIGN.md §5). beta = 0.1.
  double alpha = -1.0;
  double rho = -1.0;
  double beta = 0.1;

  int em_iterations = 15;          ///< T1, outer variational-EM iterations.
  int gibbs_sweeps_per_em = 3;     ///< Collapsed-Gibbs sweeps per E-step.
  int nu_iterations = 60;          ///< T2, gradient steps for nu per M-step.
  double nu_learning_rate = 0.1;
  double nu_l2 = 1e-4;             ///< L2 regularization for nu.
  double eta_smoothing = 1e-3;     ///< Additive smoothing for eta aggregation.

  PopularityMode popularity_mode = PopularityMode::kFraction;

  /// E-step backend. kSparse (the alias-table + Metropolis-Hastings path) is
  /// the default now that it has soaked across the bench suite; kDense stays
  /// as the exact reference path (`--sampler dense` in cpd_train).
  SamplerMode sampler_mode = SamplerMode::kSparse;

  /// Metropolis-Hastings proposals per conditional draw in kSparse mode.
  /// More steps track the exact conditional more closely per sweep;
  /// LightLDA's cycle default is 2 (one prior proposal plus one word
  /// proposal for topics), but 4 buys noticeably better per-sweep mixing on
  /// small/medium graphs for a still-sublinear cost, so it is the default
  /// now that kSparse is the default backend.
  int mh_steps = 4;

  /// E-step shard dispatch (see ExecutorMode). kAuto follows num_threads.
  ExecutorMode executor_mode = ExecutorMode::kAuto;

  /// Number of snapshot/delta shards per sweep. 0 follows num_threads. More
  /// shards than threads is legal (they queue on the pool); a single shard
  /// reproduces sequential collapsed Gibbs exactly — modulo the collapse
  /// memo below, so also clear cache_eta_collapse (or use kDense) when an
  /// exact chain is the point.
  int num_shards = 0;

  /// Memoize the eta/theta endpoint collapse of the diffusion-link community
  /// term per (other endpoint, link topic, side) within a sweep, cutting the
  /// O(|C|^2) collapse per link to an O(|C|) lookup after the first link that
  /// shares the key. The memo enters the community kernel's MH *target*, so
  /// its within-sweep staleness is NOT corrected by the MH step — it is an
  /// uncorrected stale-read approximation of the same class as AD-LDA /
  /// multi-shard sweeps (bounded by one sweep; tables refresh at every
  /// sweep start). It therefore only applies to kSparse sweeps, keeping the
  /// dense path an exact reference; disable it for exact single-shard
  /// sparse chains. Hits/misses are reported in TrainStats.
  bool cache_eta_collapse = true;

  CpdAblation ablation;

  /// Distributed E-step (executor_mode == kDistributed). Exactly one of
  /// dist_workers (auto-spawned local cpd_worker processes) or
  /// dist_worker_addrs (comma-separated list of pre-started workers, each
  /// a numeric IPv4 HOST:PORT that Validate checks with ParseIpv4Endpoint)
  /// must be set.
  int dist_workers = 0;
  std::string dist_worker_addrs;
  /// Path of the worker binary to spawn; empty = "cpd_worker" next to the
  /// running executable.
  std::string dist_worker_binary;
  /// Per-sweep deadline: shards still pending on a worker after this long
  /// are re-dispatched to surviving workers (the stragglers are declared
  /// dead).
  int dist_sweep_deadline_ms = 30000;

  uint64_t seed = 42;
  int num_threads = 1;  ///< >1 enables the parallel E-step (§4.3).
  bool verbose = false;

  /// When non-empty, the trainer records per-sweep trace spans (snapshot,
  /// shard sample, merge, augmentation, M-step; per-worker rows for the
  /// distributed executor) and writes Chrome trace-event JSON here at the
  /// end of Train()/WarmStart() — load it in Perfetto / chrome://tracing
  /// (cpd_train --trace_out). Recording never perturbs sampling: executors
  /// emit only wall-clock spans, so traced and untraced runs stay
  /// bit-identical for the same seed.
  std::string trace_out;

  /// Resolved priors.
  double ResolvedAlpha() const {
    if (alpha > 0.0) return alpha;
    return std::min(1.0, 50.0 / static_cast<double>(num_topics));
  }
  double ResolvedRho() const {
    if (rho > 0.0) return rho;
    return std::min(0.1, 50.0 / static_cast<double>(num_communities));
  }

  /// dist_worker_addrs split on commas, empty entries kept (Validate
  /// rejects them with every other malformed entry); empty when no list is
  /// set.
  std::vector<std::string> DistWorkerAddrs() const {
    if (dist_worker_addrs.empty()) return {};
    return Split(dist_worker_addrs, ',');
  }

  /// Number of distributed workers implied by the config: the spawn count,
  /// or the address-list length when pre-started workers are used.
  int ResolvedDistWorkers() const {
    if (!dist_worker_addrs.empty()) {
      return static_cast<int>(DistWorkerAddrs().size());
    }
    return dist_workers;
  }

  /// Resolved E-step sharding. Distributed runs default to one shard per
  /// worker so every worker gets work; the serial-identity invariant then
  /// requires comparing against a local run with the same shard count.
  int ResolvedNumShards() const {
    if (num_shards > 0) return num_shards;
    if (ResolvedExecutorMode() == ExecutorMode::kDistributed) {
      return std::max(1, ResolvedDistWorkers());
    }
    return std::max(1, num_threads);
  }
  ExecutorMode ResolvedExecutorMode() const {
    if (executor_mode != ExecutorMode::kAuto) return executor_mode;
    return num_threads > 1 ? ExecutorMode::kPooled : ExecutorMode::kSerial;
  }

  /// Validates field ranges.
  Status Validate() const {
    if (num_communities < 1) return Status::InvalidArgument("|C| < 1");
    if (num_topics < 1) return Status::InvalidArgument("|Z| < 1");
    if (beta <= 0.0) return Status::InvalidArgument("beta <= 0");
    if (em_iterations < 1) return Status::InvalidArgument("em_iterations < 1");
    if (gibbs_sweeps_per_em < 1) {
      return Status::InvalidArgument("gibbs_sweeps_per_em < 1");
    }
    if (nu_iterations < 0) return Status::InvalidArgument("nu_iterations < 0");
    if (mh_steps < 1) return Status::InvalidArgument("mh_steps < 1");
    if (num_shards < 0) return Status::InvalidArgument("num_shards < 0");
    if (nu_learning_rate <= 0.0) {
      return Status::InvalidArgument("nu_learning_rate <= 0");
    }
    if (num_threads < 1) return Status::InvalidArgument("num_threads < 1");
    if (dist_workers < 0) return Status::InvalidArgument("dist_workers < 0");
    if (dist_workers > 0 && !dist_worker_addrs.empty()) {
      return Status::InvalidArgument(
          "dist_workers and dist_worker_addrs are mutually exclusive");
    }
    for (const std::string& addr : DistWorkerAddrs()) {
      const auto endpoint = ParseIpv4Endpoint(addr);
      if (!endpoint.ok()) {
        return Status::InvalidArgument("dist_worker_addrs: " +
                                       endpoint.status().message());
      }
    }
    if (executor_mode == ExecutorMode::kDistributed &&
        ResolvedDistWorkers() < 1) {
      return Status::InvalidArgument(
          "distributed executor requires dist_workers or dist_worker_addrs");
    }
    if (dist_sweep_deadline_ms < 1) {
      return Status::InvalidArgument("dist_sweep_deadline_ms < 1");
    }
    return Status::OK();
  }
};

}  // namespace cpd

#endif  // CPD_CORE_MODEL_CONFIG_H_
