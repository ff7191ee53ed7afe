#ifndef CPDBENCH_SERVE_INTERNAL_H_
#define CPDBENCH_SERVE_INTERNAL_H_

// The read path of the `ingest` workload: the seeded request stream, the
// open-loop generator, /metricsz scraping, the cpd_serve child process and
// the serving-layer measurements.

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fixtures.h"
#include "obs/metrics.h"
#include "proc.h"
#include "serve/profile_index.h"
#include "serve/query_engine.h"
#include "workloads.h"

namespace cpdbench {

inline constexpr size_t kBatchSize = 16;

/// One POST /v1/query body and the typed request(s) it encodes (one, or
/// kBatchSize for a {"batch":[...]} body).
struct Request {
  std::vector<cpd::serve::QueryRequest> parts;
  std::string body;
};

std::vector<Request> BuildRequests(const cpd::SocialGraph& graph,
                                   const cpd::serve::ProfileIndex& index,
                                   size_t count, uint64_t seed);

/// The body the server must return for `request`: QueryResponseToJson of
/// the in-process engine's answer, in the batch envelope when batched.
std::string ExpectedBody(const Request& request,
                         const cpd::serve::QueryEngine& engine);

/// A response kept for the output checks.
struct ReadSample {
  size_t request = 0;
  std::string body;
  int64_t sent_us = 0;
  int64_t done_us = 0;
};

struct PhaseSpec {
  std::string label;
  double rate = 0.0;     ///< Requests per second (Poisson arrivals).
  double seconds = 0.0;  ///< Span of due times (an upper bound with `stop`).
  int connections = 1;   ///< Connection pool; a request waits for a free one.
  uint64_t stream_offset = 0;
  uint64_t seed = 0;
  size_t sample_every = 0;  ///< Keep every n-th body for checks (0 = none).
  int64_t start_us = 0;     ///< First possible due time (0 = 20 ms from now).
  /// When set, no request is sent once it reads true; requests in flight
  /// still complete.
  const std::atomic<bool>* stop = nullptr;
};

struct PhaseStats {
  std::string label;
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  /// Per answered request: latency from its due time, and generator lag
  /// (send time minus the later of due time and connection free time).
  std::vector<double> latency_us;
  std::vector<double> lag_us;
  std::vector<ReadSample> samples;
  int64_t attempted = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  double wall_s = 0.0;
  double gen_cpu_s = 0.0;
  double server_cpu_s = 0.0;
  bool stopped = false;  ///< Ended by PhaseSpec::stop, not by `seconds`.
};

/// Open loop: due times are drawn before the first send; each request goes
/// out on the next free connection once due. With `spans`, requests carry
/// an X-Request-Id and record client spans.
PhaseStats RunPhase(const PhaseSpec& spec, const std::vector<Request>& requests,
                    int port, pid_t server_pid, SpanLog* spans);

/// The histograms of one /metricsz scrape: cumulative bucket counts and
/// sums, keyed by series (name and labels without `le`).
struct Scrape {
  std::map<std::string, std::vector<double>> buckets;
  std::map<std::string, double> sums;
};
cpd::StatusOr<Scrape> ScrapeMetrics(HttpConnection* connection);

/// The histogram of observations between two scrapes, summed over every
/// series of `family` whose labels contain `label_filter`.
cpd::obs::Histogram::Snapshot DeltaHistogram(const Scrape& before,
                                             const Scrape& after,
                                             const std::string& family,
                                             const std::string& label_filter);

struct ServerSpec {
  std::string binary;
  std::string model;
  GraphFixture graph;
  std::string log_path;
};

struct ServerHandle {
  ChildProcess process;
  int port = 0;
  double startup_s = 0.0;  ///< Spawn until the first /healthz 200.
};

/// Starts cpd_serve with operator flags only (--log_level warning and
/// --emit_delta 1 besides the artifact, graph and port).
cpd::StatusOr<ServerHandle> StartServer(const ServerSpec& spec);
/// Starts the server `repeats` times, stopping each before the next, and
/// returns the last; every start-up time is appended to `startup_s`.
cpd::StatusOr<ServerHandle> StartServerRepeatedly(
    const ServerSpec& spec, int repeats, std::vector<double>* startup_s);

/// The serving layers, measured on a running server that still serves the
/// generation `engine` answers for: light and busy traced phases with
/// /metricsz stage histograms around them, a /healthz probe, the server's
/// CPU per request, and the in-process replays below. Sets the server.*,
/// serve.* and gen.* per-layer metrics and trace.read_coverage.
void MeasureServingLayers(const RunOptions& options, const ServerHandle& server,
                          const std::vector<Request>& requests,
                          const cpd::serve::QueryEngine& engine, double seconds,
                          double index_load_ms, SpanLog* spans, Result* result);

/// Replays the request stream through the serving layers in-process
/// (JSON decode, QueryEngine::Query, JSON encode) for their latencies.
void ReplayServingLayers(const std::vector<Request>& requests,
                         const cpd::serve::QueryEngine& engine,
                         double index_load_ms, SpanLog* spans, Result* result);

/// Generator validity: a phase whose generator lag p99 exceeds the limit
/// did not measure the server; the run's checks fail.
void CheckGenerator(const PhaseStats& phase, double lag_limit_ms,
                    Result* result);
void ReportPhase(const PhaseStats& phase);

}  // namespace cpdbench

#endif  // CPDBENCH_SERVE_INTERNAL_H_
