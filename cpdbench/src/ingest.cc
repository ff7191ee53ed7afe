// Workload `ingest`: writes beside reads. One closed-loop writer posts a
// pre-generated, seed-derived chain of SampleUpdateBatch batches to
// POST /admin/ingest and, after each, polls a membership read for a user
// only that batch created; freshness is the time from sending the batch
// until that read succeeds. Reads arrive at the `light` rate from the
// writer's first batch until its last batch is readable, so every batch,
// and only those, runs beside them.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "core/cpd_model.h"
#include "ingest/ingest_pipeline.h"
#include "ingest/update_batch.h"
#include "util/rng.h"
#include "serve_internal.h"
#include "server/model_registry.h"

namespace cpdbench {
namespace {

namespace fs = std::filesystem;

constexpr int kRowWriter = 50;
constexpr int kRowReplay = 0;

struct WriteRecord {
  int64_t sent_us = 0;
  int64_t post_done_us = 0;
  int64_t visible_us = 0;
  int64_t read_sent_us = 0;  ///< The visibility read that succeeded.
  uint64_t generation = 0;
  double pipeline_s = 0.0;  ///< Server-reported time to fresh artifact.
  bool via_delta = false;
  bool ok = false;
};

struct Chain {
  std::vector<cpd::ingest::UpdateBatch> batches;
  std::vector<std::string> bodies;
  std::vector<cpd::UserId> new_user;  ///< A user only batch b creates.
};

Chain BuildChain(const cpd::SocialGraph& base, const RunOptions& options,
                 size_t count) {
  Chain chain;
  cpd::ingest::SampleUpdateOptions sample;
  sample.new_users = static_cast<size_t>(options.Param("batch_users"));
  sample.docs_per_user = static_cast<int>(options.Param("batch_docs_per_user"));
  sample.friends_per_user = static_cast<int>(options.Param("batch_friends_per_user"));
  sample.diffusions = static_cast<size_t>(options.Param("batch_diffusions"));
  cpd::Rng rng(DeriveSeed(options.seed, 5));
  std::unique_ptr<cpd::SocialGraph> current;
  for (size_t b = 0; b < count; ++b) {
    const cpd::SocialGraph& graph = current ? *current : base;
    sample.time = static_cast<int32_t>(b % std::max(1, graph.num_time_bins()));
    cpd::ingest::UpdateBatch batch =
        cpd::ingest::SampleUpdateBatch(graph, sample, &rng);
    auto applied = cpd::ingest::ApplyUpdate(graph, batch);
    if (!applied.ok()) break;
    chain.new_user.push_back(static_cast<cpd::UserId>(graph.num_users()));
    chain.bodies.push_back(cpd::ingest::UpdateBatchToJson(batch).Dump());
    chain.batches.push_back(std::move(batch));
    current = std::make_unique<cpd::SocialGraph>(std::move(applied->graph));
  }
  return chain;
}

/// Posts batches [first, end); one record per batch sent.
std::vector<WriteRecord> RunWriter(int port, const Chain& chain, size_t first,
                                   size_t end, uint64_t base_generation,
                                   SpanLog* spans) {
  std::vector<WriteRecord> records;
  auto connection = HttpConnection::Connect(port);
  if (!connection.ok()) return records;
  for (size_t b = first; b < end && b < chain.batches.size(); ++b) {
    WriteRecord record;
    auto reply = connection->RoundTrip("POST", "/admin/ingest", chain.bodies[b]);
    if (!reply.ok()) {
      records.push_back(record);
      break;
    }
    record.sent_us = reply->sent_us;
    record.post_done_us = reply->done_us;
    auto json = cpd::Json::Parse(reply->body);
    if (reply->status == 200 && json.ok()) {
      record.generation = static_cast<uint64_t>(FieldNumber(*json, "generation"));
      record.pipeline_s = FieldNumber(*json, "total_seconds");
      const cpd::Json* delta = json->Find("swapped_via_delta");
      record.via_delta = delta != nullptr && delta->is_bool() && delta->bool_value();
    }
    // Visibility: a membership read for a user only this batch created.
    const std::string read =
        "{\"type\":\"membership\",\"user\":" + std::to_string(chain.new_user[b]) +
        ",\"top_k\":5}";
    const int64_t deadline = NowUs() + 30000000;
    while (NowUs() < deadline) {
      auto seen = connection->RoundTrip("POST", "/v1/query", read);
      if (seen.ok() && seen->status == 200) {
        record.read_sent_us = seen->sent_us;
        record.visible_us = seen->done_us;
        break;
      }
      ::usleep(1000);
    }
    record.ok = reply->status == 200 && record.visible_us > 0 &&
                record.generation == base_generation + (b - first + 1);
    if (spans != nullptr) {
      const int64_t parent = spans->Add("ingest.fresh", kRowWriter,
                                        record.sent_us,
                                        std::max(record.visible_us, record.post_done_us));
      spans->Add("http.admin_ingest", kRowWriter, record.sent_us,
                 record.post_done_us, parent);
      if (record.visible_us > 0) {
        spans->Add("http.visibility_read", kRowWriter, record.read_sent_us,
                   record.visible_us, parent);
      }
    }
    records.push_back(record);
  }
  return records;
}

struct IngestPhase {
  PhaseStats reads;
  std::vector<WriteRecord> writes;
};

/// A fixed number of batches beside reads. Both start together and the
/// reads stop once the writer has seen its last batch readable.
IngestPhase RunIngestPhase(const std::string& label, int port, pid_t pid,
                           const Chain& chain, size_t first_batch,
                           size_t batches, uint64_t base_generation,
                           const std::vector<Request>& requests,
                           const PhaseSpec& read_spec, SpanLog* spans) {
  IngestPhase phase;
  std::atomic<bool> writer_done{false};
  PhaseSpec spec = read_spec;
  spec.label = label;
  spec.start_us = NowUs() + 20000;
  spec.stop = &writer_done;
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::microseconds(spec.start_us - NowUs()));
    phase.writes = RunWriter(port, chain, first_batch, first_batch + batches,
                             base_generation, spans);
    writer_done.store(true, std::memory_order_release);
  });
  phase.reads = RunPhase(spec, requests, port, pid, spans);
  writer.join();
  return phase;
}

/// The read checks of one phase beside writes.
void CheckReads(const IngestPhase& phase, double lag_limit_ms, Result* result) {
  ReportPhase(phase.reads);
  result->AddAttempted(phase.reads.attempted);
  result->AddFailed(phase.reads.failed);
  CheckGenerator(phase.reads, lag_limit_ms, result);
  result->Check(phase.reads.failed == 0, "reads failed beside the writes");
  result->Check(phase.reads.stopped,
                "reads in phase " + phase.reads.label +
                    " ran out before the writer finished");
}

std::vector<double> FreshMs(const std::vector<WriteRecord>& writes) {
  std::vector<double> fresh;
  for (const WriteRecord& w : writes) {
    if (w.ok) fresh.push_back(static_cast<double>(w.visible_us - w.sent_us) * 1e-3);
  }
  return fresh;
}

/// Every sampled read body must equal the in-process answer of a
/// generation that was serving at some point while the read was in flight.
void CheckReadsByGeneration(const std::vector<ReadSample>& samples,
                            const std::vector<WriteRecord>& writes,
                            const std::vector<Request>& requests,
                            const Chain& chain, const cpd::SocialGraph& base,
                            const std::string& model_path, Result* result) {
  struct Bracket {
    size_t lo = 0;
    size_t hi = 0;
    bool matched = false;
  };
  std::vector<Bracket> brackets(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    for (const WriteRecord& w : writes) {
      if (w.post_done_us <= samples[i].sent_us) ++brackets[i].lo;
      if (w.sent_us <= samples[i].done_us) ++brackets[i].hi;
    }
  }
  std::unique_ptr<cpd::SocialGraph> current;
  for (size_t g = 0; g <= writes.size(); ++g) {
    if (g > 0) {
      auto applied = cpd::ingest::ApplyUpdate(current ? *current : base,
                                              chain.batches[g - 1]);
      if (!applied.ok()) break;
      current = std::make_unique<cpd::SocialGraph>(std::move(applied->graph));
    }
    bool needed = false;
    for (const Bracket& b : brackets) {
      needed |= !b.matched && b.lo <= g && g <= b.hi;
    }
    if (!needed) continue;
    const std::string path =
        g == 0 ? model_path : model_path + ".g" + std::to_string(g) + ".cpdb";
    auto index = cpd::serve::ProfileIndex::LoadFromFile(path);
    if (!index.ok()) {
      result->Fail("cannot load generation artifact " + path);
      return;
    }
    const cpd::serve::QueryEngine engine(*index, current ? current.get() : &base);
    for (size_t i = 0; i < samples.size(); ++i) {
      Bracket& b = brackets[i];
      if (b.matched || g < b.lo || g > b.hi) continue;
      b.matched = samples[i].body == ExpectedBody(requests[samples[i].request], engine);
    }
  }
  size_t unmatched = 0;
  for (const Bracket& b : brackets) unmatched += b.matched ? 0 : 1;
  result->Check(unmatched == 0,
                std::to_string(unmatched) + " of " + std::to_string(samples.size()) +
                    " sampled reads match no generation that served them");
}

void CheckWrites(const std::vector<WriteRecord>& writes, Result* result) {
  size_t bad = 0;
  for (const WriteRecord& w : writes) bad += w.ok ? 0 : 1;
  result->AddAttempted(static_cast<int64_t>(writes.size()));
  result->AddFailed(static_cast<int64_t>(bad));
  result->Check(bad == 0,
                std::to_string(bad) + " ingest batches failed, did not raise "
                "the generation by exactly one, or whose new user never "
                "became readable");
  result->Check(!writes.empty(), "no ingest batch completed");
}

/// The measured part of the workload, on a running copy of the fixture
/// artifact at `model_path`.
void MeasureIngest(const RunOptions& options, const cpd::SocialGraph& graph,
                   const GraphFixture& fixture, const std::string& model_path,
                   const std::string& run_dir,
                   const std::vector<Request>& requests,
                   const cpd::serve::ProfileIndex& index,
                   double index_load_ms, int connections, Result* result) {
  // --seconds sizes the untraced phase: a fixed number of batches per
  // second asked for, whatever the code under test makes of them.
  const size_t batches = static_cast<size_t>(std::max(
      1.0, std::round(options.seconds * options.Param("batches_per_second"))));
  const size_t traced_batches =
      options.trace ? static_cast<size_t>(options.Param("traced_batches")) : 0;
  const Chain chain = BuildChain(graph, options, batches + traced_batches);
  const ServerSpec spec{options.bin_dir + "/cpd_serve", model_path, fixture,
                        run_dir + "/cpd_serve.log"};
  const int setups =
      options.trace ? 1 : static_cast<int>(options.Param("setup_repeats"));
  std::vector<double> setup_s;
  auto started = StartServerRepeatedly(spec, setups, &setup_s);
  result->AddAttempted(setups);
  if (!started.ok()) {
    result->AddFailed(1);
    result->Fail(started.status().ToString());
    return;
  }
  ServerHandle server = std::move(*started);
  const double light = options.Param("light_rps");
  const double lag_limit_ms = options.Param("lag_limit_ms");
  // The writer ends each read phase; this only bounds it.
  PhaseSpec read_spec{"", light, options.Param("read_limit_seconds"),
                      connections, 0, DeriveSeed(options.seed, 200), 25};
  RunPhase(PhaseSpec{"warmup", light, 0.5, connections, 0,
                     DeriveSeed(options.seed, 199), 0},
           requests, server.port, server.process.pid(), nullptr);
  SpanLog spans;
  if (options.trace) {
    // The read path's layers, measured before the first write while the
    // base generation still serves (the sampled bodies are checked
    // against it).
    const cpd::serve::QueryEngine engine(index, &graph);
    MeasureServingLayers(options, server, requests, engine,
                         options.Param("layer_seconds"), index_load_ms, &spans,
                         result);
  }

  uint64_t generation0 = 0;
  {
    auto health = HttpConnection::Connect(server.port);
    auto reply = health.ok() ? health->RoundTrip("GET", "/healthz")
                             : cpd::StatusOr<HttpReply>(health.status());
    auto json = reply.ok() ? cpd::Json::Parse(reply->body)
                           : cpd::StatusOr<cpd::Json>(reply.status());
    if (json.ok()) generation0 = static_cast<uint64_t>(FieldNumber(*json, "generation"));
    result->Check(generation0 > 0, "/healthz reports no serving generation");
  }
  read_spec.stream_offset = 1000;
  const IngestPhase plain =
      RunIngestPhase("light+writes", server.port, server.process.pid(), chain,
                     0, batches, generation0, requests, read_spec, nullptr);
  CheckReads(plain, lag_limit_ms, result);
  CheckWrites(plain.writes, result);
  const std::vector<double> fresh = FreshMs(plain.writes);
  const double tail_q = TailQuantile(fresh.size());
  std::printf("ingest: %zu batches, fresh p50 %.1f ms, p%g %.1f ms; reads p50 "
              "%.0f us p99 %.0f us\n",
              plain.writes.size(), Median(fresh), tail_q * 100,
              Percentile(fresh, tail_q), Percentile(plain.reads.latency_us, 0.5),
              Percentile(plain.reads.latency_us, 0.99));

  std::vector<WriteRecord> all_writes = plain.writes;
  std::vector<ReadSample> all_samples = plain.reads.samples;
  double fresh_p50_traced = 0.0;
  IngestPhase traced;
  if (options.trace) {
    spans.NameRow(kRowWriter, "writer: POST /admin/ingest + visibility read");
    read_spec.stream_offset = 500000;
    read_spec.seed = DeriveSeed(options.seed, 201);
    traced = RunIngestPhase("light+writes-traced", server.port,
                            server.process.pid(), chain, plain.writes.size(),
                            traced_batches, generation0 + plain.writes.size(),
                            requests, read_spec, &spans);
    CheckReads(traced, lag_limit_ms, result);
    CheckWrites(traced.writes, result);
    all_writes.insert(all_writes.end(), traced.writes.begin(), traced.writes.end());
    all_samples.insert(all_samples.end(), traced.reads.samples.begin(),
                       traced.reads.samples.end());
    const std::vector<double> f = FreshMs(traced.writes);
    fresh_p50_traced = Median(f);
  }
  const double peak_rss_mb = PeakRssMb(server.process.pid());
  const int code = server.process.Stop(30.0);
  result->Check(code == 0, "cpd_serve did not exit cleanly on SIGTERM");
  CheckReadsByGeneration(all_samples, all_writes, requests, chain, graph,
                         model_path, result);

  const double batches_per_s =
      plain.writes.empty()
          ? 0.0
          : static_cast<double>(fresh.size()) /
                (static_cast<double>(plain.writes.back().visible_us -
                                     plain.writes.front().sent_us) * 1e-6);
  result->Set("e2e.setup_s", Median(setup_s), "s");
  result->Set("e2e.peak_rss_mb", peak_rss_mb, "MB");
  result->Set("e2e.fresh_p50_ms", Median(fresh), "ms");
  result->Set("e2e.fresh_tail_ms", Percentile(fresh, tail_q), "ms");
  result->Set("e2e.fresh_tail_quantile", tail_q, "ratio");
  result->Set("e2e.read_p50_us.light", Percentile(plain.reads.latency_us, 0.5), "us");
  result->Set("e2e.read_p99_us.light", Percentile(plain.reads.latency_us, 0.99), "us");
  if (!options.trace) {
    result->Set("setup_s", Median(setup_s), "s");
    result->Set("throughput_per_s", batches_per_s, "1/s");
    result->Set("latency_p50_ms", Median(fresh), "ms");
    result->Set("latency_tail_ms", Percentile(fresh, tail_q), "ms");
    result->Set("peak_rss_mb", peak_rss_mb, "MB");
    return;
  }

  // In-process replay of the first batches through the layers the server
  // composes: IngestPipeline::Ingest, then ModelRegistry's delta swap,
  // configured exactly as cpd_serve configures them.
  const size_t replay_count = std::min<size_t>(
      static_cast<size_t>(options.Param("replay_batches")), chain.batches.size());
  auto trained = cpd::CpdModel::LoadBinary(model_path);
  if (!trained.ok()) {
    result->Fail("model load: " + trained.status().ToString());
    return;
  }
  const std::string replay_dir = run_dir + "/replay";
  fs::create_directories(replay_dir);
  fs::copy_file(model_path, replay_dir + "/model.cpdb");
  cpd::ingest::IngestOptions ingest_options;
  ingest_options.config = trained->config();
  ingest_options.config.num_communities = trained->num_communities();
  ingest_options.config.num_topics = trained->num_topics();
  ingest_options.config.num_threads = 1;
  ingest_options.artifact_base = replay_dir + "/model.cpdb";
  ingest_options.write_delta = true;
  ingest_options.base_generation = index.artifact_generation();
  auto base_graph = std::make_shared<const cpd::SocialGraph>(graph);
  auto pipeline =
      cpd::ingest::IngestPipeline::Create(base_graph, *trained, ingest_options);
  if (!pipeline.ok()) {
    result->Fail("pipeline: " + pipeline.status().ToString());
    return;
  }
  cpd::server::ModelRegistry registry(cpd::serve::ProfileIndexOptions{}, base_graph);
  if (!registry.LoadFrom(replay_dir + "/model.cpdb").ok()) {
    result->Fail("registry load failed");
    return;
  }
  std::vector<double> apply_ms, warm_ms, save_ms, touched, warm_rate, delta_b,
      artifact_b, swap_ms;
  size_t artifact_mismatches = 0;
  for (size_t b = 0; b < replay_count; ++b) {
    const int64_t t0 = NowUs();
    auto ingested = (*pipeline)->Ingest(chain.batches[b]);
    const int64_t t1 = NowUs();
    if (!ingested.ok()) {
      result->Fail("replayed ingest: " + ingested.status().ToString());
      return;
    }
    const int64_t parent = spans.Add("IngestPipeline::Ingest", kRowReplay, t0, t1);
    // The pipeline's own stage split, laid out inside the call.
    int64_t at = t0;
    for (const auto& [name, seconds] :
         {std::pair<const char*, double>{"ingest.apply", ingested->apply_seconds},
          {"ingest.warm", ingested->warm_seconds},
          {"ingest.save", ingested->save_seconds}}) {
      const int64_t len = static_cast<int64_t>(seconds * 1e6);
      spans.Add(name, kRowReplay, at, std::min(t1, at + len), parent);
      at += len;
    }
    registry.SetGraph((*pipeline)->graph());
    const int64_t s0 = NowUs();
    const cpd::Status swapped = registry.LoadDeltaFrom(ingested->delta_path);
    const int64_t s1 = NowUs();
    result->Check(swapped.ok(), "replayed delta swap: " + swapped.ToString());
    spans.Add("ModelRegistry::LoadDeltaFrom", kRowReplay, s0, s1);
    apply_ms.push_back(ingested->apply_seconds * 1e3);
    warm_ms.push_back(ingested->warm_seconds * 1e3);
    save_ms.push_back(ingested->save_seconds * 1e3);
    touched.push_back(static_cast<double>(ingested->touched_tokens));
    warm_rate.push_back(static_cast<double>(ingested->touched_tokens) *
                        ingest_options.config.gibbs_sweeps_per_em *
                        ingest_options.warm_iterations /
                        std::max(1e-9, ingested->warm_seconds));
    delta_b.push_back(static_cast<double>(ingested->delta_bytes));
    artifact_b.push_back(static_cast<double>(ingested->artifact_bytes));
    swap_ms.push_back(static_cast<double>(s1 - s0) * 1e-3);
    if (ReadWholeFile(ingested->artifact_path) !=
        ReadWholeFile(model_path + ".g" + std::to_string(b + 1) + ".cpdb")) {
      ++artifact_mismatches;
    }
  }
  result->Check(artifact_mismatches == 0,
                std::to_string(artifact_mismatches) +
                    " replayed ingest artifacts differ from the server's");

  const double swap_p50 = Median(swap_ms);
  std::vector<double> overhead;
  double covered = 0.0;
  double total = 0.0;
  for (const WriteRecord& w : traced.writes) {
    if (!w.ok) continue;
    const double fresh_ms = static_cast<double>(w.visible_us - w.sent_us) * 1e-3;
    const double read_ms = static_cast<double>(w.visible_us - w.read_sent_us) * 1e-3;
    overhead.push_back(fresh_ms - w.pipeline_s * 1e3 - swap_p50);
    covered += w.pipeline_s * 1e3 + swap_p50 + read_ms;
    total += fresh_ms;
  }
  size_t via_delta = 0;
  for (const WriteRecord& w : all_writes) via_delta += w.via_delta ? 1 : 0;
  result->Set("ingest.apply_ms", Median(apply_ms), "ms");
  result->Set("ingest.warm_ms", Median(warm_ms), "ms");
  result->Set("ingest.save_ms", Median(save_ms), "ms");
  result->Set("ingest.touched_tokens", Median(touched), "count");
  result->Set("ingest.warm_tokens_per_s", Median(warm_rate), "tok/s");
  result->Set("core.delta_bytes", Median(delta_b), "B");
  result->Set("core.artifact_bytes", Median(artifact_b), "B");
  result->Set("server.registry_swap_ms", swap_p50, "ms");
  result->Set("server.delta_swap_ratio",
              static_cast<double>(via_delta) /
                  static_cast<double>(std::max<size_t>(1, all_writes.size())),
              "ratio");
  result->Set("server.ingest_overhead_ms", Median(overhead), "ms");
  result->Set("trace.coverage", total > 0 ? covered / total : 0.0, "ratio");
  result->Set("trace.overhead", fresh_p50_traced / Median(fresh) - 1.0, "ratio");
  WriteTrace(spans, options, result);
}

}  // namespace

void RunIngest(const RunOptions& options, Result* result) {
  const GraphFixture fixture = WorkloadGraph(options);
  auto graph = LoadGraph(fixture);
  if (!graph.ok()) {
    result->Fail("graph load: " + graph.status().ToString());
    return;
  }
  // The server writes ingest artifacts next to its model, so each run
  // serves a private copy of the fixture artifact.
  const std::string fixture_model =
      ModelPathFor(fixture, ServeModelConfig(options));
  const std::string run_dir =
      (fs::path(options.work_dir) /
       ("run-" + options.workload + "-" + std::to_string(::getpid())))
          .string();
  fs::remove_all(run_dir);
  fs::create_directories(run_dir);
  const std::string model_path = run_dir + "/model.cpdb";
  std::error_code copy_error;
  fs::copy_file(fixture_model, model_path, copy_error);
  if (copy_error) {
    result->Fail("model fixture missing: " + fixture_model);
    return;
  }
  const int connections =
      std::min(static_cast<int>(options.Param("connections")), CpuCount());

  // The in-process reference for the output checks (and the index-load
  // layer metric): the artifact through ProfileIndex's default options.
  const int64_t load_start = NowUs();
  auto index = cpd::serve::ProfileIndex::LoadFromFile(model_path);
  const double index_load_ms = static_cast<double>(NowUs() - load_start) * 1e-3;
  if (!index.ok()) {
    result->Fail("index load: " + index.status().ToString());
    return;
  }
  const std::vector<Request> requests = BuildRequests(
      *graph, *index, static_cast<size_t>(options.Param("stream_requests")),
      DeriveSeed(options.seed, 4));
  std::printf("%s: %zu users, %zu documents, %zu requests in the stream, "
              "%d connections\n",
              options.workload.c_str(), graph->num_users(),
              graph->num_documents(), requests.size(), connections);

  MeasureIngest(options, *graph, fixture, model_path, run_dir, requests,
                *index, index_load_ms, connections, result);
  std::error_code ignored;
  fs::remove_all(run_dir, ignored);
}

}  // namespace cpdbench
