// The read path of the `ingest` workload: the built cpd_serve binary as a
// child process, the seeded request stream, the open-loop generator that
// drives it over loopback, /metricsz scraping, and the serving-layer
// measurements of a traced run.
//
// The server gets operator flags only: the artifact, the training-graph
// TSV files (diffusion queries and ingest need them), a port, --log_level
// warning and --emit_delta 1. Everything else is its default.

#include "serve_internal.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <sstream>

#include "server/json_api.h"
#include "util/rng.h"

namespace cpdbench {

namespace fs = std::filesystem;

cpd::CpdConfig ServeModelConfig(const RunOptions& options) {
  cpd::CpdConfig config;
  config.num_communities = static_cast<int>(options.Param("communities"));
  config.num_topics = static_cast<int>(options.Param("topics"));
  config.num_threads = static_cast<int>(options.Param("train_threads"));
  config.seed = DeriveSeed(options.seed, 3);
  return config;
}

cpd::Status PrepareWorkload(const RunOptions& options) {
  GraphFixture fixture = WorkloadGraph(options);
  CPD_RETURN_IF_ERROR(PrepareGraph(&fixture, options.Param("scale"),
                                   DeriveSeed(options.seed, 1)));
  if (options.workload == "ingest") {
    CPD_RETURN_IF_ERROR(PrepareModel(fixture, ServeModelConfig(options)));
  }
  return cpd::Status::OK();
}

// ---------------------------------------------------------------- requests

std::vector<Request> BuildRequests(const cpd::SocialGraph& graph,
                                   const cpd::serve::ProfileIndex& index,
                                   size_t count, uint64_t seed) {
  cpd::Rng rng(seed);
  const auto& links = graph.diffusion_links();
  const auto one = [&]() {
    // bench_server_load's mix: 55% membership, 25% rank, 10% diffusion,
    // 10% top_users.
    const double pick = rng.NextDouble();
    cpd::serve::QueryRequest request;
    if (pick < 0.55) {
      cpd::serve::MembershipRequest membership;
      membership.user = static_cast<cpd::UserId>(rng.NextUint64(graph.num_users()));
      membership.top_k = 5;
      request = membership;
    } else if (pick < 0.80) {
      cpd::serve::RankCommunitiesRequest rank;
      const size_t terms = 1 + rng.NextUint64(2);
      for (size_t t = 0; t < terms; ++t) {
        rank.words.push_back(
            static_cast<cpd::WordId>(rng.NextUint64(index.vocab_size())));
      }
      rank.top_k = 5;
      request = rank;
    } else if (pick < 0.90 && !links.empty()) {
      const cpd::DiffusionLink& link = links[rng.NextUint64(links.size())];
      cpd::serve::DiffusionRequest diffusion;
      diffusion.source = graph.document(link.i).user;
      diffusion.target = graph.document(link.j).user;
      diffusion.document = link.j;
      diffusion.time_bin = link.time;
      request = diffusion;
    } else {
      cpd::serve::TopUsersRequest top_users;
      top_users.community = static_cast<int>(
          rng.NextUint64(static_cast<uint64_t>(index.num_communities())));
      top_users.top_k = 10;
      request = top_users;
    }
    return request;
  };
  std::vector<Request> requests(count);
  for (size_t i = 0; i < count; ++i) {
    Request& r = requests[i];
    // One request in twenty is a client batch of sixteen.
    const size_t parts = rng.NextUint64(20) == 0 ? kBatchSize : 1;
    for (size_t p = 0; p < parts; ++p) r.parts.push_back(one());
    if (parts == 1) {
      r.body = cpd::server::QueryRequestToJson(r.parts[0]).Dump();
    } else {
      cpd::Json batch = cpd::Json::MakeArray();
      for (const auto& part : r.parts) {
        batch.Append(cpd::server::QueryRequestToJson(part));
      }
      cpd::Json body = cpd::Json::MakeObject();
      body.Set("batch", std::move(batch));
      r.body = body.Dump();
    }
  }
  return requests;
}

std::string ExpectedBody(const Request& request,
                         const cpd::serve::QueryEngine& engine) {
  const auto render = [&engine](const cpd::serve::QueryRequest& part) {
    auto response = engine.Query(part);
    return response.ok() ? cpd::server::QueryResponseToJson(*response)
                         : cpd::server::StatusToJson(response.status());
  };
  if (request.parts.size() == 1) return render(request.parts[0]).Dump();
  cpd::Json responses = cpd::Json::MakeArray();
  for (const auto& part : request.parts) responses.Append(render(part));
  cpd::Json out = cpd::Json::MakeObject();
  out.Set("responses", std::move(responses));
  return out.Dump();
}

// --------------------------------------------------------------- generator

namespace {

double SelfCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

int ConnectNonBlocking(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Writes all of `data` to a non-blocking socket (requests are small, so
/// this almost never waits).
bool SendAll(int fd, const std::string& data) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::send(fd, data.data() + written, data.size() - written,
                             MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<size_t>(n);
    } else if (n < 0 && errno == EAGAIN) {
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, 100);
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

PhaseStats RunPhase(const PhaseSpec& spec, const std::vector<Request>& requests,
                    int port, pid_t server_pid, SpanLog* spans) {
  PhaseStats stats;
  stats.label = spec.label;
  // Poisson arrivals at `rate`, due times fixed before the first send.
  cpd::Rng rng(spec.seed);
  const int64_t start_us = spec.start_us > 0 ? spec.start_us : NowUs() + 20000;
  std::vector<int64_t> due;
  double t = 0.0;
  while (true) {
    t += -std::log(rng.NextDoubleOpen()) / spec.rate;
    if (t >= spec.seconds) break;
    due.push_back(start_us + static_cast<int64_t>(t * 1e6));
  }
  size_t n = due.size();
  int64_t end_due_us = start_us + static_cast<int64_t>(spec.seconds * 1e6);

  // One thread drives the whole pool through epoll; a timerfd wakes it at
  // the next due time. Each connection carries one request at a time.
  struct Connection {
    int fd = -1;
    bool busy = false;
    size_t index = 0;        ///< Request in flight.
    int64_t free_since = 0;  ///< When the previous response completed.
    int64_t sent_us = 0;
    std::string request_id;
    std::string in;
  };
  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  const int timer_fd = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  epoll_event timer_event{};
  timer_event.events = EPOLLIN;
  timer_event.data.u64 = UINT64_MAX;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, timer_fd, &timer_event);
  std::vector<Connection> pool(static_cast<size_t>(spec.connections));
  std::vector<size_t> free_list;
  const auto open = [&](size_t c) {
    pool[c].fd = ConnectNonBlocking(port);
    pool[c].in.clear();
    if (pool[c].fd < 0) return false;
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = c;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, pool[c].fd, &event);
    return true;
  };
  const auto close_connection = [&](size_t c) {
    if (pool[c].fd >= 0) ::close(pool[c].fd);
    pool[c].fd = -1;
  };
  for (size_t c = 0; c < pool.size(); ++c) {
    if (open(c)) free_list.push_back(c);
  }

  const double cpu0 = SelfCpuSeconds();
  const double server_cpu0 = ProcessCpuSeconds(server_pid);
  size_t next = 0;
  size_t finished = 0;
  int64_t last_done = start_us;
  epoll_event events[64];
  int64_t give_up_us = (n > 0 ? due.back() : start_us) + 30000000;
  while (finished < n) {
    int64_t now = NowUs();
    if (spec.stop != nullptr && !stats.stopped &&
        spec.stop->load(std::memory_order_acquire)) {
      // Requests not yet sent are never due; those in flight still count.
      stats.stopped = true;
      n = next;
      end_due_us = now;
      give_up_us = std::min(give_up_us, now + 30000000);
      continue;
    }
    if (now > give_up_us) {
      // The server stopped answering: whatever is still owed has failed.
      stats.failed += static_cast<int64_t>(n - finished);
      break;
    }
    while (next < n && due[next] <= now && !free_list.empty()) {
      const size_t c = free_list.back();
      free_list.pop_back();
      Connection& conn = pool[c];
      if (conn.fd < 0 && !open(c)) {
        ++stats.failed;
        ++finished;
        ++next;
        free_list.push_back(c);
        continue;
      }
      const size_t index = next++;
      const Request& request = requests[(spec.stream_offset + index) % requests.size()];
      conn.request_id = spans != nullptr ? spec.label + "-" + std::to_string(index) : "";
      conn.index = index;
      conn.busy = true;
      conn.sent_us = NowUs();
      const int64_t ready = std::max(due[index], conn.free_since);
      stats.lag_us.push_back(static_cast<double>(conn.sent_us - ready));
      if (!SendAll(conn.fd, FormatRequest("POST", "/v1/query", request.body,
                                          conn.request_id))) {
        close_connection(c);
        conn.busy = false;
        ++stats.failed;
        ++finished;
        free_list.push_back(c);
      }
      now = NowUs();
    }
    itimerspec timer{};
    if (next < n && !free_list.empty()) {
      timer.it_value.tv_sec = static_cast<time_t>(due[next] / 1000000);
      timer.it_value.tv_nsec = static_cast<long>((due[next] % 1000000) * 1000);
    }
    ::timerfd_settime(timer_fd, TFD_TIMER_ABSTIME, &timer, nullptr);
    const int ready = ::epoll_wait(epoll_fd, events, 64, 1000);
    for (int e = 0; e < ready; ++e) {
      if (events[e].data.u64 == UINT64_MAX) {
        uint64_t expirations = 0;
        while (::read(timer_fd, &expirations, sizeof(expirations)) > 0) {
        }
        continue;
      }
      const size_t c = static_cast<size_t>(events[e].data.u64);
      Connection& conn = pool[c];
      if (conn.fd < 0) continue;
      char chunk[65536];
      bool closed = false;
      while (true) {
        const ssize_t got = ::recv(conn.fd, chunk, sizeof(chunk), 0);
        if (got > 0) {
          conn.in.append(chunk, static_cast<size_t>(got));
          continue;
        }
        closed = got == 0 || (errno != EAGAIN && errno != EINTR);
        break;
      }
      const int64_t done_us = NowUs();
      HttpReply reply;
      bool close_after = false;
      const ParseOutcome outcome = conn.busy
                                       ? TakeResponse(&conn.in, &reply, &close_after)
                                       : ParseOutcome::kIncomplete;
      bool released = false;
      if (outcome == ParseOutcome::kComplete) {
        released = true;
        conn.busy = false;
        conn.free_since = done_us;
        last_done = std::max(last_done, done_us);
        ++finished;
        const size_t index = conn.index;
        if (reply.status != 200 ||
            (!conn.request_id.empty() && reply.request_id != conn.request_id)) {
          ++stats.failed;
        } else {
          stats.latency_us.push_back(static_cast<double>(done_us - due[index]));
          if (spans != nullptr) {
            const int tid = 100 + static_cast<int>(c);
            cpd::Json args = cpd::Json::MakeObject();
            args.Set("request_id", cpd::Json(conn.request_id));
            const int64_t parent = spans->Add("client.request", tid, due[index],
                                              done_us, SpanLog::kNoParent, args);
            spans->Add("gen.wait", tid, due[index], conn.sent_us, parent);
            spans->Add("http.round_trip", tid, conn.sent_us, done_us, parent);
          }
          if (spec.sample_every > 0 && index % spec.sample_every == 0) {
            stats.samples.push_back(ReadSample{
                (spec.stream_offset + index) % requests.size(),
                std::move(reply.body), conn.sent_us, done_us});
          }
        }
      } else if (outcome == ParseOutcome::kMalformed || closed) {
        if (conn.busy) {
          released = true;
          conn.busy = false;
          ++stats.failed;
          ++finished;
        }
        closed = true;
      }
      if (closed || close_after) close_connection(c);
      if (released) free_list.push_back(c);
    }
  }
  for (size_t c = 0; c < pool.size(); ++c) close_connection(c);
  ::close(timer_fd);
  ::close(epoll_fd);

  const int64_t end_us = NowUs();
  stats.attempted = static_cast<int64_t>(n);
  stats.wall_s = static_cast<double>(end_us - start_us) * 1e-6;
  stats.gen_cpu_s = SelfCpuSeconds() - cpu0;
  stats.server_cpu_s = ProcessCpuSeconds(server_pid) - server_cpu0;
  stats.completed = static_cast<int64_t>(stats.latency_us.size());
  const double span_s = static_cast<double>(last_done - start_us) * 1e-6;
  stats.achieved_rps =
      span_s > 0 ? static_cast<double>(stats.completed) / span_s : 0.0;
  stats.offered_rps = static_cast<double>(n) /
                      std::max(1e-6, static_cast<double>(end_due_us - start_us) * 1e-6);
  return stats;
}

// ------------------------------------------------------------------ scrape

cpd::StatusOr<Scrape> ScrapeMetrics(HttpConnection* connection) {
  auto reply = connection->RoundTrip("GET", "/metricsz");
  if (!reply.ok()) return reply.status();
  if (reply->status != 200) return cpd::Status::Internal("metricsz status");
  Scrape scrape;
  std::istringstream lines(reply->body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t brace = line.find('{');
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const double value = std::strtod(line.c_str() + space + 1, nullptr);
    std::string name = line.substr(0, brace == std::string::npos ? space : brace);
    std::string labels;
    if (brace != std::string::npos) {
      labels = line.substr(brace + 1, line.rfind('}') - brace - 1);
    }
    const auto strip_suffix = [&name](const std::string& suffix) {
      if (name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
        name.resize(name.size() - suffix.size());
        return true;
      }
      return false;
    };
    if (strip_suffix("_bucket")) {
      const size_t le = labels.find("le=\"");
      if (le != std::string::npos) {
        labels.erase(le > 0 && labels[le - 1] == ',' ? le - 1 : le);
      }
      scrape.buckets[name + "{" + labels + "}"].push_back(value);
    } else if (strip_suffix("_sum")) {
      scrape.sums[name + "{" + labels + "}"] = value;
    }
  }
  return scrape;
}

cpd::obs::Histogram::Snapshot DeltaHistogram(const Scrape& before,
                                             const Scrape& after,
                                             const std::string& family,
                                             const std::string& label_filter) {
  cpd::obs::Histogram::Snapshot snap;
  for (const auto& [key, cumulative] : after.buckets) {
    if (key.rfind(family + "{", 0) != 0) continue;
    if (key.find(label_filter) == std::string::npos) continue;
    const auto prior = before.buckets.find(key);
    if (snap.buckets.empty()) snap.buckets.assign(cumulative.size(), 0);
    uint64_t prev = 0;
    for (size_t i = 0; i < cumulative.size() && i < snap.buckets.size(); ++i) {
      const double base = prior != before.buckets.end() && i < prior->second.size()
                              ? prior->second[i]
                              : 0.0;
      const uint64_t c = static_cast<uint64_t>(cumulative[i] - base);
      snap.buckets[i] += c - prev;
      prev = c;
    }
    snap.count += prev;
    const auto sum_after = after.sums.find(key);
    const auto sum_before = before.sums.find(key);
    snap.sum += (sum_after != after.sums.end() ? sum_after->second : 0.0) -
                (sum_before != before.sums.end() ? sum_before->second : 0.0);
  }
  return snap;
}

// ------------------------------------------------------------------ server

cpd::StatusOr<ServerHandle> StartServer(const ServerSpec& spec) {
  ServerHandle handle;
  handle.port = FreeLoopbackPort();
  std::vector<std::string> argv = {
      spec.binary,     "--model",     spec.model,
      "--port",        std::to_string(handle.port),
      "--log_level",   "warning",
      "--users",       std::to_string(spec.graph.num_users),
      "--docs",        spec.graph.docs,
      "--friends",     spec.graph.friends,
      "--diffusion",   spec.graph.diffusion,
      "--emit_delta",  "1"};
  const int64_t start = NowUs();
  auto child = ChildProcess::Spawn(argv, spec.log_path);
  if (!child.ok()) return child.status();
  handle.process = std::move(*child);
  const double deadline = NowSeconds() + 120.0;
  while (true) {
    if (!handle.process.Running()) {
      return cpd::Status::Internal("cpd_serve exited during start-up; see " +
                                   spec.log_path);
    }
    auto connection = HttpConnection::Connect(handle.port);
    if (connection.ok()) {
      auto reply = connection->RoundTrip("GET", "/healthz");
      if (reply.ok() && reply->status == 200) break;
    }
    if (NowSeconds() > deadline) {
      return cpd::Status::DeadlineExceeded("cpd_serve never became healthy");
    }
    ::usleep(2000);
  }
  handle.startup_s = static_cast<double>(NowUs() - start) * 1e-6;
  return handle;
}

cpd::StatusOr<ServerHandle> StartServerRepeatedly(
    const ServerSpec& spec, int repeats, std::vector<double>* startup_s) {
  ServerHandle server;
  for (int r = 0; r < repeats; ++r) {
    if (server.process.pid() > 0) server.process.Stop(30.0);
    auto started = StartServer(spec);
    if (!started.ok()) return started.status();
    server = std::move(*started);
    startup_s->push_back(server.startup_s);
  }
  return server;
}

// -------------------------------------------------------------- the runs

namespace {

constexpr int kRowBench = 0;

/// Checks the sampled response bodies against the in-process engine of
/// the one generation that served them.
void CheckSamples(const std::vector<ReadSample>& samples,
                  const std::vector<Request>& requests,
                  const cpd::serve::QueryEngine& engine, Result* result) {
  size_t mismatches = 0;
  for (const ReadSample& sample : samples) {
    if (sample.body != ExpectedBody(requests[sample.request], engine)) {
      ++mismatches;
    }
  }
  result->Check(mismatches == 0,
                std::to_string(mismatches) + " of " +
                    std::to_string(samples.size()) +
                    " sampled response bodies differ from the in-process "
                    "QueryEngine");
}

}  // namespace

void ReportPhase(const PhaseStats& phase) {
  std::printf("phase %-20s offered %7.0f/s achieved %7.0f/s n=%lld failed=%lld "
              "p50 %.0f p90 %.0f p99 %.0f us, lag p50 %.0f p99 %.0f us, cpu share: "
              "generator %.3f server %.3f (%.1f us/request)\n",
              phase.label.c_str(), phase.offered_rps, phase.achieved_rps,
              static_cast<long long>(phase.completed),
              static_cast<long long>(phase.failed),
              Percentile(phase.latency_us, 0.5), Percentile(phase.latency_us, 0.9),
              Percentile(phase.latency_us, 0.99), Percentile(phase.lag_us, 0.5),
              Percentile(phase.lag_us, 0.99),
              phase.gen_cpu_s / phase.wall_s / CpuCount(),
              phase.server_cpu_s / phase.wall_s / CpuCount(),
              phase.server_cpu_s * 1e6 / std::max<int64_t>(1, phase.completed));
}

void CheckGenerator(const PhaseStats& phase, double lag_limit_ms,
                    Result* result) {
  const double lag_p99_ms = Percentile(phase.lag_us, 0.99) * 1e-3;
  result->Check(lag_p99_ms <= lag_limit_ms,
                "generator fell behind in phase " + phase.label + ": lag p99 " +
                    std::to_string(lag_p99_ms) + " ms; the run is invalid");
}

void MeasureServingLayers(const RunOptions& options, const ServerHandle& server,
                          const std::vector<Request>& requests,
                          const cpd::serve::QueryEngine& engine, double seconds,
                          double index_load_ms, SpanLog* spans, Result* result) {
  const int connections =
      std::min(static_cast<int>(options.Param("connections")), CpuCount());
  spans->NameRow(kRowBench, "bench: in-process calls");
  for (int c = 0; c < connections; ++c) {
    spans->NameRow(100 + c, "client connection " + std::to_string(c));
  }
  auto probe = HttpConnection::Connect(server.port);
  if (!probe.ok()) {
    result->Fail("cannot connect to cpd_serve");
    return;
  }
  std::vector<double> health_us;
  for (int i = 0; i < 300; ++i) {
    auto reply = probe->RoundTrip("GET", "/healthz");
    if (reply.ok()) health_us.push_back(static_cast<double>(reply->done_us - reply->sent_us));
  }
  uint64_t offset = 700000;
  const auto scrape = [&](Scrape* into) {
    auto scraped = ScrapeMetrics(&*probe);
    result->Check(scraped.ok(), "GET /metricsz failed");
    if (scraped.ok()) *into = std::move(*scraped);
  };
  const auto traced_phase = [&](const std::string& label, double rate,
                                Scrape* before, Scrape* after) {
    const PhaseSpec spec{label, rate, seconds, connections, offset,
                         DeriveSeed(options.seed, 300 + offset), 50};
    offset += static_cast<uint64_t>(rate * seconds * 1.5) + 1;
    scrape(before);
    PhaseStats phase = RunPhase(spec, requests, server.port,
                                server.process.pid(), spans);
    scrape(after);
    ReportPhase(phase);
    result->AddAttempted(phase.attempted);
    result->AddFailed(phase.failed);
    result->Check(phase.failed == 0, "reads failed in phase " + label);
    CheckSamples(phase.samples, requests, engine, result);
    CheckGenerator(phase, options.Param("lag_limit_ms"), result);
    return phase;
  };
  Scrape s0, s1, s2, s3;
  const PhaseStats light = traced_phase("light-traced", options.Param("light_rps"), &s0, &s1);
  const PhaseStats busy = traced_phase("busy-traced", options.Param("busy_rps"), &s2, &s3);
  const auto stage = [](const Scrape& a, const Scrape& b, const char* family,
                        const char* filter, double q) {
    return DeltaHistogram(a, b, family, filter).Percentile(q);
  };
  result->Set("server.healthz_p50_us", Percentile(health_us, 0.5), "us");
  result->Set("server.parse_p50_us", stage(s0, s1, "cpd_query_stage_us", "stage=\"parse\"", 0.5), "us");
  result->Set("server.serialize_p50_us", stage(s0, s1, "cpd_query_stage_us", "stage=\"serialize\"", 0.5), "us");
  result->Set("server.write_p50_us", stage(s0, s1, "cpd_request_stage_us", "stage=\"write\"", 0.5), "us");
  result->Set("server.queue_wait_p50_us", stage(s2, s3, "cpd_request_stage_us", "stage=\"queue_wait\"", 0.5), "us");
  result->Set("server.queue_wait_p99_us", stage(s2, s3, "cpd_request_stage_us", "stage=\"queue_wait\"", 0.99), "us");
  result->Set("server.cpu_us_per_req",
              busy.server_cpu_s * 1e6 / std::max<int64_t>(1, busy.completed), "us");
  result->Set("server.cpu_share", busy.server_cpu_s / busy.wall_s / CpuCount(), "ratio");
  result->Set("gen.cpu_share", busy.gen_cpu_s / busy.wall_s / CpuCount(), "ratio");
  result->Set("gen.lag_p99_ms", Percentile(busy.lag_us, 0.99) * 1e-3, "ms");

  // Light-rate coverage: generator lag plus every server-side stage
  // histogram sum, against the summed client latency.
  double covered_us = 0.0;
  for (const double lag : light.lag_us) covered_us += lag;
  for (const char* filter : {"stage=\"parse\"", "stage=\"scoring\"", "stage=\"serialize\""}) {
    covered_us += DeltaHistogram(s0, s1, "cpd_query_stage_us", filter).sum;
  }
  for (const char* filter : {"stage=\"queue_wait\"", "stage=\"write\""}) {
    covered_us += DeltaHistogram(s0, s1, "cpd_request_stage_us", filter).sum;
  }
  double client_us = 0.0;
  for (const double l : light.latency_us) client_us += l;
  result->Set("trace.read_coverage", client_us > 0 ? covered_us / client_us : 0.0,
              "ratio");
  ReplayServingLayers(requests, engine, index_load_ms, spans, result);
}

void ReplayServingLayers(const std::vector<Request>& requests,
                         const cpd::serve::QueryEngine& engine,
                         double index_load_ms, SpanLog* spans, Result* result) {
  constexpr size_t kReplays = 20000;
  constexpr size_t kTracedReplays = 500;
  std::vector<double> decode_us, encode_us, scoring_us;
  std::vector<double> per_type[cpd::server::ServiceStats::kNumQueryTypes];
  size_t replayed = 0;
  for (size_t i = 0; i < requests.size() && replayed < kReplays; ++i) {
    const Request& request = requests[i];
    if (request.parts.size() != 1) continue;
    ++replayed;
    SpanLog* log = replayed <= kTracedReplays ? spans : nullptr;
    ScopedSpan parent_span(log, "replay.request", kRowBench);
    // Nanosecond stamps: scoring takes well under a microsecond.
    const int64_t t0 = NowNs();
    auto json = cpd::Json::Parse(request.body);
    auto decoded = cpd::server::QueryRequestFromJson(*json, nullptr);
    const int64_t t1 = NowNs();
    auto response = engine.Query(*decoded);
    const int64_t t2 = NowNs();
    const std::string body = cpd::server::QueryResponseToJson(*response).Dump();
    const int64_t t3 = NowNs();
    if (log != nullptr) {
      const int64_t parent = parent_span.End();
      log->Add("server::QueryRequestFromJson", kRowBench, t0 / 1000, t1 / 1000, parent);
      log->Add("QueryEngine::Query", kRowBench, t1 / 1000, t2 / 1000, parent);
      log->Add("server::QueryResponseToJson", kRowBench, t2 / 1000, t3 / 1000, parent);
    }
    decode_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    scoring_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
    encode_us.push_back(static_cast<double>(t3 - t2) * 1e-3);
    per_type[decoded->index()].push_back(static_cast<double>(t2 - t1) * 1e-3);
    result->Check(!body.empty(), "empty in-process response");
  }
  result->Set("serve.index_load_ms", index_load_ms, "ms");
  result->Set("server.json_decode_p50_us", Percentile(decode_us, 0.5), "us");
  result->Set("server.json_encode_p50_us", Percentile(encode_us, 0.5), "us");
  result->Set("serve.scoring_p50_us", Percentile(scoring_us, 0.5), "us");
  result->Set("serve.scoring_p99_us", Percentile(scoring_us, 0.99), "us");
  for (size_t t = 0; t < cpd::server::ServiceStats::kNumQueryTypes; ++t) {
    result->Set(std::string("serve.query_p50_us.") +
                    cpd::server::ServiceStats::kQueryTypeNames[t],
                Percentile(per_type[t], 0.5), "us");
  }
}

}  // namespace cpdbench
