// The distributed E-step coordinator (src/dist/distributed_executor.h):
// bit-identity against the serial executor for the same seed and shard
// count — including under worker death and hangs mid-sweep, where the
// coordinator re-dispatches the shard's original RNG stream to a survivor —
// plus clean failure when every worker is lost, handshake rejection, a
// real-process end-to-end run via spawned cpd_worker binaries, and the
// cpd_train distributed-flag validation.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/diffusion_features.h"
#include "core/em_trainer.h"
#include "dist/distributed_executor.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "dist/worker.h"
#include "test_util.h"
#include "util/file_util.h"

namespace cpd {
namespace {

CpdConfig BaseConfig() {
  CpdConfig config;
  config.num_communities = 4;
  config.num_topics = 6;
  config.em_iterations = 6;
  config.gibbs_sweeps_per_em = 2;
  config.nu_iterations = 30;
  config.seed = 9;
  return config;
}

// The shard stat totals (collapse memo, MH acceptance) travel back with
// each shard result; they must sum to the serial run's. Dense runs report
// zeros, so equality is the assertion, not positivity.
void ExpectSameShardStats(EmTrainer& a, EmTrainer& b) {
  EXPECT_EQ(a.stats().eta_collapse_hits, b.stats().eta_collapse_hits);
  EXPECT_EQ(a.stats().eta_collapse_misses, b.stats().eta_collapse_misses);
  const MhStats& mh_a = a.stats().mh;
  const MhStats& mh_b = b.stats().mh;
  EXPECT_EQ(mh_a.topic_proposals, mh_b.topic_proposals);
  EXPECT_EQ(mh_a.topic_accepts, mh_b.topic_accepts);
  EXPECT_EQ(mh_a.community_proposals, mh_b.community_proposals);
  EXPECT_EQ(mh_a.community_accepts, mh_b.community_accepts);
}

void ExpectSameModel(const ModelState& a, const ModelState& b) {
  EXPECT_EQ(a.doc_topic, b.doc_topic);
  EXPECT_EQ(a.doc_community, b.doc_community);
  EXPECT_EQ(a.n_uc, b.n_uc);
  EXPECT_EQ(a.n_u, b.n_u);
  EXPECT_EQ(a.n_cz, b.n_cz);
  EXPECT_EQ(a.n_c, b.n_c);
  EXPECT_EQ(a.n_zw, b.n_zw);
  EXPECT_EQ(a.n_z, b.n_z);
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.delta, b.delta);
  EXPECT_EQ(a.eta, b.eta);
  EXPECT_EQ(a.weights, b.weights);
}

/// Joins the in-process worker threads on scope exit. Declared before the
/// trainer in every test so it joins only after the trainer (and thus the
/// coordinator, whose destructor drains the sockets) is gone.
struct WorkerFleet {
  std::vector<std::thread> threads;
  ~WorkerFleet() {
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
  }
};

/// ExecutorFactory building a DistributedExecutor over AF_UNIX socketpairs,
/// one in-process ServeWorker thread per entry in `hooks`.
EmTrainer::ExecutorFactory SocketpairFactory(
    WorkerFleet* fleet, std::vector<dist::WorkerHooks> hooks,
    int sweep_deadline_ms = 30000) {
  return [fleet, hooks = std::move(hooks), sweep_deadline_ms](
             const SocialGraph& graph, const CpdConfig& config,
             const LinkCaches& caches,
             ThreadPlan plan) -> StatusOr<std::unique_ptr<ShardExecutor>> {
    dist::DistributedOptions options;
    options.sweep_deadline_ms = sweep_deadline_ms;
    for (const dist::WorkerHooks& hook : hooks) {
      int fds[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        return Status::Unavailable("socketpair failed");
      }
      options.connected_fds.push_back(fds[0]);
      fleet->threads.emplace_back(
          [fd = fds[1], hook] { (void)dist::ServeWorker(fd, hook); });
    }
    return dist::MakeDistributedExecutor(graph, config, caches,
                                         std::move(plan), std::move(options));
  };
}

/// Trains the same tiny graph serially and distributed (over `hooks.size()`
/// in-process workers) with identical seed + shard count, asserting
/// bit-identical final models. Returns the distributed run's stats.
TrainStats ExpectDistributedMatchesSerial(int num_shards, SamplerMode mode,
                                          std::vector<dist::WorkerHooks> hooks,
                                          int sweep_deadline_ms = 30000) {
  const SynthResult data = testing::MakeTinyGraph(42);

  CpdConfig serial_config = BaseConfig();
  serial_config.sampler_mode = mode;
  serial_config.num_shards = num_shards;
  serial_config.executor_mode = ExecutorMode::kSerial;
  EmTrainer serial(data.graph, serial_config);
  EXPECT_TRUE(serial.Train().ok());

  WorkerFleet fleet;
  TrainStats dist_stats;
  {
    EmTrainer dist(data.graph, serial_config);
    dist.SetExecutorFactoryForTest(
        SocketpairFactory(&fleet, std::move(hooks), sweep_deadline_ms));
    const Status status = dist.Train();
    EXPECT_TRUE(status.ok()) << status.ToString();
    if (status.ok()) {
      ExpectSameModel(serial.state(), dist.state());
      ExpectSameShardStats(serial, dist);
      for (size_t i = 0; i < serial.stats().link_log_likelihood.size(); ++i) {
        EXPECT_DOUBLE_EQ(serial.stats().link_log_likelihood[i],
                         dist.stats().link_log_likelihood[i]);
      }
    }
    dist_stats = dist.stats();
  }
  return dist_stats;
}

TEST(DistributedExecutorTest, BitIdenticalToSerialTwoWorkersThreeShards) {
  const TrainStats stats = ExpectDistributedMatchesSerial(
      3, SamplerMode::kSparse, std::vector<dist::WorkerHooks>(2));
  EXPECT_EQ(stats.dist_workers_connected, 2);
  EXPECT_EQ(stats.dist_workers_lost, 0);
  EXPECT_EQ(stats.dist_shards_redispatched, 0);
  EXPECT_GT(stats.dist_bytes_out, 0u);
  EXPECT_GT(stats.dist_bytes_in, 0u);
}

TEST(DistributedExecutorTest, BitIdenticalToSerialSingleWorkerFourShards) {
  ExpectDistributedMatchesSerial(4, SamplerMode::kSparse,
                                 std::vector<dist::WorkerHooks>(1));
}

TEST(DistributedExecutorTest, BitIdenticalToSerialDenseSampler) {
  ExpectDistributedMatchesSerial(3, SamplerMode::kDense,
                                 std::vector<dist::WorkerHooks>(2));
}

// A worker dies (closes its socket) mid-sweep after finishing one shard;
// the coordinator re-dispatches its pending shards — with their original
// RNG stream states — to the survivor, and the final model stays
// bit-identical to serial.
TEST(DistributedExecutorTest, WorkerDeathMidSweepIsBitIdentical) {
  std::vector<dist::WorkerHooks> hooks(2);
  hooks[1].fail_after_shards = 1;
  const TrainStats stats =
      ExpectDistributedMatchesSerial(4, SamplerMode::kSparse, std::move(hooks));
  EXPECT_EQ(stats.dist_workers_lost, 1);
  EXPECT_GE(stats.dist_shards_redispatched, 1);
}

// A worker goes silent instead of disconnecting: the per-sweep deadline
// declares it dead and re-dispatches; the result is still bit-identical.
TEST(DistributedExecutorTest, HungWorkerIsTimedOutAndRedispatched) {
  std::vector<dist::WorkerHooks> hooks(2);
  hooks[1].fail_after_shards = 0;
  hooks[1].hang_instead = true;
  const TrainStats stats = ExpectDistributedMatchesSerial(
      4, SamplerMode::kSparse, std::move(hooks), /*sweep_deadline_ms=*/300);
  EXPECT_EQ(stats.dist_workers_lost, 1);
  EXPECT_GE(stats.dist_shards_redispatched, 1);
}

// When every worker is gone, training fails with Unavailable instead of
// hanging or crashing.
TEST(DistributedExecutorTest, AllWorkersLostFailsCleanly) {
  const SynthResult data = testing::MakeTinyGraph(42);
  CpdConfig config = BaseConfig();
  config.num_shards = 4;

  WorkerFleet fleet;
  {
    std::vector<dist::WorkerHooks> hooks(2);
    hooks[0].fail_after_shards = 0;
    hooks[1].fail_after_shards = 0;
    EmTrainer dist(data.graph, config);
    dist.SetExecutorFactoryForTest(SocketpairFactory(&fleet, std::move(hooks)));
    const Status status = dist.Train();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  }
}

// A peer that does not echo the Hello byte-for-byte (protocol or model
// dimension mismatch) is rejected during the handshake.
TEST(DistributedExecutorTest, HandshakeEchoMismatchIsRejected) {
  const SynthResult data = testing::MakeTinyGraph(42);
  CpdConfig config = BaseConfig();
  config.num_shards = 2;

  WorkerFleet fleet;
  {
    EmTrainer dist(data.graph, config);
    dist.SetExecutorFactoryForTest(
        [&fleet](const SocialGraph& graph, const CpdConfig& cfg,
                 const LinkCaches& caches,
                 ThreadPlan plan) -> StatusOr<std::unique_ptr<ShardExecutor>> {
          int fds[2];
          if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
            return Status::Unavailable("socketpair failed");
          }
          // An impostor worker: acks the Hello with one flipped byte, as a
          // build with different model dimensions would.
          fleet.threads.emplace_back([fd = fds[1]] {
            auto frame = dist::RecvFrame(fd);
            if (frame.ok()) {
              std::string body = frame->body;
              body.back() ^= 1;
              (void)dist::SendFrame(fd, dist::MsgType::kHelloAck, body);
            }
            char sink[64];
            while (::recv(fd, sink, sizeof(sink), 0) > 0) {
            }
            ::close(fd);
          });
          dist::DistributedOptions options;
          options.connected_fds.push_back(fds[0]);
          return dist::MakeDistributedExecutor(graph, cfg, caches,
                                               std::move(plan),
                                               std::move(options));
        });
    const Status status = dist.Train();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
}

// End to end over real processes: cpd_train's production path
// (ExecutorMode::kDistributed + dist_workers) spawns cpd_worker binaries on
// loopback and still reproduces the serial model bit-for-bit.
TEST(DistributedExecutorE2ETest, SpawnedWorkerProcessesBitIdentical) {
  const std::string worker = CurrentExecutableDir() + "/cpd_worker";
  if (::access(worker.c_str(), X_OK) != 0) {
    GTEST_SKIP() << "cpd_worker binary not built next to the test binary";
  }
  const SynthResult data = testing::MakeTinyGraph(42);

  CpdConfig serial_config = BaseConfig();
  serial_config.num_shards = 3;
  serial_config.executor_mode = ExecutorMode::kSerial;
  EmTrainer serial(data.graph, serial_config);
  ASSERT_TRUE(serial.Train().ok());

  CpdConfig dist_config = serial_config;
  dist_config.executor_mode = ExecutorMode::kDistributed;
  dist_config.dist_workers = 2;
  dist_config.dist_worker_binary = worker;
  EmTrainer dist(data.graph, dist_config);
  const Status status = dist.Train();
  ASSERT_TRUE(status.ok()) << status.ToString();

  ExpectSameModel(serial.state(), dist.state());
  EXPECT_EQ(dist.stats().dist_workers_connected, 2);
}

// ----- cpd_train distributed-flag validation (exit 2 + usage) -----

class CpdTrainFlagsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    binary_ = CurrentExecutableDir() + "/cpd_train";
    if (::access(binary_.c_str(), X_OK) != 0) {
      GTEST_SKIP() << "cpd_train binary not built next to the test binary";
    }
    const std::string dir = ::testing::TempDir();
    docs_ = dir + "/dist_flags_docs.tsv";
    friends_ = dir + "/dist_flags_friends.tsv";
    diffusion_ = dir + "/dist_flags_diffusion.tsv";
    std::ofstream(docs_) << "0\t0\talpha beta gamma delta\n"
                         << "1\t1\tbeta gamma delta epsilon\n";
    std::ofstream(friends_) << "0\t1\n";
    std::ofstream(diffusion_) << "";
  }

  int Run(const std::string& extra_flags) {
    const std::string cmd = binary_ + " --users 2 --docs " + docs_ +
                            " --friends " + friends_ + " --diffusion " +
                            diffusion_ + " " + extra_flags +
                            " >/dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  }

  std::string binary_, docs_, friends_, diffusion_;
};

TEST_F(CpdTrainFlagsTest, UnknownExecutorNameIsUsageError) {
  EXPECT_EQ(Run("--executor bogus"), 2);
}

TEST_F(CpdTrainFlagsTest, DistributedWithoutWorkersIsUsageError) {
  EXPECT_EQ(Run("--executor distributed"), 2);
}

TEST_F(CpdTrainFlagsTest, WorkersAndWorkerAddrsConflict) {
  EXPECT_EQ(Run("--executor distributed --workers 2 "
                "--worker_addrs 127.0.0.1:19999"),
            2);
}

TEST_F(CpdTrainFlagsTest, WorkersWithoutDistributedExecutorIsUsageError) {
  EXPECT_EQ(Run("--workers 2"), 2);
  EXPECT_EQ(Run("--executor pooled --worker_addrs 127.0.0.1:19999"), 2);
}

TEST_F(CpdTrainFlagsTest, WorkerAddrsWithOnlyEmptyEntriesIsUsageError) {
  EXPECT_EQ(Run("--executor distributed --worker_addrs ,"), 2);
}

TEST_F(CpdTrainFlagsTest, WorkerAddrsWithTrailingCommaIsUsageError) {
  EXPECT_EQ(Run("--executor distributed --worker_addrs 127.0.0.1:19999,"), 2);
}

// The HOST:PORT grammar is checked up front (ParseIpv4Endpoint), so a
// non-numeric host or an out-of-range port is a usage error, not a late
// connect failure.
TEST_F(CpdTrainFlagsTest, NonNumericWorkerHostIsUsageError) {
  EXPECT_EQ(Run("--executor distributed --worker_addrs localhost:7001"), 2);
}

TEST_F(CpdTrainFlagsTest, WorkerPortAboveRangeIsUsageError) {
  EXPECT_EQ(Run("--executor distributed --worker_addrs 127.0.0.1:70000"), 2);
}

TEST(DistConfigTest, NonNumericWorkerHostIsRejected) {
  CpdConfig config = BaseConfig();
  config.executor_mode = ExecutorMode::kDistributed;
  config.dist_worker_addrs = "127.0.0.1:7001,localhost:7001";
  const Status status = config.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("numeric IPv4"), std::string::npos)
      << status.ToString();
}

TEST(DistConfigTest, WorkerPortAboveRangeIsRejected) {
  CpdConfig config = BaseConfig();
  config.executor_mode = ExecutorMode::kDistributed;
  config.dist_worker_addrs = "127.0.0.1:65535";
  EXPECT_TRUE(config.Validate().ok());
  for (const char* addrs : {"127.0.0.1:70000", "127.0.0.1:65536",
                            "127.0.0.1:7a", "127.0.0.1", ":7001"}) {
    config.dist_worker_addrs = addrs;
    EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument) << addrs;
  }
}

// The address list is split once (CpdConfig::DistWorkerAddrs) for both the
// worker count and the connections, so an empty entry cannot make the two
// disagree: Validate rejects it.
TEST(DistConfigTest, EmptyWorkerAddrEntryIsRejected) {
  CpdConfig config = BaseConfig();
  config.executor_mode = ExecutorMode::kDistributed;
  config.dist_worker_addrs = "127.0.0.1:7001,127.0.0.1:7002";
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_EQ(config.ResolvedDistWorkers(), 2);
  EXPECT_EQ(config.ResolvedNumShards(), 2);
  for (const char* addrs : {",", "127.0.0.1:7001,", ",127.0.0.1:7001",
                            "127.0.0.1:7001,,127.0.0.1:7002"}) {
    config.dist_worker_addrs = addrs;
    EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument) << addrs;
  }
}

}  // namespace
}  // namespace cpd
