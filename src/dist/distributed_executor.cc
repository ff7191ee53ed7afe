#include "dist/distributed_executor.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "dist/transport.h"
#include "dist/wire.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "util/file_util.h"
#include "util/logging.h"
#include "util/timer.h"

namespace cpd::dist {

namespace {

using Clock = std::chrono::steady_clock;

/// Trace-row layout: the coordinator's serialize/wait/decode spans live on
/// tid 1 (the trainer owns tid 0) and each worker's in-flight shards on tid
/// 100 + worker index, so Perfetto shows per-worker occupancy.
constexpr int kCoordinatorTid = 1;
constexpr int kWorkerTidBase = 100;

void SetRecvTimeout(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

class DistributedExecutor final : public ShardExecutor {
 public:
  // The runner holds no slots: shards sample on the workers, while the
  // streams, augmentation and totals stay on the coordinator.
  DistributedExecutor(const SocialGraph& graph, const CpdConfig& config,
                      const LinkCaches& caches, ThreadPlan plan)
      : ShardExecutor(graph, config, caches, plan.users_per_thread.size(),
                      /*num_slots=*/0),
        graph_(graph),
        config_(config),
        plan_(std::move(plan)) {}

  ~DistributedExecutor() override {
    for (WorkerConn& w : workers_) {
      if (w.alive) {
        (void)SendFrame(w.fd, MsgType::kShutdown, std::string_view());
      }
    }
    for (WorkerConn& w : workers_) {
      if (w.fd >= 0) ::shutdown(w.fd, SHUT_RDWR);
    }
    for (WorkerConn& w : workers_) {
      if (w.reader.joinable()) w.reader.join();
      if (w.fd >= 0) ::close(w.fd);
    }
    ReapChildren();
  }

  /// Establishes every worker session (connect/spawn + handshake) and
  /// starts the reader threads. Called exactly once, before any sweep.
  Status Start(const DistributedOptions& options) {
    sweep_deadline_ms_ = options.sweep_deadline_ms;
    const HelloMsg hello = MakeHello();
    const std::string hello_body = hello.Encode();
    const std::string setup_body =
        SetupMsg::Encode(config_, graph_, plan_.users_per_thread);

    int listen_fd = -1;
    uint16_t port = 0;
    Status status = Status::OK();
    if (!options.connected_fds.empty()) {
      for (const int fd : options.connected_fds) {
        AddWorker(fd);
      }
    } else if (!options.worker_addrs.empty()) {
      for (const std::string& addr : options.worker_addrs) {
        auto fd = ConnectTo(addr);
        if (!fd.ok()) {
          status = fd.status();
          break;
        }
        AddWorker(*fd);
      }
    } else if (options.spawn_workers > 0) {
      std::string binary = options.worker_binary;
      if (binary.empty()) binary = CurrentExecutableDir() + "/cpd_worker";
      auto listening = ListenOnLoopback(&port);
      if (!listening.ok()) return listening.status();
      listen_fd = *listening;
      for (int i = 0; i < options.spawn_workers && status.ok(); ++i) {
        auto pid = SpawnWorkerProcess(binary, port, options.spawn_extra_args);
        if (!pid.ok()) {
          status = pid.status();
          break;
        }
        child_pids_.push_back(*pid);
        auto fd = AcceptWithTimeout(listen_fd, options.handshake_timeout_ms);
        if (!fd.ok()) {
          status = fd.status();
          break;
        }
        AddWorker(*fd);
      }
    } else {
      return Status::InvalidArgument(
          "distributed executor: no workers configured");
    }
    if (listen_fd >= 0) ::close(listen_fd);

    for (size_t w = 0; status.ok() && w < workers_.size(); ++w) {
      status = Handshake(&workers_[w], hello_body, setup_body,
                         options.handshake_timeout_ms);
    }
    // Startup is all-or-nothing; the destructor tears down whatever was
    // already connected or spawned.
    CPD_RETURN_IF_ERROR(status);

    stats_.workers_connected = static_cast<int>(workers_.size());
    for (size_t w = 0; w < workers_.size(); ++w) {
      workers_[w].alive = true;
      workers_[w].reader = std::thread([this, w] { ReaderLoop(w); });
    }
    return Status::OK();
  }

  Status SampleShards(const StateSnapshot& snapshot, const KernelFlags& flags,
                      std::vector<CounterDelta>* deltas) override {
    CPD_CHECK(snapshot.captured());
    const size_t shards = static_cast<size_t>(num_shards());
    deltas->resize(shards);
    ++sweep_seq_;
    ++stats_.sweeps;
    if (trace_ != nullptr) dispatch_us_.assign(shards, -1);

    // Serialize phase: the broadcast sweep body (parameters ride along only
    // when the M-step advanced them) and one kRunShard body per non-empty
    // shard. The rng state captured here is the re-dispatch token: a
    // survivor receiving the identical body redraws the identical stream.
    const int64_t serialize_start_us = obs::NowMicros();
    WallTimer serialize_timer;
    const bool send_params =
        snapshot.parameters_version() != last_sent_params_version_;
    const std::string sweep_body =
        SweepBeginMsg::Encode(sweep_seq_, flags, snapshot, send_params);
    std::vector<std::string> run_bodies(shards);
    std::vector<bool> completed(shards, false);
    size_t outstanding = 0;
    for (size_t s = 0; s < shards; ++s) {
      (*deltas)[s].Clear();
      if (plan_.users_per_thread[s].empty()) {
        // Empty shards never touch their RNG stream locally either
        // (ShardRunner::Run returns before sampling), so skipping the
        // round trip preserves bit-identity.
        completed[s] = true;
        continue;
      }
      RunShardMsg msg;
      msg.sweep = sweep_seq_;
      msg.shard = static_cast<uint32_t>(s);
      msg.rng = runner_.stream(s).SaveState();
      run_bodies[s] = msg.Encode();
      ++outstanding;
    }
    stats_.serialize_seconds += serialize_timer.ElapsedSeconds();
    if (trace_ != nullptr) {
      Json args = Json::MakeObject();
      args.Set("sweep", Json(static_cast<int64_t>(sweep_seq_)));
      trace_->AddSpan("serialize", kCoordinatorTid, serialize_start_us,
                      obs::NowMicros() - serialize_start_us, std::move(args));
    }

    // Broadcast the sweep, then deal shards round-robin.
    for (size_t w = 0; w < workers_.size(); ++w) {
      if (!workers_[w].alive) continue;
      if (!SendFrame(workers_[w].fd, MsgType::kSweepBegin, sweep_body,
                     &stats_.bytes_out)
               .ok()) {
        MarkDead(w);
      }
    }
    if (send_params) last_sent_params_version_ = snapshot.parameters_version();
    std::vector<int> owner(shards, -1);
    {
      size_t next = 0;
      for (size_t s = 0; s < shards; ++s) {
        if (completed[s]) continue;
        const int w = NextLiveWorker(&next);
        if (w < 0) return AllWorkersLost();
        DispatchShard(s, static_cast<size_t>(w), run_bodies, &owner);
      }
    }

    // Collect. The deadline restarts after every successful re-dispatch so
    // a survivor gets a full window for the extra work.
    auto deadline = Clock::now() + std::chrono::milliseconds(sweep_deadline_ms_);
    std::unique_lock<std::mutex> lock(mu_);
    while (outstanding > 0) {
      if (events_.empty()) {
        const int64_t wait_start_us = obs::NowMicros();
        WallTimer wait_timer;
        const bool timed_out =
            !cv_.wait_until(lock, deadline, [this] { return !events_.empty(); });
        stats_.wait_seconds += wait_timer.ElapsedSeconds();
        if (trace_ != nullptr) {
          trace_->AddSpan("wait", kCoordinatorTid, wait_start_us,
                          obs::NowMicros() - wait_start_us);
        }
        if (timed_out) {
          // Declare every worker still sitting on pending shards dead (the
          // stragglers), then hand their shards to survivors.
          lock.unlock();
          for (size_t w = 0; w < workers_.size(); ++w) {
            if (workers_[w].alive && HasPending(owner, completed, w)) {
              MarkDead(w);
            }
          }
          if (!RecoverOrphans(run_bodies, completed, &owner)) {
            return AllWorkersLost();
          }
          deadline =
              Clock::now() + std::chrono::milliseconds(sweep_deadline_ms_);
          lock.lock();
          continue;
        }
      }
      Event ev = std::move(events_.front());
      events_.pop_front();
      lock.unlock();
      stats_.bytes_in += ev.bytes;

      if (ev.disconnect) {
        // Recover even when the worker was already marked dead: a failed
        // DispatchShard send marks its target dead synchronously, and this
        // (later) disconnect event is where its orphans get rehomed.
        MarkDead(ev.worker);
        if (!RecoverOrphans(run_bodies, completed, &owner)) {
          return AllWorkersLost();
        }
        deadline =
            Clock::now() + std::chrono::milliseconds(sweep_deadline_ms_);
      } else if (ev.type == MsgType::kShardResult) {
        const int64_t decode_start_us = obs::NowMicros();
        WallTimer decode_timer;
        CounterDelta decoded;
        auto msg = ShardResultMsg::Decode(ev.body, &decoded);
        stats_.serialize_seconds += decode_timer.ElapsedSeconds();
        if (trace_ != nullptr) {
          trace_->AddSpan("merge", kCoordinatorTid, decode_start_us,
                          obs::NowMicros() - decode_start_us);
        }
        if (!msg.ok()) return msg.status();
        const size_t s = msg->shard;
        // A result can arrive twice after a deadline re-dispatch (the
        // "dead" straggler was merely slow); first-in wins, both are the
        // same deterministic computation anyway.
        if (msg->sweep == sweep_seq_ && s < shards && !completed[s]) {
          if (trace_ != nullptr && dispatch_us_[s] >= 0) {
            // Dispatch-to-result on the sender's row: per-worker occupancy,
            // including any deadline re-dispatch that rehomed the shard.
            Json args = Json::MakeObject();
            args.Set("sweep", Json(static_cast<int64_t>(sweep_seq_)));
            args.Set("shard", Json(static_cast<int64_t>(s)));
            trace_->AddSpan("shard " + std::to_string(s),
                            kWorkerTidBase + static_cast<int>(ev.worker),
                            dispatch_us_[s],
                            obs::NowMicros() - dispatch_us_[s],
                            std::move(args));
          }
          (*deltas)[s] = std::move(decoded);
          runner_.stream(s).LoadState(msg->rng);
          runner_.AddShardSeconds(s, msg->shard_seconds);
          runner_.AddStats(msg->mh, msg->collapse);
          completed[s] = true;
          --outstanding;
        }
      } else if (ev.type == MsgType::kError) {
        auto message = DecodeErrorBody(ev.body);
        CPD_LOG(Warning) << "dist: worker " << ev.worker << " error: "
                         << (message.ok() ? *message : std::string("?"));
        MarkDead(ev.worker);
        if (!RecoverOrphans(run_bodies, completed, &owner)) {
          return AllWorkersLost();
        }
      }
      // Any other message type from a worker is ignored.
      lock.lock();
    }
    return Status::OK();
  }

  // Augmentation is cheap and race-free on the merged master state; running
  // it here with the shard streams saves a round trip per sweep.
  Status SweepAugmentation(GibbsSampler* master_sampler) override {
    for (size_t t = 0; t < runner_.num_shards(); ++t) {
      runner_.Augment(t, master_sampler);
    }
    return Status::OK();
  }

  const DistTransportStats* transport_stats() const override {
    return &stats_;
  }

  void SetTraceRecorder(obs::TraceRecorder* recorder) override {
    trace_ = recorder;
    if (trace_ == nullptr) return;
    trace_->SetThreadName(kCoordinatorTid, "dist coordinator");
    for (size_t w = 0; w < workers_.size(); ++w) {
      trace_->SetThreadName(kWorkerTidBase + static_cast<int>(w),
                            "worker " + std::to_string(w));
    }
  }

 private:
  struct WorkerConn {
    int fd = -1;
    bool alive = false;
    std::thread reader;
  };

  void AddWorker(int fd) {
    workers_.emplace_back();
    workers_.back().fd = fd;
  }

  /// One received frame (or a disconnect) from a worker's reader thread.
  struct Event {
    size_t worker = 0;
    bool disconnect = false;
    MsgType type = MsgType::kError;
    std::string body;
    uint64_t bytes = 0;
  };

  HelloMsg MakeHello() const {
    HelloMsg hello;
    hello.num_communities = config_.num_communities;
    hello.num_topics = config_.num_topics;
    hello.num_users = graph_.num_users();
    hello.num_documents = graph_.num_documents();
    hello.vocab_size = graph_.vocabulary_size();
    hello.num_shards = static_cast<uint32_t>(plan_.users_per_thread.size());
    hello.seed = config_.seed;
    return hello;
  }

  Status Handshake(WorkerConn* worker, const std::string& hello_body,
                   const std::string& setup_body, int timeout_ms) {
    SetRecvTimeout(worker->fd, timeout_ms);
    CPD_RETURN_IF_ERROR(SendFrame(worker->fd, MsgType::kHello, hello_body,
                                  &stats_.bytes_out));
    auto ack = RecvFrame(worker->fd, &stats_.bytes_in);
    if (!ack.ok()) return ack.status();
    if (ack->type == MsgType::kError) {
      auto message = DecodeErrorBody(ack->body);
      return Status::InvalidArgument(
          "worker rejected handshake: " +
          (message.ok() ? *message : std::string("unreadable error")));
    }
    if (ack->type != MsgType::kHelloAck || ack->body != hello_body) {
      return Status::InvalidArgument(
          "worker handshake: HelloAck does not echo the Hello (protocol or "
          "model-dimension mismatch)");
    }
    CPD_RETURN_IF_ERROR(SendFrame(worker->fd, MsgType::kSetup, setup_body,
                                  &stats_.bytes_out));
    auto ready = RecvFrame(worker->fd, &stats_.bytes_in);
    if (!ready.ok()) return ready.status();
    if (ready->type == MsgType::kError) {
      auto message = DecodeErrorBody(ready->body);
      return Status::InvalidArgument(
          "worker rejected setup: " +
          (message.ok() ? *message : std::string("unreadable error")));
    }
    if (ready->type != MsgType::kReady) {
      return Status::InvalidArgument("worker handshake: expected Ready");
    }
    SetRecvTimeout(worker->fd, 0);  // Back to blocking for the reader thread.
    return Status::OK();
  }

  void ReaderLoop(size_t w) {
    const int fd = workers_[w].fd;
    for (;;) {
      uint64_t bytes = 0;
      auto frame = RecvFrame(fd, &bytes);
      std::lock_guard<std::mutex> lock(mu_);
      Event ev;
      ev.worker = w;
      ev.bytes = bytes;
      if (!frame.ok()) {
        ev.disconnect = true;
        events_.push_back(std::move(ev));
        cv_.notify_all();
        return;
      }
      ev.type = frame->type;
      ev.body = std::move(frame->body);
      events_.push_back(std::move(ev));
      cv_.notify_all();
    }
  }

  /// Main-thread only. Shutting the socket down unblocks the reader thread,
  /// which then posts its (ignored) disconnect event and exits.
  void MarkDead(size_t w) {
    if (!workers_[w].alive) return;
    workers_[w].alive = false;
    ++stats_.workers_lost;
    ::shutdown(workers_[w].fd, SHUT_RDWR);
  }

  int NextLiveWorker(size_t* cursor) {
    for (size_t i = 0; i < workers_.size(); ++i) {
      const size_t w = (*cursor + i) % workers_.size();
      if (workers_[w].alive) {
        *cursor = w + 1;
        return static_cast<int>(w);
      }
    }
    return -1;
  }

  void DispatchShard(size_t shard, size_t w,
                     const std::vector<std::string>& run_bodies,
                     std::vector<int>* owner) {
    (*owner)[shard] = static_cast<int>(w);
    if (trace_ != nullptr) dispatch_us_[shard] = obs::NowMicros();
    if (!SendFrame(workers_[w].fd, MsgType::kRunShard, run_bodies[shard],
                   &stats_.bytes_out)
             .ok()) {
      // The disconnect event from the reader thread re-dispatches it.
      MarkDead(w);
    }
  }

  bool HasPending(const std::vector<int>& owner,
                  const std::vector<bool>& completed, size_t w) const {
    for (size_t s = 0; s < owner.size(); ++s) {
      if (!completed[s] && owner[s] == static_cast<int>(w)) return true;
    }
    return false;
  }

  /// Re-sends every orphaned shard's original kRunShard body (original RNG
  /// state — determinism) to surviving workers, looping until every
  /// incomplete shard is owned by a live worker. A dispatch that fails kills
  /// its target and the next scan rehomes the shard, so each outer iteration
  /// either converges or strictly shrinks the live set. False when no worker
  /// survives.
  bool RecoverOrphans(const std::vector<std::string>& run_bodies,
                      const std::vector<bool>& completed,
                      std::vector<int>* owner) {
    size_t cursor = 0;
    for (;;) {
      std::vector<size_t> orphans;
      for (size_t s = 0; s < owner->size(); ++s) {
        const int o = (*owner)[s];
        if (!completed[s] &&
            (o < 0 || !workers_[static_cast<size_t>(o)].alive)) {
          orphans.push_back(s);
        }
      }
      if (orphans.empty()) return true;
      if (NextLiveWorker(&cursor) < 0) return false;
      for (const size_t s : orphans) {
        const int w = NextLiveWorker(&cursor);
        if (w < 0) break;
        ++stats_.shards_redispatched;
        DispatchShard(s, static_cast<size_t>(w), run_bodies, owner);
      }
    }
  }

  Status AllWorkersLost() {
    return Status::Unavailable(
        "distributed executor: all workers lost mid-sweep");
  }

  void ReapChildren() {
    // Workers exit on kShutdown/EOF; give them a moment, then escalate.
    for (const pid_t pid : child_pids_) {
      int status = 0;
      bool reaped = false;
      for (int i = 0; i < 200; ++i) {  // ~2 s
        const pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid || r < 0) {
          reaped = true;
          break;
        }
        ::usleep(10 * 1000);
      }
      if (!reaped) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
      }
    }
  }

  const SocialGraph& graph_;
  const CpdConfig config_;
  const ThreadPlan plan_;
  int sweep_deadline_ms_ = 30000;

  std::vector<WorkerConn> workers_;
  std::vector<pid_t> child_pids_;

  uint64_t sweep_seq_ = 0;
  uint64_t last_sent_params_version_ = 0;
  DistTransportStats stats_;

  obs::TraceRecorder* trace_ = nullptr;  ///< Null = tracing off.
  std::vector<int64_t> dispatch_us_;     ///< Per-shard dispatch stamps.

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Event> events_;
};

}  // namespace

StatusOr<std::unique_ptr<ShardExecutor>> MakeDistributedExecutor(
    const SocialGraph& graph, const CpdConfig& config, const LinkCaches& caches,
    ThreadPlan plan, DistributedOptions options) {
  auto executor = std::make_unique<DistributedExecutor>(graph, config, caches,
                                                       std::move(plan));
  CPD_RETURN_IF_ERROR(executor->Start(options));
  return std::unique_ptr<ShardExecutor>(std::move(executor));
}

StatusOr<std::unique_ptr<ShardExecutor>> MakeDistributedExecutor(
    const SocialGraph& graph, const CpdConfig& config, const LinkCaches& caches,
    ThreadPlan plan) {
  DistributedOptions options;
  options.spawn_workers = config.dist_workers;
  options.worker_binary = config.dist_worker_binary;
  options.sweep_deadline_ms = config.dist_sweep_deadline_ms;
  options.worker_addrs = config.DistWorkerAddrs();
  return MakeDistributedExecutor(graph, config, caches, std::move(plan),
                                 std::move(options));
}

}  // namespace cpd::dist
