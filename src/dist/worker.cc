#include "dist/worker.h"

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <utility>

#include "core/diffusion_features.h"
#include "core/state_snapshot.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "parallel/shard_executor.h"
#include "util/timer.h"

namespace cpd::dist {

namespace {

/// Everything a session materializes from kSetup: the rebuilt graph plus a
/// one-slot ShardRunner, the same sweep the local executor runs.
struct Session {
  explicit Session(SetupMsg setup_msg)
      : setup(std::move(setup_msg)),
        caches(setup.graph),
        runner(setup.graph, setup.config, caches, setup.shard_users.size(),
               /*num_slots=*/1) {}

  SetupMsg setup;
  LinkCaches caches;
  ShardRunner runner;
  StateSnapshot snapshot;
  KernelFlags flags;
  uint64_t sweep = 0;
  bool have_sweep = false;
};

void SendErrorBestEffort(int fd, const Status& status) {
  (void)SendFrame(fd, MsgType::kError, EncodeErrorBody(status.ToString()));
}

/// Reads and discards until the peer hangs up; the "hang" fault mode. The
/// coordinator's deadline handler shuts the socket down, which unblocks this
/// recv — so a hung worker thread never outlives its test.
void DrainUntilEof(int fd) {
  char buf[4096];
  while (::recv(fd, buf, sizeof(buf), 0) > 0) {
  }
}

Status Serve(int fd, const WorkerHooks& hooks) {
  // --- handshake: echo Hello back verbatim, then expect Setup. ---
  auto hello_frame = RecvFrame(fd);
  if (!hello_frame.ok()) return hello_frame.status();
  if (hello_frame->type != MsgType::kHello) {
    return Status::InvalidArgument(
        std::string("worker: expected Hello, got ") +
        MsgTypeName(hello_frame->type));
  }
  auto hello = HelloMsg::Decode(hello_frame->body);
  if (!hello.ok()) return hello.status();
  CPD_RETURN_IF_ERROR(SendFrame(fd, MsgType::kHelloAck, hello_frame->body));

  auto setup_frame = RecvFrame(fd);
  if (!setup_frame.ok()) return setup_frame.status();
  if (setup_frame->type != MsgType::kSetup) {
    return Status::InvalidArgument(
        std::string("worker: expected Setup, got ") +
        MsgTypeName(setup_frame->type));
  }
  auto setup = SetupMsg::Decode(setup_frame->body);
  if (!setup.ok()) return setup.status();
  if (setup->graph.num_users() != hello->num_users ||
      setup->graph.num_documents() != hello->num_documents ||
      setup->graph.vocabulary_size() != hello->vocab_size ||
      setup->config.num_communities != hello->num_communities ||
      setup->config.num_topics != hello->num_topics ||
      setup->shard_users.size() != hello->num_shards ||
      setup->shard_users.empty()) {
    return Status::InvalidArgument(
        "worker: Setup does not match the Hello dimensions");
  }
  Session session(std::move(*setup));
  CPD_RETURN_IF_ERROR(SendFrame(fd, MsgType::kReady, std::string_view()));

  // --- sweep/shard loop. ---
  int completed_shards = 0;
  for (;;) {
    auto frame = RecvFrame(fd);
    if (!frame.ok()) {
      // EOF / reset after the handshake is the coordinator going away;
      // drain cleanly rather than report an error.
      return Status::OK();
    }
    switch (frame->type) {
      case MsgType::kShutdown:
        return Status::OK();

      case MsgType::kSweepBegin: {
        auto msg = SweepBeginMsg::Decode(frame->body, &session.snapshot);
        if (!msg.ok()) return msg.status();
        session.sweep = msg->sweep;
        session.flags = msg->flags;
        session.have_sweep = true;
        session.runner.RebuildTables(session.snapshot, /*pool=*/nullptr);
        break;
      }

      case MsgType::kRunShard: {
        auto msg = RunShardMsg::Decode(frame->body);
        if (!msg.ok()) return msg.status();
        if (!session.have_sweep || msg->sweep != session.sweep) {
          return Status::FailedPrecondition(
              "worker: RunShard for a sweep that was never begun");
        }
        if (msg->shard >= session.setup.shard_users.size()) {
          return Status::InvalidArgument("worker: shard index out of range");
        }
        if (hooks.fail_after_shards >= 0 &&
            completed_shards >= hooks.fail_after_shards) {
          if (hooks.hang_instead) {
            DrainUntilEof(fd);
            return Status::OK();
          }
          ::shutdown(fd, SHUT_RDWR);
          return Status::OK();
        }

        Rng rng(1);
        rng.LoadState(msg->rng);
        CounterDelta delta;
        WallTimer timer;
        session.runner.Run(0, session.setup.shard_users[msg->shard],
                           session.snapshot, session.flags, &rng, &delta);

        ShardResultMsg result;
        result.sweep = msg->sweep;
        result.shard = msg->shard;
        result.rng = rng.SaveState();
        result.shard_seconds = timer.ElapsedSeconds();
        result.mh = session.runner.ConsumeMhStats();
        result.collapse = session.runner.ConsumeCollapseCacheStats();
        CPD_RETURN_IF_ERROR(
            SendFrame(fd, MsgType::kShardResult, result.Encode(delta)));
        ++completed_shards;
        break;
      }

      default:
        return Status::InvalidArgument(
            std::string("worker: unexpected message ") +
            MsgTypeName(frame->type));
    }
  }
}

}  // namespace

Status ServeWorker(int fd, const WorkerHooks& hooks) {
  const Status status = Serve(fd, hooks);
  if (!status.ok()) SendErrorBestEffort(fd, status);
  ::close(fd);
  return status;
}

}  // namespace cpd::dist
