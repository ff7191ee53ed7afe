#ifndef CPD_DIST_WORKER_H_
#define CPD_DIST_WORKER_H_

/// \file worker.h
/// The worker half of the distributed E-step: a serve loop that speaks the
/// src/dist/wire.h protocol over one connected socket. It rebuilds the graph
/// and a one-slot ShardRunner from the kSetup message, then answers each
/// kRunShard request with ShardRunner::Run, the one shard sweep every
/// executor runs, drawing from the RNG stream the request carries, and
/// streams the CounterDelta back. Runs inside the cpd_worker tool and, for
/// tests, on in-process socketpair threads.

#include "util/status.h"

namespace cpd::dist {

/// Fault-injection knobs for the coordinator's re-dispatch tests. Inert by
/// default; cpd_worker exposes them behind hidden flags so the e2e test can
/// kill a real process mid-sweep deterministically.
struct WorkerHooks {
  /// After completing this many kRunShard requests, fail on the next one:
  /// close the connection without replying (or hang, below). -1 = never.
  int fail_after_shards = -1;

  /// Fail by going silent (stop reading, hold the socket open) instead of
  /// closing — exercises the coordinator's per-sweep deadline rather than
  /// its disconnect path.
  bool hang_instead = false;
};

/// Serves one coordinator session on `fd` (takes ownership; the socket is
/// closed on return). Returns OK on a clean drain — a kShutdown message or
/// the coordinator closing the connection — and the underlying error for
/// protocol violations or malformed payloads (after best-effort sending a
/// kError frame back).
Status ServeWorker(int fd, const WorkerHooks& hooks = {});

}  // namespace cpd::dist

#endif  // CPD_DIST_WORKER_H_
