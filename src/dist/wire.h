#ifndef CPD_DIST_WIRE_H_
#define CPD_DIST_WIRE_H_

/// \file wire.h
/// The distributed E-step's wire protocol (see docs/ARCHITECTURE.md,
/// "Distributed E-step"): length-prefixed binary frames carrying the
/// snapshot/delta messages between the coordinator (DistributedExecutor) and
/// cpd_worker processes. Framing is versioned exactly like the .cpdb model
/// artifact —
///
///   magic "CPDBWIRE" | u32 version | u32 endian tag 0x01020304 |
///   u32 message type | u64 body length | body
///
/// — and decoding fails with the same typed Status vocabulary: wrong magic /
/// endianness / malformed structure is InvalidArgument, a newer version is
/// Unimplemented, truncated or trailing bytes are OutOfRange.
///
/// Session shape (coordinator -> worker unless noted):
///   kHello / kHelloAck (echo, worker -> coordinator): protocol + model-dim
///     handshake; the coordinator verifies the echo byte-for-byte.
///   kSetup / kReady: the sampling config subset, the full social graph and
///     the per-shard user lists — sent once per session.
///   kSweepBegin: per sweep, broadcast to every live worker: sweep sequence
///     number, kernel flags, the sweep-state snapshot blob, and (only when
///     the M-step advanced them) the parameter blob.
///   kRunShard: one shard assignment — shard index plus that shard's RNG
///     stream state. Shipping the stream is what makes re-dispatch after a
///     worker death bit-deterministic: any worker continues the exact draws.
///   kShardResult (worker -> coordinator): the shard's CounterDelta, its
///     advanced RNG state, wall seconds, and MH/collapse-memo counters.
///   kShutdown: clean drain; the worker exits its serve loop.
///   kError (worker -> coordinator): best-effort failure report.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/gibbs_sampler.h"
#include "core/model_config.h"
#include "core/state_snapshot.h"
#include "graph/social_graph.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/wire_format.h"

namespace cpd::dist {

inline constexpr char kWireMagic[8] = {'C', 'P', 'D', 'B', 'W', 'I', 'R', 'E'};
inline constexpr uint32_t kWireVersion = 1;
inline constexpr uint32_t kWireEndianTag = 0x01020304u;
inline constexpr size_t kFrameHeaderBytes = 8 + 4 + 4 + 4 + 8;

enum class MsgType : uint32_t {
  kHello = 1,
  kHelloAck = 2,
  kSetup = 3,
  kReady = 4,
  kSweepBegin = 5,
  kRunShard = 6,
  kShardResult = 7,
  kShutdown = 8,
  kError = 9,
};

const char* MsgTypeName(MsgType type);

struct Frame {
  MsgType type = MsgType::kError;
  std::string body;
};

/// Appends one framed message to *out. `version` is overridable only so
/// tests can forge mismatching frames.
void AppendFrame(std::string* out, MsgType type, std::string_view body,
                 uint32_t version = kWireVersion);

/// Decodes the fixed-size header (exactly kFrameHeaderBytes). Typed errors
/// mirror the model artifact reader: InvalidArgument for bad magic / endian
/// tag / unknown message type, Unimplemented for a newer version.
struct FrameHeader {
  MsgType type = MsgType::kError;
  uint64_t body_length = 0;
};
StatusOr<FrameHeader> DecodeFrameHeader(std::string_view header);

/// Decodes one complete frame from a whole buffer: OutOfRange when the body
/// is truncated or trailing bytes follow it.
StatusOr<Frame> DecodeFrame(std::string_view bytes);

// ----- message payloads -----

/// Handshake: protocol + the model dimensions both sides must agree on.
/// The worker echoes the coordinator's Hello verbatim as its HelloAck.
struct HelloMsg {
  uint32_t protocol_version = kWireVersion;
  int32_t num_communities = 0;
  int32_t num_topics = 0;
  uint64_t num_users = 0;
  uint64_t num_documents = 0;
  uint64_t vocab_size = 0;
  uint32_t num_shards = 0;
  uint64_t seed = 0;

  bool operator==(const HelloMsg&) const = default;

  std::string Encode() const;
  static StatusOr<HelloMsg> Decode(std::string_view body);
};

/// The sampling-relevant CpdConfig subset a worker needs to reproduce the
/// shard kernels (trainer-only knobs like em_iterations stay home).
void EncodeConfig(const CpdConfig& config, WireWriter* writer);
Status DecodeConfig(WireReader* reader, CpdConfig* config);

/// The social graph, re-buildable on the worker: documents as token ids over
/// an anonymous vocabulary of the same size (word strings never matter to
/// the kernels), plus both link sets. Ids round-trip unchanged.
void EncodeGraph(const SocialGraph& graph, WireWriter* writer);
StatusOr<SocialGraph> DecodeGraph(WireReader* reader);

/// kSetup body: config + graph + the plan's per-shard user lists.
struct SetupMsg {
  CpdConfig config;
  SocialGraph graph;
  std::vector<std::vector<UserId>> shard_users;

  static std::string Encode(const CpdConfig& config, const SocialGraph& graph,
                            const std::vector<std::vector<UserId>>& shard_users);
  static StatusOr<SetupMsg> Decode(std::string_view body);
};

void EncodeRngState(const Rng::State& state, WireWriter* writer);
Rng::State DecodeRngState(WireReader* reader);

/// kSweepBegin body. The snapshot blobs are encoded/decoded through the
/// StateSnapshot codec; `has_parameters` marks whether the parameter blob
/// (eta/weights/popularity) precedes the sweep-state blob.
struct SweepBeginMsg {
  uint64_t sweep = 0;
  KernelFlags flags;
  bool has_parameters = false;

  static std::string Encode(uint64_t sweep, const KernelFlags& flags,
                            const StateSnapshot& snapshot,
                            bool include_parameters);
  /// Decodes header fields and the blobs into *snapshot (parameters only
  /// when present).
  static StatusOr<SweepBeginMsg> Decode(std::string_view body,
                                        StateSnapshot* snapshot);
};

struct RunShardMsg {
  uint64_t sweep = 0;
  uint32_t shard = 0;
  Rng::State rng;

  std::string Encode() const;
  static StatusOr<RunShardMsg> Decode(std::string_view body);
};

struct ShardResultMsg {
  uint64_t sweep = 0;
  uint32_t shard = 0;
  Rng::State rng;  ///< The stream state after the shard's sweep.
  double shard_seconds = 0.0;
  MhStats mh;
  CollapseCacheStats collapse;

  /// The delta is passed separately so the coordinator can decode straight
  /// into its per-shard slot without an intermediate copy.
  std::string Encode(const CounterDelta& delta) const;
  static StatusOr<ShardResultMsg> Decode(std::string_view body,
                                         CounterDelta* delta);
};

/// kError body: a bare message string.
std::string EncodeErrorBody(const std::string& message);
StatusOr<std::string> DecodeErrorBody(std::string_view body);

}  // namespace cpd::dist

#endif  // CPD_DIST_WIRE_H_
