#include "dist/wire.h"

#include <cstring>

#include "graph/graph_builder.h"

namespace cpd::dist {

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "Hello";
    case MsgType::kHelloAck: return "HelloAck";
    case MsgType::kSetup: return "Setup";
    case MsgType::kReady: return "Ready";
    case MsgType::kSweepBegin: return "SweepBegin";
    case MsgType::kRunShard: return "RunShard";
    case MsgType::kShardResult: return "ShardResult";
    case MsgType::kShutdown: return "Shutdown";
    case MsgType::kError: return "Error";
  }
  return "Unknown";
}

namespace {

bool IsKnownMsgType(uint32_t raw) {
  return raw >= static_cast<uint32_t>(MsgType::kHello) &&
         raw <= static_cast<uint32_t>(MsgType::kError);
}

}  // namespace

void AppendFrame(std::string* out, MsgType type, std::string_view body,
                 uint32_t version) {
  WireWriter writer(out);
  writer.Bytes({kWireMagic, sizeof(kWireMagic)});
  writer.U32(version);
  writer.U32(kWireEndianTag);
  writer.U32(static_cast<uint32_t>(type));
  writer.U64(body.size());
  writer.Bytes(body);
}

StatusOr<FrameHeader> DecodeFrameHeader(std::string_view header) {
  if (header.size() < kFrameHeaderBytes) {
    return Status::OutOfRange("wire: truncated frame header");
  }
  if (std::memcmp(header.data(), kWireMagic, sizeof(kWireMagic)) != 0) {
    return Status::InvalidArgument("wire: bad magic (not a CPDBWIRE frame)");
  }
  WireReader reader(header.substr(sizeof(kWireMagic), kFrameHeaderBytes - 8));
  const uint32_t version = reader.U32();
  const uint32_t endian = reader.U32();
  const uint32_t raw_type = reader.U32();
  const uint64_t body_length = reader.U64();
  if (version > kWireVersion) {
    return Status::Unimplemented("wire: frame version " +
                                 std::to_string(version) +
                                 " is newer than this build (" +
                                 std::to_string(kWireVersion) + ")");
  }
  if (version < 1) {
    return Status::InvalidArgument("wire: frame version 0");
  }
  if (endian != kWireEndianTag) {
    return Status::InvalidArgument("wire: foreign byte order");
  }
  if (!IsKnownMsgType(raw_type)) {
    return Status::InvalidArgument("wire: unknown message type " +
                                   std::to_string(raw_type));
  }
  FrameHeader out;
  out.type = static_cast<MsgType>(raw_type);
  out.body_length = body_length;
  return out;
}

StatusOr<Frame> DecodeFrame(std::string_view bytes) {
  auto header = DecodeFrameHeader(bytes);
  if (!header.ok()) return header.status();
  const std::string_view body = bytes.substr(
      std::min(bytes.size(), kFrameHeaderBytes));
  if (body.size() < header->body_length) {
    return Status::OutOfRange("wire: truncated frame body");
  }
  if (body.size() > header->body_length) {
    return Status::OutOfRange("wire: trailing bytes after frame body");
  }
  Frame frame;
  frame.type = header->type;
  frame.body.assign(body.data(), body.size());
  return frame;
}

// ----- Hello -----

std::string HelloMsg::Encode() const {
  std::string out;
  WireWriter writer(&out);
  writer.U32(protocol_version);
  writer.I32(num_communities);
  writer.I32(num_topics);
  writer.U64(num_users);
  writer.U64(num_documents);
  writer.U64(vocab_size);
  writer.U32(num_shards);
  writer.U64(seed);
  return out;
}

StatusOr<HelloMsg> HelloMsg::Decode(std::string_view body) {
  WireReader reader(body);
  HelloMsg msg;
  msg.protocol_version = reader.U32();
  msg.num_communities = reader.I32();
  msg.num_topics = reader.I32();
  msg.num_users = reader.U64();
  msg.num_documents = reader.U64();
  msg.vocab_size = reader.U64();
  msg.num_shards = reader.U32();
  msg.seed = reader.U64();
  CPD_RETURN_IF_ERROR(reader.ExpectDone());
  return msg;
}

// ----- config -----

void EncodeConfig(const CpdConfig& config, WireWriter* writer) {
  writer->I32(config.num_communities);
  writer->I32(config.num_topics);
  writer->F64(config.alpha);
  writer->F64(config.rho);
  writer->F64(config.beta);
  writer->U8(static_cast<uint8_t>(config.popularity_mode));
  writer->U8(static_cast<uint8_t>(config.sampler_mode));
  writer->I32(config.mh_steps);
  writer->Bool(config.cache_eta_collapse);
  writer->Bool(config.ablation.joint_profiling);
  writer->Bool(config.ablation.heterogeneous_links);
  writer->Bool(config.ablation.individual_factor);
  writer->Bool(config.ablation.topic_factor);
  writer->Bool(config.ablation.model_friendship);
  writer->Bool(config.ablation.model_diffusion);
  writer->U64(config.seed);
}

Status DecodeConfig(WireReader* reader, CpdConfig* config) {
  config->num_communities = reader->I32();
  config->num_topics = reader->I32();
  config->alpha = reader->F64();
  config->rho = reader->F64();
  config->beta = reader->F64();
  const uint8_t popularity = reader->U8();
  const uint8_t sampler = reader->U8();
  config->mh_steps = reader->I32();
  config->cache_eta_collapse = reader->Bool();
  config->ablation.joint_profiling = reader->Bool();
  config->ablation.heterogeneous_links = reader->Bool();
  config->ablation.individual_factor = reader->Bool();
  config->ablation.topic_factor = reader->Bool();
  config->ablation.model_friendship = reader->Bool();
  config->ablation.model_diffusion = reader->Bool();
  config->seed = reader->U64();
  CPD_RETURN_IF_ERROR(reader->status());
  if (popularity > static_cast<uint8_t>(PopularityMode::kLog1p)) {
    return Status::InvalidArgument("wire config: bad popularity mode");
  }
  if (sampler > static_cast<uint8_t>(SamplerMode::kSparse)) {
    return Status::InvalidArgument("wire config: bad sampler mode");
  }
  config->popularity_mode = static_cast<PopularityMode>(popularity);
  config->sampler_mode = static_cast<SamplerMode>(sampler);
  // Worker-side execution is always one serial slot; threading/sharding
  // decisions live on the coordinator.
  config->num_threads = 1;
  config->executor_mode = ExecutorMode::kSerial;
  return Status::OK();
}

// ----- graph -----

void EncodeGraph(const SocialGraph& graph, WireWriter* writer) {
  writer->U64(graph.num_users());
  writer->U64(graph.vocabulary_size());
  writer->U64(graph.num_documents());
  for (size_t d = 0; d < graph.num_documents(); ++d) {
    const Document& doc = graph.document(static_cast<DocId>(d));
    writer->I32(doc.user);
    writer->I32(doc.time);
    writer->Vec(doc.words);
  }
  writer->U64(graph.num_friendship_links());
  for (const FriendshipLink& link : graph.friendship_links()) {
    writer->I32(link.u);
    writer->I32(link.v);
  }
  writer->U64(graph.num_diffusion_links());
  for (const DiffusionLink& link : graph.diffusion_links()) {
    writer->I32(link.i);
    writer->I32(link.j);
    writer->I32(link.time);
  }
}

StatusOr<SocialGraph> DecodeGraph(WireReader* reader) {
  const uint64_t num_users = reader->U64();
  const uint64_t vocab_size = reader->U64();
  const uint64_t num_docs = reader->U64();
  CPD_RETURN_IF_ERROR(reader->status());
  if (num_docs > reader->remaining() / 8) {
    return Status::OutOfRange("wire graph: truncated document section");
  }

  GraphBuilder builder;
  builder.SetNumUsers(static_cast<size_t>(num_users));
  // The kernels only ever see word *ids*, so the rebuilt vocabulary is an
  // anonymous one of the same size — the ids (and the token counters the
  // corpus maintains) line up with the coordinator's exactly.
  Vocabulary vocab;
  for (uint64_t w = 0; w < vocab_size; ++w) {
    vocab.GetOrAdd("w" + std::to_string(w));
  }
  builder.SetVocabulary(std::move(vocab));

  std::vector<WordId> words;
  for (uint64_t d = 0; d < num_docs; ++d) {
    const int32_t user = reader->I32();
    const int32_t time = reader->I32();
    reader->Vec(&words);
    CPD_RETURN_IF_ERROR(reader->status());
    if (user < 0 || static_cast<uint64_t>(user) >= num_users) {
      return Status::InvalidArgument("wire graph: document user out of range");
    }
    for (const WordId w : words) {
      if (w < 0 || static_cast<uint64_t>(w) >= vocab_size) {
        return Status::InvalidArgument("wire graph: word id out of range");
      }
    }
    const DocId id = builder.AddTokenizedDocument(user, time, words);
    if (id != static_cast<DocId>(d)) {
      return Status::InvalidArgument(
          "wire graph: document ids did not round-trip (min-length filter?)");
    }
  }

  const uint64_t num_friend = reader->U64();
  CPD_RETURN_IF_ERROR(reader->status());
  if (num_friend > reader->remaining() / 8) {
    return Status::OutOfRange("wire graph: truncated friendship section");
  }
  for (uint64_t f = 0; f < num_friend; ++f) {
    const int32_t u = reader->I32();
    const int32_t v = reader->I32();
    if (!reader->ok()) break;
    if (u < 0 || v < 0 || static_cast<uint64_t>(u) >= num_users ||
        static_cast<uint64_t>(v) >= num_users) {
      return Status::InvalidArgument("wire graph: friendship out of range");
    }
    builder.AddFriendship(u, v);
  }

  const uint64_t num_diffusion = reader->U64();
  CPD_RETURN_IF_ERROR(reader->status());
  if (num_diffusion > reader->remaining() / 12) {
    return Status::OutOfRange("wire graph: truncated diffusion section");
  }
  for (uint64_t e = 0; e < num_diffusion; ++e) {
    const int32_t i = reader->I32();
    const int32_t j = reader->I32();
    const int32_t time = reader->I32();
    if (!reader->ok()) break;
    if (i < 0 || j < 0 || static_cast<uint64_t>(i) >= num_docs ||
        static_cast<uint64_t>(j) >= num_docs || time < 0) {
      return Status::InvalidArgument("wire graph: diffusion out of range");
    }
    builder.AddDiffusion(i, j, time);
  }
  CPD_RETURN_IF_ERROR(reader->status());

  // The encoded graph was already built once, so every id is final: a
  // dropping rebuild could only corrupt the mapping.
  auto graph = builder.Build(/*drop_isolated_users=*/false);
  if (!graph.ok()) return graph.status();
  if (graph->num_friendship_links() != num_friend ||
      graph->num_diffusion_links() != num_diffusion) {
    return Status::InvalidArgument(
        "wire graph: links did not round-trip (duplicates or self-loops)");
  }
  return graph;
}

// ----- Setup -----

std::string SetupMsg::Encode(
    const CpdConfig& config, const SocialGraph& graph,
    const std::vector<std::vector<UserId>>& shard_users) {
  std::string out;
  WireWriter writer(&out);
  EncodeConfig(config, &writer);
  EncodeGraph(graph, &writer);
  writer.U64(shard_users.size());
  for (const std::vector<UserId>& users : shard_users) {
    writer.Vec(users);
  }
  return out;
}

StatusOr<SetupMsg> SetupMsg::Decode(std::string_view body) {
  WireReader reader(body);
  SetupMsg msg;
  CPD_RETURN_IF_ERROR(DecodeConfig(&reader, &msg.config));
  auto graph = DecodeGraph(&reader);
  if (!graph.ok()) return graph.status();
  msg.graph = std::move(*graph);
  const uint64_t num_shards = reader.U64();
  CPD_RETURN_IF_ERROR(reader.status());
  if (num_shards < 1 || num_shards > reader.remaining() + 1) {
    return Status::InvalidArgument("wire setup: bad shard count");
  }
  msg.shard_users.resize(num_shards);
  for (uint64_t s = 0; s < num_shards; ++s) {
    reader.Vec(&msg.shard_users[s]);
    CPD_RETURN_IF_ERROR(reader.status());
    for (const UserId u : msg.shard_users[s]) {
      if (u < 0 || static_cast<size_t>(u) >= msg.graph.num_users()) {
        return Status::InvalidArgument("wire setup: plan user out of range");
      }
    }
  }
  CPD_RETURN_IF_ERROR(reader.ExpectDone());
  return msg;
}

// ----- RNG state -----

void EncodeRngState(const Rng::State& state, WireWriter* writer) {
  for (int i = 0; i < 4; ++i) writer->U64(state.s[i]);
  writer->Bool(state.has_cached_gaussian);
  writer->F64(state.cached_gaussian);
}

Rng::State DecodeRngState(WireReader* reader) {
  Rng::State state;
  for (int i = 0; i < 4; ++i) state.s[i] = reader->U64();
  state.has_cached_gaussian = reader->Bool();
  state.cached_gaussian = reader->F64();
  return state;
}

// ----- SweepBegin -----

std::string SweepBeginMsg::Encode(uint64_t sweep, const KernelFlags& flags,
                                  const StateSnapshot& snapshot,
                                  bool include_parameters) {
  std::string out;
  WireWriter writer(&out);
  writer.U64(sweep);
  writer.Bool(flags.freeze_communities);
  writer.Bool(flags.community_uses_content);
  writer.Bool(flags.community_uses_diffusion);
  writer.Bool(include_parameters);
  if (include_parameters) snapshot.EncodeParameters(&writer);
  snapshot.EncodeSweepState(&writer);
  return out;
}

StatusOr<SweepBeginMsg> SweepBeginMsg::Decode(std::string_view body,
                                              StateSnapshot* snapshot) {
  WireReader reader(body);
  SweepBeginMsg msg;
  msg.sweep = reader.U64();
  msg.flags.freeze_communities = reader.Bool();
  msg.flags.community_uses_content = reader.Bool();
  msg.flags.community_uses_diffusion = reader.Bool();
  msg.has_parameters = reader.Bool();
  CPD_RETURN_IF_ERROR(reader.status());
  if (msg.has_parameters) {
    CPD_RETURN_IF_ERROR(snapshot->DecodeParameters(&reader));
  }
  CPD_RETURN_IF_ERROR(snapshot->DecodeSweepState(&reader));
  CPD_RETURN_IF_ERROR(reader.ExpectDone());
  return msg;
}

// ----- RunShard / ShardResult -----

std::string RunShardMsg::Encode() const {
  std::string out;
  WireWriter writer(&out);
  writer.U64(sweep);
  writer.U32(shard);
  EncodeRngState(rng, &writer);
  return out;
}

StatusOr<RunShardMsg> RunShardMsg::Decode(std::string_view body) {
  WireReader reader(body);
  RunShardMsg msg;
  msg.sweep = reader.U64();
  msg.shard = reader.U32();
  msg.rng = DecodeRngState(&reader);
  CPD_RETURN_IF_ERROR(reader.ExpectDone());
  return msg;
}

std::string ShardResultMsg::Encode(const CounterDelta& delta) const {
  std::string out;
  WireWriter writer(&out);
  writer.U64(sweep);
  writer.U32(shard);
  EncodeRngState(rng, &writer);
  writer.F64(shard_seconds);
  writer.I64(mh.topic_proposals);
  writer.I64(mh.topic_accepts);
  writer.I64(mh.community_proposals);
  writer.I64(mh.community_accepts);
  writer.I64(collapse.hits);
  writer.I64(collapse.misses);
  delta.EncodeTo(&writer);
  return out;
}

StatusOr<ShardResultMsg> ShardResultMsg::Decode(std::string_view body,
                                                CounterDelta* delta) {
  WireReader reader(body);
  ShardResultMsg msg;
  msg.sweep = reader.U64();
  msg.shard = reader.U32();
  msg.rng = DecodeRngState(&reader);
  msg.shard_seconds = reader.F64();
  msg.mh.topic_proposals = reader.I64();
  msg.mh.topic_accepts = reader.I64();
  msg.mh.community_proposals = reader.I64();
  msg.mh.community_accepts = reader.I64();
  msg.collapse.hits = reader.I64();
  msg.collapse.misses = reader.I64();
  CPD_RETURN_IF_ERROR(reader.status());
  CPD_RETURN_IF_ERROR(delta->DecodeFrom(&reader));
  CPD_RETURN_IF_ERROR(reader.ExpectDone());
  return msg;
}

// ----- Error -----

std::string EncodeErrorBody(const std::string& message) {
  std::string out;
  WireWriter writer(&out);
  writer.Str(message);
  return out;
}

StatusOr<std::string> DecodeErrorBody(std::string_view body) {
  WireReader reader(body);
  std::string message = reader.Str();
  CPD_RETURN_IF_ERROR(reader.ExpectDone());
  return message;
}

}  // namespace cpd::dist
