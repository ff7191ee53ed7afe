#include "server/json_api.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "apps/community_ranking.h"
#include "ingest/ingest_pipeline.h"
#include "ingest/update_batch.h"
#include "obs/clock.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace cpd::server {

namespace {

/// Every integer the wire carries (ids, counts, time bins) fits int32; a
/// JSON number outside this window is a client error, and bounding the
/// double *before* the cast keeps hostile values (1e300) away from
/// undefined float-to-int conversions and silent int64→int32 truncation
/// (user 2^32+3 must be a 400, never user 3's profile).
constexpr double kMinWireInt = -2147483648.0;
constexpr double kMaxWireInt = 2147483647.0;

/// Decodes a JSON number field into an integer id, rejecting fractions
/// and out-of-range magnitudes.
StatusOr<int64_t> GetIntField(const Json& json, std::string_view key,
                              int64_t fallback, bool required = false) {
  const Json* field = json.Find(key);
  if (field == nullptr) {
    if (required) {
      return Status::InvalidArgument("missing field '" + std::string(key) +
                                     "'");
    }
    return fallback;
  }
  if (!field->is_number() || field->number() != std::floor(field->number())) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be an integer");
  }
  if (field->number() < kMinWireInt || field->number() > kMaxWireInt) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' is outside the 32-bit integer range");
  }
  return static_cast<int64_t>(field->number());
}

Json DoubleArrayToJson(const std::vector<double>& values) {
  Json array = Json::MakeArray();
  for (const double v : values) array.Append(Json(v));
  return array;
}

StatusOr<serve::MembershipRequest> MembershipFromJson(const Json& json) {
  serve::MembershipRequest request;
  auto user = GetIntField(json, "user", -1, /*required=*/true);
  if (!user.ok()) return user.status();
  request.user = static_cast<UserId>(*user);
  auto top_k = GetIntField(json, "top_k", request.top_k);
  if (!top_k.ok()) return top_k.status();
  request.top_k = static_cast<int>(*top_k);
  auto include = json.GetBool("include_distribution", false);
  if (!include.ok()) return include.status();
  request.include_distribution = *include;
  return request;
}

StatusOr<serve::RankCommunitiesRequest> RankFromJson(const Json& json,
                                                     const Vocabulary* vocab) {
  serve::RankCommunitiesRequest request;
  const Json* words = json.Find("words");
  const Json* query = json.Find("query");
  if (words != nullptr && query != nullptr) {
    return Status::InvalidArgument(
        "rank request takes 'words' or 'query', not both");
  }
  if (words != nullptr) {
    if (!words->is_array()) {
      return Status::InvalidArgument("field 'words' must be an array");
    }
    for (const Json& word : words->items()) {
      if (!word.is_number() || word.number() != std::floor(word.number()) ||
          word.number() < kMinWireInt || word.number() > kMaxWireInt) {
        return Status::InvalidArgument("'words' entries must be integer ids");
      }
      request.words.push_back(static_cast<WordId>(word.number()));
    }
  } else if (query != nullptr) {
    if (!query->is_string()) {
      return Status::InvalidArgument("field 'query' must be a string");
    }
    if (vocab == nullptr) {
      return Status::FailedPrecondition(
          "textual 'query' needs a vocabulary (serve a v2 artifact with a "
          "bundled vocabulary or pass --vocab); send word ids via 'words'");
    }
    request.words = CommunityRanker::ParseQuery(*vocab, query->string_value());
    if (request.words.empty()) {
      return Status::NotFound("no query term is in the vocabulary: " +
                              query->string_value());
    }
  } else {
    return Status::InvalidArgument("rank request needs 'words' or 'query'");
  }
  auto top_k = GetIntField(json, "top_k", request.top_k);
  if (!top_k.ok()) return top_k.status();
  request.top_k = static_cast<int>(*top_k);
  auto include = json.GetBool("include_topic_distribution",
                              request.include_topic_distribution);
  if (!include.ok()) return include.status();
  request.include_topic_distribution = *include;
  return request;
}

StatusOr<serve::DiffusionRequest> DiffusionFromJson(const Json& json) {
  serve::DiffusionRequest request;
  auto source = GetIntField(json, "source", -1, /*required=*/true);
  if (!source.ok()) return source.status();
  auto target = GetIntField(json, "target", -1, /*required=*/true);
  if (!target.ok()) return target.status();
  auto document = GetIntField(json, "document", -1, /*required=*/true);
  if (!document.ok()) return document.status();
  auto time_bin = GetIntField(json, "time_bin", 0);
  if (!time_bin.ok()) return time_bin.status();
  request.source = static_cast<UserId>(*source);
  request.target = static_cast<UserId>(*target);
  request.document = static_cast<DocId>(*document);
  request.time_bin = static_cast<int32_t>(*time_bin);
  return request;
}

StatusOr<serve::TopUsersRequest> TopUsersFromJson(const Json& json) {
  serve::TopUsersRequest request;
  auto community = GetIntField(json, "community", -1, /*required=*/true);
  if (!community.ok()) return community.status();
  request.community = static_cast<int>(*community);
  auto top_k = GetIntField(json, "top_k", request.top_k);
  if (!top_k.ok()) return top_k.status();
  request.top_k = static_cast<int>(*top_k);
  return request;
}

}  // namespace

namespace {

/// One service counter family and the /statsz field it is read back as
/// (docs/OBSERVABILITY.md catalogs every family; check_docs.sh enforces it).
struct CounterField {
  const char* field;
  const char* family;
  const char* help;
};

/// The {model}-labelled query counters: /statsz "service" sums them over
/// models, and each "models" row reads its own child.
enum QueryCounterId { kQueries, kBatchQueries, kQueryErrors };
constexpr CounterField kQueryCounters[] = {
    {"queries", "cpd_service_queries_total",
     "Single queries answered OK, per model."},
    {"batch_queries", "cpd_service_batch_queries_total",
     "Requests answered inside client batches, per model."},
    {"query_errors", "cpd_service_query_errors_total",
     "Typed per-query failures, per model."},
};

/// The ingest counters, in /statsz "service" order.
enum IngestCounterId {
  kIngests,
  kIngestFailures,
  kIngestedDocuments,
  kIngestedUsers,
  kIngestedLinks,
};
constexpr CounterField kIngestCounters[] = {
    {"ingests", "cpd_service_ingests_total",
     "Ingest batches applied and swapped in."},
    {"ingest_failures", "cpd_service_ingest_failures_total",
     "Rejected or failed ingest batches."},
    {"ingested_documents", "cpd_service_ingested_documents_total",
     "Documents added by ingest."},
    {"ingested_users", "cpd_service_ingested_users_total",
     "Users added by ingest."},
    {"ingested_links", "cpd_service_ingested_links_total",
     "Friendships plus diffusion links added by ingest."},
};

constexpr char kLatencyFamily[] = "cpd_query_latency_us";

obs::Counter* GetCounter(obs::MetricsRegistry* registry,
                         const CounterField& counter,
                         const obs::Labels& labels = {}) {
  return registry->GetCounter(counter.family, counter.help, labels);
}

}  // namespace

ServiceStats::ServiceStats() {
  // Pre-create the default model's children so a fresh scrape shows the
  // full catalog at zero instead of omitting untouched families.
  for (const CounterField& counter : kQueryCounters) {
    GetCounter(&registry_, counter, {{"model", kDefaultModel}});
  }
  for (const CounterField& counter : kIngestCounters) {
    GetCounter(&registry_, counter);
  }
  for (size_t type = 0; type < kNumQueryTypes; ++type) {
    latency_[type] = registry_.GetHistogram(
        kLatencyFamily,
        "Handler-side service time of one successful query, microseconds.",
        {{"query_type", kQueryTypeNames[type]}});
    for (size_t stage = 0; stage < kNumQueryStages; ++stage) {
      query_stage_[type][stage] = registry_.GetHistogram(
          "cpd_query_stage_us",
          "Per-stage breakdown of one query, microseconds.",
          {{"query_type", kQueryTypeNames[type]},
           {"stage", kQueryStageNames[stage]}});
    }
  }
}

void ServiceStats::CountQuery(const std::string& model) {
  GetCounter(&registry_, kQueryCounters[kQueries], {{"model", model}})
      ->Increment();
}

void ServiceStats::CountBatchQuery(const std::string& model) {
  GetCounter(&registry_, kQueryCounters[kBatchQueries], {{"model", model}})
      ->Increment();
}

void ServiceStats::CountQueryError(const std::string& model) {
  GetCounter(&registry_, kQueryCounters[kQueryErrors], {{"model", model}})
      ->Increment();
}

void ServiceStats::CountIngestSuccess(uint64_t documents, uint64_t users,
                                      uint64_t links) {
  GetCounter(&registry_, kIngestCounters[kIngests])->Increment();
  GetCounter(&registry_, kIngestCounters[kIngestedDocuments])
      ->Increment(documents);
  GetCounter(&registry_, kIngestCounters[kIngestedUsers])->Increment(users);
  GetCounter(&registry_, kIngestCounters[kIngestedLinks])->Increment(links);
}

void ServiceStats::CountIngestFailure() {
  GetCounter(&registry_, kIngestCounters[kIngestFailures])->Increment();
}

void ServiceStats::RecordLatency(size_t type, double micros) {
  if (type >= kNumQueryTypes) return;
  latency_[type]->Record(micros);
}

void ServiceStats::RecordQueryStage(size_t type, QueryStage stage,
                                    double micros) {
  if (type >= kNumQueryTypes) return;
  query_stage_[type][static_cast<size_t>(stage)]->Record(micros);
}

int HttpStatusForCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
      return 404;
    case StatusCode::kFailedPrecondition:
      return 409;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kUnimplemented:
      return 501;
    case StatusCode::kUnavailable:
      return 503;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kIOError:
    case StatusCode::kInternal:
      return 500;
  }
  return 500;
}

Json StatusToJson(const Status& status) {
  Json error = Json::MakeObject();
  error.Set("code", Json(StatusCodeToString(status.code())));
  error.Set("message", Json(status.message()));
  Json out = Json::MakeObject();
  out.Set("error", std::move(error));
  return out;
}

StatusOr<serve::QueryRequest> QueryRequestFromJson(const Json& json,
                                                   const Vocabulary* vocab) {
  if (!json.is_object()) {
    return Status::InvalidArgument("query request must be a JSON object");
  }
  if (json.Find("type") == nullptr) {
    // A missing selector is a malformed request (400), not a missing
    // resource (the NotFound that GetString would report maps to 404).
    return Status::InvalidArgument(
        "missing field 'type' (membership|rank|diffusion|top_users)");
  }
  auto type = json.GetString("type", "");
  if (!type.ok()) return type.status();
  if (*type == "membership") {
    auto request = MembershipFromJson(json);
    if (!request.ok()) return request.status();
    return serve::QueryRequest(std::move(*request));
  }
  if (*type == "rank") {
    auto request = RankFromJson(json, vocab);
    if (!request.ok()) return request.status();
    return serve::QueryRequest(std::move(*request));
  }
  if (*type == "diffusion") {
    auto request = DiffusionFromJson(json);
    if (!request.ok()) return request.status();
    return serve::QueryRequest(std::move(*request));
  }
  if (*type == "top_users") {
    auto request = TopUsersFromJson(json);
    if (!request.ok()) return request.status();
    return serve::QueryRequest(std::move(*request));
  }
  return Status::InvalidArgument(
      "unknown query type '" + *type +
      "' (membership|rank|diffusion|top_users)");
}

Json QueryRequestToJson(const serve::QueryRequest& request) {
  Json out = Json::MakeObject();
  if (const auto* membership =
          std::get_if<serve::MembershipRequest>(&request)) {
    out.Set("type", Json("membership"));
    out.Set("user", Json(static_cast<int64_t>(membership->user)));
    out.Set("top_k", Json(membership->top_k));
    out.Set("include_distribution", Json(membership->include_distribution));
  } else if (const auto* rank =
                 std::get_if<serve::RankCommunitiesRequest>(&request)) {
    out.Set("type", Json("rank"));
    Json words = Json::MakeArray();
    for (const WordId w : rank->words) {
      words.Append(Json(static_cast<int64_t>(w)));
    }
    out.Set("words", std::move(words));
    out.Set("top_k", Json(rank->top_k));
    out.Set("include_topic_distribution",
            Json(rank->include_topic_distribution));
  } else if (const auto* diffusion =
                 std::get_if<serve::DiffusionRequest>(&request)) {
    out.Set("type", Json("diffusion"));
    out.Set("source", Json(static_cast<int64_t>(diffusion->source)));
    out.Set("target", Json(static_cast<int64_t>(diffusion->target)));
    out.Set("document", Json(static_cast<int64_t>(diffusion->document)));
    out.Set("time_bin", Json(static_cast<int64_t>(diffusion->time_bin)));
  } else {
    const auto& top_users = std::get<serve::TopUsersRequest>(request);
    out.Set("type", Json("top_users"));
    out.Set("community", Json(top_users.community));
    out.Set("top_k", Json(top_users.top_k));
  }
  return out;
}

Json QueryResponseToJson(const serve::QueryResponse& response) {
  Json out = Json::MakeObject();
  if (const auto* membership =
          std::get_if<serve::MembershipResponse>(&response)) {
    out.Set("type", Json("membership"));
    Json top = Json::MakeArray();
    for (const serve::TopMembership& entry : membership->top) {
      Json item = Json::MakeObject();
      item.Set("community", Json(entry.community));
      item.Set("weight", Json(entry.weight));
      top.Append(std::move(item));
    }
    out.Set("top", std::move(top));
    if (!membership->distribution.empty()) {
      out.Set("distribution", DoubleArrayToJson(membership->distribution));
    }
  } else if (const auto* ranked =
                 std::get_if<serve::RankCommunitiesResponse>(&response)) {
    out.Set("type", Json("rank"));
    Json entries = Json::MakeArray();
    for (const serve::RankedCommunityEntry& entry : ranked->ranked) {
      Json item = Json::MakeObject();
      item.Set("community", Json(entry.community));
      item.Set("score", Json(entry.score));
      if (!entry.topic_distribution.empty()) {
        item.Set("topic_distribution",
                 DoubleArrayToJson(entry.topic_distribution));
      }
      entries.Append(std::move(item));
    }
    out.Set("ranked", std::move(entries));
  } else if (const auto* diffusion =
                 std::get_if<serve::DiffusionResponse>(&response)) {
    out.Set("type", Json("diffusion"));
    out.Set("probability", Json(diffusion->probability));
    out.Set("friendship_score", Json(diffusion->friendship_score));
  } else {
    const auto& top_users = std::get<serve::TopUsersResponse>(response);
    out.Set("type", Json("top_users"));
    Json users = Json::MakeArray();
    for (const UserId u : top_users.users) {
      users.Append(Json(static_cast<int64_t>(u)));
    }
    out.Set("users", std::move(users));
    out.Set("weights", DoubleArrayToJson(top_users.weights));
  }
  return out;
}

namespace {

HttpResponse JsonResponse(int status, const Json& json) {
  HttpResponse response;
  response.status = status;
  response.body = json.Dump();
  return response;
}

HttpResponse ErrorResponse(const Status& status) {
  return JsonResponse(HttpStatusForCode(status.code()), StatusToJson(status));
}

/// Registry name the request addresses: the {model} capture, or the
/// default-model alias.
std::string ModelNameFromRequest(const HttpRequest& http_request) {
  const auto it = http_request.path_params.find("model");
  return it == http_request.path_params.end() ? kDefaultModel : it->second;
}

HttpResponse NoModelResponse(const std::string& name) {
  return ErrorResponse(Status::Unavailable(
      name == kDefaultModel ? "no model loaded"
                            : "no model named '" + name + "' loaded"));
}

/// POST /v1/query and /v1/models/{model}/query: one typed request, or
/// {"batch":[...]}.
HttpResponse HandleQuery(const HttpRequest& http_request,
                         ModelRegistry* registry, ServiceStats* stats) {
  const std::string name = ModelNameFromRequest(http_request);
  const std::shared_ptr<const ServingModel> model = registry->Snapshot(name);
  if (model == nullptr) return NoModelResponse(name);
  const int64_t parse_start_us = obs::NowMicros();
  auto json = Json::Parse(http_request.body);
  if (!json.ok()) return ErrorResponse(json.status());
  const Vocabulary* vocab = model->vocabulary.get();

  const Json* batch = json->is_object() ? json->Find("batch") : nullptr;
  if (batch != nullptr) {
    if (!batch->is_array()) {
      return ErrorResponse(
          Status::InvalidArgument("field 'batch' must be an array"));
    }
    Json responses = Json::MakeArray();
    for (const Json& entry : batch->items()) {
      auto request = QueryRequestFromJson(entry, vocab);
      if (!request.ok()) {
        stats->CountQueryError(name);
        responses.Append(StatusToJson(request.status()));
        continue;
      }
      const int64_t slot_start_us = obs::NowMicros();
      auto response = model->engine->Query(*request);
      if (!response.ok()) {
        stats->CountQueryError(name);
        responses.Append(StatusToJson(response.status()));
        continue;
      }
      const double slot_us =
          static_cast<double>(obs::NowMicros() - slot_start_us);
      stats->CountBatchQuery(name);
      stats->RecordLatency(request->index(), slot_us);
      stats->RecordQueryStage(request->index(),
                              ServiceStats::QueryStage::kScoring, slot_us);
      responses.Append(QueryResponseToJson(*response));
    }
    Json out = Json::MakeObject();
    out.Set("responses", std::move(responses));
    return JsonResponse(200, out);
  }

  auto request = QueryRequestFromJson(*json, vocab);
  if (!request.ok()) {
    stats->CountQueryError(name);
    return ErrorResponse(request.status());
  }
  const size_t type = request->index();
  const int64_t parsed_us = obs::NowMicros();
  // The latency sample covers the scoring path, not JSON encode/decode.
  auto response = model->engine->Query(*request);
  if (!response.ok()) {
    stats->CountQueryError(name);
    return ErrorResponse(response.status());
  }
  const int64_t scored_us = obs::NowMicros();
  stats->CountQuery(name);
  stats->RecordLatency(type, static_cast<double>(scored_us - parsed_us));
  HttpResponse http_response = JsonResponse(200, QueryResponseToJson(*response));
  const int64_t serialized_us = obs::NowMicros();

  RequestTiming& timing = http_request.timing;
  timing.parse_us = static_cast<double>(parsed_us - parse_start_us);
  timing.scoring_us = static_cast<double>(scored_us - parsed_us);
  timing.serialize_us = static_cast<double>(serialized_us - scored_us);
  stats->RecordQueryStage(type, ServiceStats::QueryStage::kParse,
                          timing.parse_us);
  stats->RecordQueryStage(type, ServiceStats::QueryStage::kScoring,
                          timing.scoring_us);
  stats->RecordQueryStage(type, ServiceStats::QueryStage::kSerialize,
                          timing.serialize_us);
  return http_response;
}

/// Strict base-10 int32 parse for path/query components; mirrors the POST
/// body's validation so the GET shortcut cannot accept what the body
/// rejects (trailing junk, overflow).
StatusOr<int32_t> ParseWireInt(const std::string& text,
                               std::string_view what) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE ||
      value < static_cast<long long>(kMinWireInt) ||
      value > static_cast<long long>(kMaxWireInt)) {
    return Status::InvalidArgument(std::string(what) +
                                   " must be a 32-bit integer: " + text);
  }
  return static_cast<int32_t>(value);
}

/// GET /v1/membership/{user}?k=N&distribution=1 (bare or under a named
/// model).
HttpResponse HandleMembershipGet(const HttpRequest& http_request,
                                 ModelRegistry* registry,
                                 ServiceStats* stats) {
  const std::string name = ModelNameFromRequest(http_request);
  const std::shared_ptr<const ServingModel> model = registry->Snapshot(name);
  if (model == nullptr) return NoModelResponse(name);
  serve::MembershipRequest request;
  auto user = ParseWireInt(http_request.path_params.at("user"),
                           "user path segment");
  if (!user.ok()) return ErrorResponse(user.status());
  request.user = *user;
  const auto k = http_request.query.find("k");
  if (k != http_request.query.end()) {
    auto top_k = ParseWireInt(k->second, "query parameter 'k'");
    if (!top_k.ok()) return ErrorResponse(top_k.status());
    request.top_k = *top_k;
  }
  const auto distribution = http_request.query.find("distribution");
  request.include_distribution = distribution != http_request.query.end() &&
                                 distribution->second != "0";
  constexpr size_t kType = 0;  // MembershipRequest's variant index.
  const int64_t parsed_us = obs::NowMicros();
  auto response = model->engine->Membership(request);
  if (!response.ok()) {
    stats->CountQueryError(name);
    return ErrorResponse(response.status());
  }
  const int64_t scored_us = obs::NowMicros();
  stats->CountQuery(name);
  stats->RecordLatency(kType, static_cast<double>(scored_us - parsed_us));
  HttpResponse http_response = JsonResponse(
      200, QueryResponseToJson(serve::QueryResponse(std::move(*response))));
  RequestTiming& timing = http_request.timing;
  timing.scoring_us = static_cast<double>(scored_us - parsed_us);
  timing.serialize_us = static_cast<double>(obs::NowMicros() - scored_us);
  stats->RecordQueryStage(kType, ServiceStats::QueryStage::kScoring,
                          timing.scoring_us);
  stats->RecordQueryStage(kType, ServiceStats::QueryStage::kSerialize,
                          timing.serialize_us);
  return http_response;
}

/// GET /v1/models: every loaded model, name-sorted.
HttpResponse HandleListModels(ModelRegistry* registry) {
  Json models = Json::MakeArray();
  for (const ModelInfo& info : registry->ListModels()) {
    Json item = Json::MakeObject();
    item.Set("name", Json(info.name));
    item.Set("generation", Json(info.generation));
    item.Set("loaded_unix_ms", Json(info.loaded_unix_ms));
    item.Set("path", Json(info.path));
    models.Append(std::move(item));
  }
  Json out = Json::MakeObject();
  out.Set("models", std::move(models));
  return JsonResponse(200, out);
}

HttpResponse HandleHealthz(ModelRegistry* registry) {
  const std::shared_ptr<const ServingModel> model = registry->Snapshot();
  if (model == nullptr) {
    // The unified envelope, like every other non-2xx (a health prober only
    // needs the status code anyway).
    return NoModelResponse(kDefaultModel);
  }
  Json out = Json::MakeObject();
  out.Set("status", Json("serving"));
  out.Set("generation", Json(model->generation));
  out.Set("model", Json(model->source_path));
  return JsonResponse(200, out);
}

/// GET /statsz: every counter and latency row is read back from the
/// stack's metrics registry (the one /metricsz renders) under the original
/// field names; "reloads", "model" and "models" come from the
/// ModelRegistry.
HttpResponse HandleStatsz(ModelRegistry* registry, const ServiceStats* stats) {
  const obs::MetricsRegistry& metrics = *stats->registry();
  const auto child = [](const std::map<std::string, uint64_t>& by_label,
                        const std::string& label) {
    const auto it = by_label.find(label);
    return Json(it == by_label.end() ? uint64_t{0} : it->second);
  };

  Json server_json = Json::MakeObject();
  for (const TransportCounter& counter : TransportCounters()) {
    server_json.Set(counter.field,
                    counter.response_class == nullptr
                        ? Json(metrics.CounterTotal(counter.family))
                        : child(metrics.CounterByLabel(counter.family),
                                counter.response_class));
  }

  Json service_json = Json::MakeObject();
  for (const CounterField& counter : kQueryCounters) {
    service_json.Set(counter.field, Json(metrics.CounterTotal(counter.family)));
  }
  service_json.Set("reloads", Json(registry->reload_count()));
  service_json.Set("reload_failures", Json(registry->reload_failures()));
  for (const CounterField& counter : kIngestCounters) {
    service_json.Set(counter.field, Json(metrics.CounterTotal(counter.family)));
  }

  // Per-query-type service latency (what bench_query measures client-side):
  // lifetime counts, histogram-reconstructed p50/p99 microseconds (same
  // buckets /metricsz exposes; <= ~5% relative error).
  Json latency_json = Json::MakeObject();
  for (const char* type : ServiceStats::kQueryTypeNames) {
    const obs::Histogram* histogram =
        metrics.FindHistogram(kLatencyFamily, {{"query_type", type}});
    CPD_CHECK(histogram != nullptr);  // Registered by ServiceStats().
    const obs::Histogram::Snapshot snapshot = histogram->Snap();
    Json row = Json::MakeObject();
    row.Set("count", Json(snapshot.count));
    row.Set("p50_us", Json(snapshot.Percentile(0.5)));
    row.Set("p99_us", Json(snapshot.Percentile(0.99)));
    latency_json.Set(type, std::move(row));
  }
  service_json.Set("latency", std::move(latency_json));

  Json out = Json::MakeObject();
  out.Set("server", std::move(server_json));
  out.Set("service", std::move(service_json));
  const std::shared_ptr<const ServingModel> model = registry->Snapshot();
  if (model != nullptr) {
    // Kept as the default model's summary (pre-/v1/models consumers).
    Json model_json = Json::MakeObject();
    model_json.Set("generation", Json(model->generation));
    model_json.Set("path", Json(model->source_path));
    model_json.Set("loaded_unix_ms", Json(model->loaded_unix_ms));
    model_json.Set("communities", Json(model->index.num_communities()));
    model_json.Set("topics", Json(model->index.num_topics()));
    model_json.Set("users", Json(static_cast<uint64_t>(model->index.num_users())));
    model_json.Set("vocab",
                   Json(static_cast<uint64_t>(model->index.vocab_size())));
    model_json.Set("vocabulary_bundled", Json(model->vocabulary != nullptr));
    out.Set("model", std::move(model_json));
  }

  // Per-model counters: one row per registered model, joined with the
  // per-name query counters.
  std::vector<std::map<std::string, uint64_t>> per_model;
  for (const CounterField& counter : kQueryCounters) {
    per_model.push_back(metrics.CounterByLabel(counter.family));
  }
  Json models_json = Json::MakeObject();
  for (const ModelInfo& info : registry->ListModels()) {
    Json row = Json::MakeObject();
    row.Set("generation", Json(info.generation));
    row.Set("path", Json(info.path));
    row.Set("loaded_unix_ms", Json(info.loaded_unix_ms));
    for (size_t i = 0; i < per_model.size(); ++i) {
      row.Set(kQueryCounters[i].field, child(per_model[i], info.name));
    }
    models_json.Set(info.name, std::move(row));
  }
  out.Set("models", std::move(models_json));

  return JsonResponse(200, out);
}

/// GET /metricsz: Prometheus text exposition of the stack's metrics
/// registry (transport and service families), plus the model-registry
/// families, which are the ModelRegistry's own state and are rendered at
/// scrape time.
HttpResponse HandleMetricsz(ModelRegistry* registry,
                            const ServiceStats* stats) {
  std::string out = stats->registry()->ExpositionText();
  obs::AppendExpositionHeader(&out, "cpd_model_reloads_total",
                              "Successful model loads and hot-swaps.",
                              "counter");
  obs::AppendSampleLine(&out, "cpd_model_reloads_total", {},
                        static_cast<double>(registry->reload_count()));
  obs::AppendExpositionHeader(&out, "cpd_model_reload_failures_total",
                              "Failed model loads (old generation kept).",
                              "counter");
  obs::AppendSampleLine(&out, "cpd_model_reload_failures_total", {},
                        static_cast<double>(registry->reload_failures()));
  obs::AppendExpositionHeader(&out, "cpd_model_generation",
                              "Serving generation per loaded model.", "gauge");
  for (const ModelInfo& info : registry->ListModels()) {
    obs::AppendSampleLine(&out, "cpd_model_generation",
                          {{"model", info.name}},
                          static_cast<double>(info.generation));
  }

  HttpResponse response;
  response.status = 200;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = std::move(out);
  return response;
}

/// POST /admin/reload: re-read the current artifact, switch to the "path"
/// in the body, or patch the serving model with a ".cpdd" via "delta"
/// (mutually exclusive with "path"); an optional "model" field addresses
/// (or registers) a named model. In-flight requests keep their pre-swap
/// snapshot.
HttpResponse HandleReload(const HttpRequest& http_request,
                          ModelRegistry* registry) {
  std::string path;
  std::string delta_path;
  std::string name = kDefaultModel;
  if (!http_request.body.empty()) {
    auto json = Json::Parse(http_request.body);
    if (!json.ok()) return ErrorResponse(json.status());
    auto parsed = json->GetString("path", "");
    if (!parsed.ok()) return ErrorResponse(parsed.status());
    path = *parsed;
    auto delta = json->GetString("delta", "");
    if (!delta.ok()) return ErrorResponse(delta.status());
    delta_path = *delta;
    if (!path.empty() && !delta_path.empty()) {
      return ErrorResponse(Status::InvalidArgument(
          "fields 'path' and 'delta' are mutually exclusive (a delta "
          "patches the model already serving)"));
    }
    auto model = json->GetString("model", kDefaultModel);
    if (!model.ok()) return ErrorResponse(model.status());
    name = *model;
    if (name.empty()) {
      return ErrorResponse(
          Status::InvalidArgument("field 'model' must not be empty"));
    }
  }
  if (path.empty() && registry->path(name).empty()) {
    // Addressing a name that was never loaded is a client error, not a
    // server-side load failure (a delta also needs a base to patch).
    return ErrorResponse(Status::FailedPrecondition("no model named '" +
                                                    name + "' loaded yet"));
  }
  const Status status =
      !delta_path.empty() ? registry->LoadDeltaFrom(name, delta_path)
      : path.empty()      ? registry->Reload(name)
                          : registry->LoadFrom(name, path);
  if (!status.ok()) {
    // A failed reload is a server-side problem and the old model keeps
    // serving; surface it as 500 regardless of the typed code.
    return JsonResponse(500, StatusToJson(status));
  }
  Json out = Json::MakeObject();
  out.Set("status", Json("ok"));
  out.Set("name", Json(name));
  out.Set("generation", Json(registry->generation(name)));
  out.Set("model", Json(registry->path(name)));
  if (!delta_path.empty()) out.Set("delta", Json(delta_path));
  return JsonResponse(200, out);
}

/// POST /admin/ingest: apply an UpdateBatch to the live training state,
/// warm-start, write a fresh artifact, and swap it in. The merged graph is
/// published to the registry *before* the artifact load so the new
/// generation binds it (in-flight requests keep the old generation's graph).
HttpResponse HandleIngest(const HttpRequest& http_request,
                          ModelRegistry* registry, ServiceStats* stats,
                          ingest::IngestPipeline* pipeline) {
  if (pipeline == nullptr) {
    return ErrorResponse(Status::FailedPrecondition(
        "ingest disabled: cpd_serve was started without the training graph "
        "(--users/--docs/--friends/--diffusion)"));
  }
  // The pipeline serializes Ingest() itself, but the SetGraph + LoadFrom
  // publication below must not interleave between two concurrent batches
  // (a stale generation could land last); one lock covers the whole
  // apply-train-publish sequence.
  static std::mutex ingest_mutex;
  std::lock_guard<std::mutex> ingest_lock(ingest_mutex);
  auto json = Json::Parse(http_request.body);
  if (!json.ok()) {
    stats->CountIngestFailure();
    return ErrorResponse(json.status());
  }
  // Optional swap target; the batch decoder ignores unknown fields, so the
  // selector rides in the same body as the update rows.
  std::string name = kDefaultModel;
  if (json->is_object()) {
    auto model = json->GetString("model", kDefaultModel);
    if (!model.ok()) {
      stats->CountIngestFailure();
      return ErrorResponse(model.status());
    }
    name = *model;
    if (name.empty()) {
      stats->CountIngestFailure();
      return ErrorResponse(
          Status::InvalidArgument("field 'model' must not be empty"));
    }
  }
  auto batch = ingest::UpdateBatchFromJson(*json);
  if (!batch.ok()) {
    stats->CountIngestFailure();
    return ErrorResponse(batch.status());
  }
  auto result = pipeline->Ingest(*batch);
  if (!result.ok()) {
    stats->CountIngestFailure();
    // Client-caused failures (bad ids, malformed rows) keep their typed
    // status; pipeline-internal ones surface as the mapped 5xx/4xx code.
    return ErrorResponse(result.status());
  }
  const std::shared_ptr<const SocialGraph> previous_graph = registry->graph();
  registry->SetGraph(pipeline->graph());
  // Prefer shipping the delta when the pipeline wrote one and the serving
  // model is exactly the generation it patches (the swap is then
  // copy-on-write over the image already served); anything else — no
  // delta, lineage drift, a failed patch — falls back to the full artifact.
  Status swapped = Status::InvalidArgument("delta not applicable");
  bool via_delta = false;
  if (!result->delta_path.empty()) {
    const auto snapshot = registry->Snapshot(name);
    if (snapshot != nullptr &&
        snapshot->index.artifact_generation() + 1 == result->generation) {
      swapped = registry->LoadDeltaFrom(name, result->delta_path);
      via_delta = swapped.ok();
    }
  }
  if (!via_delta) swapped = registry->LoadFrom(name, result->artifact_path);
  if (!swapped.ok()) {
    // The artifact was produced but could not be served; the previous
    // generation keeps serving (same contract as a failed /admin/reload),
    // and the merged graph must not leak into a later reload of the old
    // artifact (old index + bigger graph would mismatch).
    registry->SetGraph(previous_graph);
    stats->CountIngestFailure();
    return JsonResponse(500, StatusToJson(swapped));
  }
  stats->CountIngestSuccess(
      result->counts.new_documents, result->counts.new_users,
      result->counts.new_friendships + result->counts.new_diffusions);

  Json ingested = Json::MakeObject();
  ingested.Set("documents",
               Json(static_cast<uint64_t>(result->counts.new_documents)));
  ingested.Set("dropped_documents",
               Json(static_cast<uint64_t>(result->counts.dropped_documents)));
  ingested.Set("users", Json(static_cast<uint64_t>(result->counts.new_users)));
  ingested.Set("friendships",
               Json(static_cast<uint64_t>(result->counts.new_friendships)));
  ingested.Set("diffusions",
               Json(static_cast<uint64_t>(result->counts.new_diffusions)));
  ingested.Set("words", Json(static_cast<uint64_t>(result->counts.new_words)));
  Json out = Json::MakeObject();
  out.Set("status", Json("ok"));
  out.Set("name", Json(name));
  out.Set("generation", Json(registry->generation(name)));
  out.Set("model", Json(result->artifact_path));
  if (!result->delta_path.empty()) {
    out.Set("delta", Json(result->delta_path));
    out.Set("swapped_via_delta", Json(via_delta));
  }
  out.Set("sequence", Json(result->sequence));
  out.Set("ingested", std::move(ingested));
  out.Set("warm_seconds", Json(result->warm_seconds));
  out.Set("total_seconds", Json(result->total_seconds));
  return JsonResponse(200, out);
}

}  // namespace

void RegisterCpdRoutes(HttpServer* server, ModelRegistry* registry,
                       ServiceStats* stats, ingest::IngestPipeline* pipeline) {
  // One metrics source per stack: the transport records where /statsz and
  // /metricsz read.
  CPD_CHECK(server->metrics() == stats->registry());
  server->Handle("POST", "/v1/query",
                 [registry, stats](const HttpRequest& request) {
                   return HandleQuery(request, registry, stats);
                 });
  server->Handle("POST", "/v1/models/{model}/query",
                 [registry, stats](const HttpRequest& request) {
                   return HandleQuery(request, registry, stats);
                 });
  server->Handle("GET", "/v1/membership/{user}",
                 [registry, stats](const HttpRequest& request) {
                   return HandleMembershipGet(request, registry, stats);
                 });
  server->Handle("GET", "/v1/models/{model}/membership/{user}",
                 [registry, stats](const HttpRequest& request) {
                   return HandleMembershipGet(request, registry, stats);
                 });
  server->Handle("GET", "/v1/models", [registry](const HttpRequest&) {
    return HandleListModels(registry);
  });
  server->Handle("GET", "/healthz", [registry](const HttpRequest&) {
    return HandleHealthz(registry);
  });
  server->Handle("GET", "/statsz", [registry, stats](const HttpRequest&) {
    return HandleStatsz(registry, stats);
  });
  server->Handle("GET", "/metricsz", [registry, stats](const HttpRequest&) {
    return HandleMetricsz(registry, stats);
  });
  server->Handle("POST", "/admin/reload",
                 [registry](const HttpRequest& request) {
                   return HandleReload(request, registry);
                 });
  server->Handle("POST", "/admin/ingest",
                 [registry, stats, pipeline](const HttpRequest& request) {
                   return HandleIngest(request, registry, stats, pipeline);
                 });
}

}  // namespace cpd::server
