#include "bench_util.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/trace.h"

namespace cpdbench {

double RunOptions::Param(const std::string& key) const {
  const cpd::Json* value = params.Find(key);
  if (value == nullptr || !value->is_number()) {
    std::fprintf(stderr, "workloads.json: %s.%s is missing or not a number\n",
                 workload.c_str(), key.c_str());
    std::exit(2);
  }
  return value->number();
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  // splitmix64 finalizer over (seed, salt).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double TailQuantile(size_t count) {
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if ((1.0 - q) * static_cast<double>(count) >= 10.0 - 1e-9) return q;
  }
  return 0.5;
}

namespace {

std::string FieldString(const cpd::Json& object, const char* key) {
  const cpd::Json* value = object.Find(key);
  return value != nullptr && value->is_string() ? value->string_value() : "";
}

}  // namespace

double FieldNumber(const cpd::Json& object, const char* key) {
  const cpd::Json* value = object.Find(key);
  return value != nullptr && value->is_number() ? value->number() : 0.0;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

double PeakRssMb(pid_t pid) {
  const std::string status =
      ReadWholeFile("/proc/" + std::to_string(pid) + "/status");
  const size_t at = status.find("VmHWM:");
  if (at == std::string::npos) return 0.0;
  return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;
}

double ProcessCpuSeconds(pid_t pid) {
  const std::string stat =
      ReadWholeFile("/proc/" + std::to_string(pid) + "/stat");
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

int CpuCount() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void Result::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Result::Fail(const std::string& what) {
  if (failures_.size() < 20) {
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
  failures_.push_back(what);
}

void Result::Print() const {
  std::printf("%-36s %16s  %s\n", "metric", "value", "unit");
  for (const auto& [name, metric] : metrics_) {
    std::printf("%-36s %16.6g  %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("attempted %lld, failed %lld, output checks %s (%zu failed)\n",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_),
              failures_.empty() ? "passed" : "FAILED", failures_.size());
  cpd::Json metrics = cpd::Json::MakeObject();
  for (const auto& [name, metric] : metrics_) {
    cpd::Json entry = cpd::Json::MakeObject();
    entry.Set("value", cpd::Json(metric.value));
    entry.Set("unit", cpd::Json(metric.unit));
    metrics.Set(name, std::move(entry));
  }
  cpd::Json out = cpd::Json::MakeObject();
  out.Set("correct", cpd::Json(failures_.empty()));
  out.Set("attempted", cpd::Json(attempted_));
  out.Set("failed", cpd::Json(failed_));
  out.Set("metrics", std::move(metrics));
  std::printf("%s\n", out.Dump().c_str());
  std::fflush(stdout);
}

double UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (!open || start > cur_end) {
      if (open) total += static_cast<double>(cur_end - cur_start);
      cur_start = start;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) total += static_cast<double>(cur_end - cur_start);
  return total;
}

void SpanLog::NameRow(int tid, const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  rows_[tid] = name;
}

int64_t SpanLog::Add(const std::string& name, int tid, int64_t start_us,
                     int64_t end_us, int64_t parent, cpd::Json args) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, tid, start_us, end_us, parent, std::move(args)});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::Import(const std::string& trace_json, int tid_offset,
                     const std::vector<int64_t>& parents,
                     std::string (*row_prefix)(int tid)) {
  auto parsed = cpd::Json::Parse(trace_json);
  if (!parsed.ok()) return;
  const cpd::Json* events = parsed->Find("traceEvents");
  if (events == nullptr || !events->is_array()) return;
  std::vector<Span> parent_spans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const int64_t id : parents) {
      parent_spans.push_back(spans_[static_cast<size_t>(id)]);
    }
  }
  for (const cpd::Json& event : events->items()) {
    const std::string ph = FieldString(event, "ph");
    const int original_tid = static_cast<int>(FieldNumber(event, "tid"));
    const int tid = original_tid + tid_offset;
    if (ph == "M") {
      const cpd::Json* args = event.Find("args");
      if (args != nullptr) {
        NameRow(tid, "trainer: " + FieldString(*args, "name"));
      }
      continue;
    }
    if (ph != "X") continue;
    const int64_t ts = static_cast<int64_t>(FieldNumber(event, "ts"));
    const int64_t dur = static_cast<int64_t>(FieldNumber(event, "dur"));
    int64_t parent = kNoParent;
    int64_t best = INT64_MAX;
    for (size_t i = 0; i < parents.size(); ++i) {
      const Span& candidate = parent_spans[i];
      if (candidate.start_us <= ts && ts + dur <= candidate.end_us &&
          candidate.end_us - candidate.start_us < best) {
        best = candidate.end_us - candidate.start_us;
        parent = parents[i];
      }
    }
    const cpd::Json* args = event.Find("args");
    Add(row_prefix(original_tid) + FieldString(event, "name"), tid, ts,
        ts + dur, parent,
        args != nullptr ? *args : cpd::Json());
  }
}

std::vector<std::vector<size_t>> SpanLog::Children() const {
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kNoParent) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  return children;
}

double SpanLog::ChildCoveredUs(
    size_t index, const std::vector<std::vector<size_t>>& children) const {
  const Span& span = spans_[index];
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (const size_t child : children[index]) {
    intervals.emplace_back(std::max(span.start_us, spans_[child].start_us),
                           std::min(span.end_us, spans_[child].end_us));
  }
  return UnionLength(std::move(intervals));
}

double SpanLog::SelfSeconds(const std::string& name, int64_t begin_us,
                            int64_t end_us) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto children = Children();
  double total_us = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name || spans_[i].start_us < begin_us ||
        spans_[i].start_us >= end_us) {
      continue;
    }
    total_us += static_cast<double>(spans_[i].end_us - spans_[i].start_us) -
                ChildCoveredUs(i, children);
  }
  return total_us * 1e-6;
}

double SpanLog::TotalSeconds(const std::string& name, int64_t begin_us,
                             int64_t end_us) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total_us = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name && span.start_us >= begin_us &&
        span.start_us < end_us) {
      total_us += static_cast<double>(span.end_us - span.start_us);
    }
  }
  return total_us * 1e-6;
}

double SpanLog::LeafCoverageSeconds(int64_t begin_us, int64_t end_us) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto children = Children();
  std::vector<std::pair<int64_t, int64_t>> leaves;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (!children[i].empty()) continue;
    leaves.emplace_back(std::max(begin_us, spans_[i].start_us),
                        std::min(end_us, spans_[i].end_us));
  }
  return UnionLength(std::move(leaves)) * 1e-6;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool SpanLog::WriteFile(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  cpd::obs::TraceRecorder recorder;
  for (const auto& [tid, name] : rows_) recorder.SetThreadName(tid, name);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    cpd::Json args = span.args.is_object() ? span.args : cpd::Json::MakeObject();
    args.Set("span_id", cpd::Json(static_cast<int64_t>(i)));
    if (span.parent != kNoParent) args.Set("parent_id", cpd::Json(span.parent));
    recorder.AddSpan(span.name, span.tid, span.start_us,
                     span.end_us - span.start_us, std::move(args));
  }
  return recorder.WriteFile(path).ok();
}

void WriteTrace(const SpanLog& spans, const RunOptions& options,
                Result* result) {
  const std::filesystem::path dir =
      std::filesystem::path(options.work_dir) / "traces";
  std::filesystem::create_directories(dir);
  const std::string path =
      (dir / (options.workload + "-seed" + std::to_string(options.seed) + ".json"))
          .string();
  result->Check(spans.WriteFile(path), "cannot write " + path);
  std::printf("trace: %s (%zu spans)\n", path.c_str(), spans.size());
}

int64_t ScopedSpan::End() {
  if (!ended_) {
    ended_ = true;
    if (log_ != nullptr) {
      id_ = log_->Add(name_, tid_, start_us_, NowUs(), parent_);
    }
  }
  return id_;
}

}  // namespace cpdbench
