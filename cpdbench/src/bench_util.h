#ifndef CPDBENCH_BENCH_UTIL_H_
#define CPDBENCH_BENCH_UTIL_H_

// Shared plumbing of the repository benchmark: run options, sample
// statistics, process accounting (/proc), the result line, and the span log
// that turns calls into the system's public functions into a Perfetto trace
// and per-layer self times.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.h"

namespace cpdbench {

/// Command-line options plus the workload's pinned parameters (one section
/// of workloads.json, already resolved for the chosen size).
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string size = "full";
  std::string work_dir;  ///< Fixtures, per-run files and traces.
  std::string bin_dir;   ///< Directory holding cpd_serve / cpd_worker.
  cpd::Json params;      ///< The workload's pinned sizes, rates and limits.

  double Param(const std::string& key) const;
};

/// Derives an independent stream seed for one fixture from the run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

inline int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double NowSeconds() { return static_cast<double>(NowUs()) * 1e-6; }

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// The highest of 0.999 / 0.99 / 0.95 / 0.9 / 0.75 / 0.5 that leaves at
/// least ten samples beyond it (0.5 when there are fewer than 20 samples).
double TailQuantile(size_t count);

/// A numeric member of a JSON object; 0 when absent or not a number.
double FieldNumber(const cpd::Json& object, const char* key);
/// The bytes of a file; empty when unreadable.
std::string ReadWholeFile(const std::string& path);

/// Peak resident set (VmHWM) of a process, in MB; 0 when unreadable.
double PeakRssMb(pid_t pid);
/// User + system CPU seconds a process has consumed so far.
double ProcessCpuSeconds(pid_t pid);
int CpuCount();

/// The benchmark's result: named metrics with units, operation counts, and
/// the output checks. Printed as the last line of standard output.
class Result {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check (the run then reports correct=false).
  void Fail(const std::string& what);
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  void AddAttempted(int64_t n) { attempted_ += n; }
  void AddFailed(int64_t n) { failed_ += n; }
  /// Human-readable table on stdout, then the one-line JSON result.
  void Print() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Span log of a traced run. Each span has a name, a logical row, start and
/// end (steady-clock microseconds) and the span that caused it; the log
/// writes a Chrome trace-event file (Perfetto) and computes self times.
class SpanLog {
 public:
  static constexpr int64_t kNoParent = -1;

  void NameRow(int tid, const std::string& name);
  /// Records a completed span and returns its id.
  int64_t Add(const std::string& name, int tid, int64_t start_us,
              int64_t end_us, int64_t parent = kNoParent,
              cpd::Json args = cpd::Json());
  /// Imports the spans of a Chrome trace-event document (the trainer's own
  /// recorder), on rows offset by `tid_offset`, each name prefixed by
  /// `row_prefix(original row)`. Each imported span's parent is the
  /// innermost span of `parents` that contains it in time.
  void Import(const std::string& trace_json, int tid_offset,
              const std::vector<int64_t>& parents,
              std::string (*row_prefix)(int tid));

  /// Sum over spans named `name` that start in [begin_us, end_us) of
  /// duration minus the part covered by child spans, in seconds.
  double SelfSeconds(const std::string& name, int64_t begin_us = INT64_MIN,
                     int64_t end_us = INT64_MAX) const;
  /// Sum of the durations of those spans, in seconds.
  double TotalSeconds(const std::string& name, int64_t begin_us = INT64_MIN,
                      int64_t end_us = INT64_MAX) const;
  /// Seconds of [begin, end) covered by spans with no children.
  double LeafCoverageSeconds(int64_t begin_us, int64_t end_us) const;

  /// Writes {"traceEvents":[...]} through obs::TraceRecorder.
  bool WriteFile(const std::string& path) const;
  size_t size() const;

 private:
  struct Span {
    std::string name;
    int tid = 0;
    int64_t start_us = 0;
    int64_t end_us = 0;
    int64_t parent = kNoParent;
    cpd::Json args;
  };
  double ChildCoveredUs(size_t index,
                        const std::vector<std::vector<size_t>>& children) const;
  std::vector<std::vector<size_t>> Children() const;

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<int, std::string> rows_;
};

/// RAII span on a SpanLog; a null log makes it free.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int tid,
             int64_t parent = SpanLog::kNoParent)
      : log_(log), name_(std::move(name)), tid_(tid), parent_(parent),
        start_us_(NowUs()) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span now and returns its id (idempotent).
  int64_t End();

 private:
  SpanLog* log_;
  std::string name_;
  int tid_;
  int64_t parent_;
  int64_t start_us_;
  int64_t id_ = SpanLog::kNoParent;
  bool ended_ = false;
};

/// Writes the span log to <work_dir>/traces/<workload>-seed<N>.json.
void WriteTrace(const SpanLog& spans, const RunOptions& options,
                Result* result);

/// Union length of [start, end) intervals, in the intervals' unit.
double UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals);

}  // namespace cpdbench

#endif  // CPDBENCH_BENCH_UTIL_H_
