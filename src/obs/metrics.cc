#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/json.h"
#include "util/logging.h"

namespace cpd::obs {

namespace {

/// Dense per-thread stripe assignment (round-robin, not hash: with few
/// threads a hash can collide every worker onto one stripe).
size_t StripeIndex() {
  static std::atomic<size_t> next{0};
  thread_local const size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % Histogram::kStripes;
  return index;
}

void AppendNumber(std::string* out, double value) {
  AppendJsonNumber(out, value);  // Canonical shortest round-trip form.
}

}  // namespace

std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string EscapeHelpText(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string RenderLabels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key;
    out += "=\"";
    out += EscapeLabelValue(value);
    out += "\"";
  }
  out += "}";
  return out;
}

void AppendExpositionHeader(std::string* out, const std::string& name,
                            const std::string& help, const char* type) {
  out->append("# HELP ");
  out->append(name);
  out->append(" ");
  out->append(EscapeHelpText(help));
  out->append("\n# TYPE ");
  out->append(name);
  out->append(" ");
  out->append(type);
  out->append("\n");
}

void AppendSampleLine(std::string* out, const std::string& name,
                      const Labels& labels, double value) {
  out->append(name);
  out->append(RenderLabels(labels));
  out->append(" ");
  AppendNumber(out, value);
  out->append("\n");
}

const std::vector<double>& Histogram::LatencyBoundsUs() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    // 1.1 growth from 1 us until the bound covers a 60 s observation; the
    // geometric-midpoint representative then errs by at most sqrt(1.1)-1
    // (~4.9%) anywhere in the range.
    for (double bound = 1.0; bound < 60e6 * 1.1; bound *= 1.1) {
      b.push_back(bound);
    }
    return b;
  }();
  return bounds;
}

Histogram::Histogram() : stripes_(std::make_unique<Stripe[]>(kStripes)) {
  const size_t num_buckets = LatencyBoundsUs().size() + 1;
  for (size_t s = 0; s < kStripes; ++s) {
    stripes_[s].buckets = std::vector<std::atomic<uint64_t>>(num_buckets);
  }
}

void Histogram::Record(double value) {
  const std::vector<double>& bounds = LatencyBoundsUs();
  // First bound >= value is the bucket; past the last bound -> +Inf bucket.
  const size_t index = static_cast<size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
  Stripe& stripe = stripes_[StripeIndex()];
  stripe.buckets[index].fetch_add(1, std::memory_order_relaxed);
  stripe.sum.fetch_add(value, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot snapshot;
  snapshot.buckets.assign(LatencyBoundsUs().size() + 1, 0);
  for (size_t s = 0; s < kStripes; ++s) {
    const Stripe& stripe = stripes_[s];
    for (size_t i = 0; i < snapshot.buckets.size(); ++i) {
      snapshot.buckets[i] +=
          stripe.buckets[i].load(std::memory_order_relaxed);
    }
    snapshot.sum += stripe.sum.load(std::memory_order_relaxed);
  }
  for (const uint64_t c : snapshot.buckets) snapshot.count += c;
  return snapshot;
}

double Histogram::Snapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  const std::vector<double>& bounds = LatencyBoundsUs();
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count))));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= target) {
      if (i == 0) return bounds.front() / 2.0;          // (0, b0] bucket.
      if (i == bounds.size()) return bounds.back();     // +Inf bucket.
      return std::sqrt(bounds[i - 1] * bounds[i]);      // Geometric midpoint.
    }
  }
  return bounds.back();
}

void AppendHistogramExposition(std::string* out, const std::string& name,
                               const Labels& labels,
                               const Histogram::Snapshot& snapshot) {
  const std::vector<double>& bounds = Histogram::LatencyBoundsUs();
  uint64_t cumulative = 0;
  Labels bucket_labels = labels;
  bucket_labels.emplace_back("le", "");
  for (size_t i = 0; i < bounds.size(); ++i) {
    cumulative += snapshot.buckets[i];
    std::string le;
    AppendNumber(&le, bounds[i]);
    bucket_labels.back().second = std::move(le);
    AppendSampleLine(out, name + "_bucket", bucket_labels,
                     static_cast<double>(cumulative));
  }
  cumulative += snapshot.buckets.back();
  bucket_labels.back().second = "+Inf";
  AppendSampleLine(out, name + "_bucket", bucket_labels,
                   static_cast<double>(cumulative));
  AppendSampleLine(out, name + "_sum", labels, snapshot.sum);
  AppendSampleLine(out, name + "_count", labels,
                   static_cast<double>(snapshot.count));
}

MetricsRegistry::Child* MetricsRegistry::GetChild(const std::string& name,
                                                  const std::string& help,
                                                  MetricType type,
                                                  const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [family_it, family_inserted] = families_.try_emplace(name);
  Family& family = family_it->second;
  if (family_inserted) {
    family.type = type;
    family.help = help;
  } else {
    CPD_CHECK(family.type == type)
        << "metric family '" << name << "' re-registered with another type";
  }
  auto [child_it, child_inserted] =
      family.children.try_emplace(RenderLabels(labels));
  Child& child = child_it->second;
  if (child_inserted) {
    child.labels = labels;
    switch (type) {
      case MetricType::kCounter:
        child.counter = std::make_unique<Counter>();
        break;
      case MetricType::kGauge:
        child.gauge = std::make_unique<Gauge>();
        break;
      case MetricType::kHistogram:
        child.histogram = std::make_unique<Histogram>();
        break;
    }
  }
  return &child;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     const Labels& labels) {
  return GetChild(name, help, MetricType::kCounter, labels)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help,
                                 const Labels& labels) {
  return GetChild(name, help, MetricType::kGauge, labels)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         const Labels& labels) {
  return GetChild(name, help, MetricType::kHistogram, labels)
      ->histogram.get();
}

uint64_t MetricsRegistry::CounterTotal(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = families_.find(name);
  if (it == families_.end() || it->second.type != MetricType::kCounter) {
    return 0;
  }
  uint64_t total = 0;
  for (const auto& [key, child] : it->second.children) {
    total += child.counter->value();
  }
  return total;
}

std::map<std::string, uint64_t> MetricsRegistry::CounterByLabel(
    const std::string& name) const {
  std::map<std::string, uint64_t> out;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = families_.find(name);
  if (it == families_.end() || it->second.type != MetricType::kCounter) {
    return out;
  }
  for (const auto& [key, child] : it->second.children) {
    if (child.labels.empty()) continue;
    out[child.labels.front().second] = child.counter->value();
  }
  return out;
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name,
                                                const Labels& labels) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = families_.find(name);
  if (it == families_.end() || it->second.type != MetricType::kHistogram) {
    return nullptr;
  }
  const auto child = it->second.children.find(RenderLabels(labels));
  return child == it->second.children.end() ? nullptr
                                            : child->second.histogram.get();
}

std::string MetricsRegistry::ExpositionText() const {
  std::string out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, family] : families_) {
    switch (family.type) {
      case MetricType::kCounter:
        AppendExpositionHeader(&out, name, family.help, "counter");
        for (const auto& [key, child] : family.children) {
          AppendSampleLine(&out, name, child.labels,
                           static_cast<double>(child.counter->value()));
        }
        break;
      case MetricType::kGauge:
        AppendExpositionHeader(&out, name, family.help, "gauge");
        for (const auto& [key, child] : family.children) {
          AppendSampleLine(&out, name, child.labels, child.gauge->value());
        }
        break;
      case MetricType::kHistogram:
        AppendExpositionHeader(&out, name, family.help, "histogram");
        for (const auto& [key, child] : family.children) {
          AppendHistogramExposition(&out, name, child.labels,
                                    child.histogram->Snap());
        }
        break;
    }
  }
  return out;
}

}  // namespace cpd::obs
