#include "harness.h"

#include <sys/vfs.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "obs/json.h"

namespace perfbench {

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Samples::Mean() const {
  if (values_.empty()) return 0;
  double sum = 0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

namespace {

/// The q-quantile of `values`, interpolating between closest ranks.
double QuantileOf(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

/// Per-window buckets of `values` by `at_ns` over [from, to).
std::vector<std::vector<double>> Windows(const std::vector<double>& values,
                                         const std::vector<int64_t>& at_ns,
                                         int64_t from_ns, int64_t to_ns,
                                         size_t windows) {
  std::vector<std::vector<double>> out(std::max<size_t>(1, windows));
  const double width =
      static_cast<double>(to_ns - from_ns) / static_cast<double>(out.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (at_ns[i] < from_ns || at_ns[i] >= to_ns || width <= 0) continue;
    const size_t w = std::min(
        out.size() - 1, static_cast<size_t>((at_ns[i] - from_ns) / width));
    out[w].push_back(values[i]);
  }
  return out;
}

}  // namespace

double Samples::WindowedPercentile(double q, int64_t from_ns,
                                   int64_t to_ns) const {
  const size_t windows = std::clamp<size_t>(
      std::min<size_t>(values_.size() / kWindowSamples,
                       static_cast<size_t>((to_ns - from_ns) / kWindowNs)),
      1, 1000);
  std::vector<double> per_window;
  for (std::vector<double>& bucket :
       Windows(values_, at_ns_, from_ns, to_ns, windows)) {
    if (bucket.empty()) continue;
    std::sort(bucket.begin(), bucket.end());
    size_t rank = static_cast<size_t>(std::ceil(q * bucket.size()));
    rank = std::clamp<size_t>(rank, 1, bucket.size());
    per_window.push_back(bucket[rank - 1]);
  }
  return QuantileOf(std::move(per_window), kBestShare);
}

double Samples::WindowedRate(int64_t from_ns, int64_t to_ns) const {
  const size_t windows = std::clamp<size_t>(
      static_cast<size_t>((to_ns - from_ns) / 1'000'000'000), 1, 60);
  const double window_s = (to_ns - from_ns) / 1e9 / windows;
  std::vector<double> rates;
  for (const std::vector<double>& bucket :
       Windows(values_, at_ns_, from_ns, to_ns, windows)) {
    rates.push_back(window_s > 0 ? bucket.size() / window_s : 0);
  }
  return QuantileOf(std::move(rates), 1 - kBestShare);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::AddLatency(const std::string& prefix, const Samples& samples,
                        int64_t from_ns, int64_t to_ns) {
  Add(prefix + "_p50_us", samples.WindowedPercentile(0.50, from_ns, to_ns),
      "us", samples.count());
  Add(prefix + "_p99_us", samples.WindowedPercentile(0.99, from_ns, to_ns),
      "us", samples.count());
}

bool Report::Has(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

double Report::Get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return 0;
}

std::string Report::ToJson(bool with_samples) const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ",";
    out += deddb::obs::JsonQuote(m.name) + ":{\"value\":" +
           FormatNumber(m.value) + ",\"unit\":" + deddb::obs::JsonQuote(m.unit);
    if (with_samples && m.samples > 0) {
      out += ",\"samples\":" + std::to_string(m.samples);
    }
    out += "}";
  }
  return out + "}";
}

void OracleTally::Check(const char* name, bool ok, const std::string& detail) {
  Entry& entry = entries_[name];
  ++entry.checks;
  if (!ok) {
    if (entry.failures == 0) entry.first_failure = detail;
    ++entry.failures;
  }
}

void OracleTally::Merge(const OracleTally& other) {
  for (const auto& [name, theirs] : other.entries_) {
    Entry& mine = entries_[name];
    if (mine.failures == 0 && theirs.failures > 0) {
      mine.first_failure = theirs.first_failure;
    }
    mine.checks += theirs.checks;
    mine.failures += theirs.failures;
  }
}

bool OracleTally::AllPassed() const {
  for (const auto& [name, entry] : entries_) {
    if (entry.checks == 0 || entry.failures > 0) return false;
  }
  return true;
}

std::string OracleTally::Summary() const {
  std::string out;
  for (const auto& [name, entry] : entries_) {
    out += "oracle " + name + ": " +
           (entry.checks == 0      ? std::string("NOT RUN")
            : entry.failures == 0 ? std::string("ok")
                                  : "FAILED " + std::to_string(entry.failures) +
                                        " (" + entry.first_failure + ")") +
           " [" + std::to_string(entry.checks) + " checks]\n";
  }
  return out;
}

std::string OracleTally::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : entries_) {
    if (!first) out += ",";
    first = false;
    out += deddb::obs::JsonQuote(name) +
           ":{\"checks\":" + std::to_string(entry.checks) +
           ",\"failures\":" + std::to_string(entry.failures) + "}";
  }
  return out + "}";
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const SpanLog::Span& span : log->spans()) {
      origin = std::min(origin, span.start_ns);
    }
  }
  std::ofstream out(path);
  if (!out) return false;
  for (const SpanLog* log : logs) {
    for (const SpanLog::Span& span : log->spans()) {
      out << "{\"trace\":" << span.trace
          << ",\"name\":" << deddb::obs::JsonQuote(span.name)
          << ",\"start_us\":" << FormatNumber((span.start_ns - origin) / 1e3)
          << ",\"dur_us\":" << FormatNumber(span.duration_ns / 1e3) << "}\n";
    }
  }
  return static_cast<bool>(out);
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

std::string FilesystemOf(const std::string& dir) {
  struct statfs info;
  if (::statfs(dir.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x65735546: return "fuse";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buf;
    }
  }
}

std::string ProvenanceJson(const std::string& source_id, uint64_t seed,
                           const std::string& db_dir, bool persistent) {
  using deddb::obs::JsonQuote;
  return std::string("{\"hardware_threads\":") +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"build_type\":" + JsonQuote(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + JsonQuote(__VERSION__) +
         ",\"source\":" + JsonQuote(source_id) +
         ",\"seed\":" + std::to_string(seed) +
         ",\"db_filesystem\":" +
         JsonQuote(persistent ? FilesystemOf(db_dir) : "in-memory") +
         ",\"flush_policy\":" +
         JsonQuote(persistent ? "group commit on, fsync per group"
                              : "none (in-memory)") +
         "}";
}

}  // namespace perfbench
