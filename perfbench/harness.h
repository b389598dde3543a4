#ifndef DEDDB_PERFBENCH_HARNESS_H_
#define DEDDB_PERFBENCH_HARNESS_H_

// Measurement plumbing shared by the workloads and the per-layer replay:
// latency samples with percentiles, named metric reports, oracle tallies,
// in-memory spans, and the provenance block.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Observations of one quantity (latencies in microseconds, mostly), each
/// optionally stamped with the time it was taken.
class Samples {
 public:
  void Add(double value, int64_t at_ns = 0) {
    values_.push_back(value);
    at_ns_.push_back(at_ns);
  }
  void Merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    at_ns_.insert(at_ns_.end(), other.at_ns_.begin(), other.at_ns_.end());
  }
  size_t count() const { return values_.size(); }
  /// Nearest-rank percentile, q in [0, 1]; 0 when empty.
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }
  double Mean() const;

  /// The run's q-quantile, made robust to a shared machine: [from, to) is
  /// cut into equal windows of at least kWindowNs, each holding
  /// kWindowSamples samples on average, and the kBestShare quantile of the
  /// windows' q-quantiles is returned. Contention only ever slows a
  /// window, so the run's best windows track the code, while a stall or a
  /// busy neighbour moves only the windows it hits. A slower code path
  /// slows every window, the best ones included.
  double WindowedPercentile(double q, int64_t from_ns, int64_t to_ns) const;
  /// The 1 - kBestShare quantile, over the one-second windows of
  /// [from, to), of samples per second (the same best-windows rule).
  double WindowedRate(int64_t from_ns, int64_t to_ns) const;

  /// The share of best windows (and set-ups) a figure is read from.
  static constexpr double kBestShare = 0.1;
  static constexpr size_t kWindowSamples = 250;
  static constexpr int64_t kWindowNs = 250'000'000;

 private:
  std::vector<double> values_;
  std::vector<int64_t> at_ns_;
};

/// An ordered set of named metrics, each with its unit and, for timings,
/// the number of samples it was computed from.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    uint64_t samples = 0;
  };

  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0);
  /// Windowed p50 and p99 of `samples` over [from, to) as
  /// `<prefix>_p50_us` / `<prefix>_p99_us`.
  void AddLatency(const std::string& prefix, const Samples& samples,
                  int64_t from_ns, int64_t to_ns);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// {"name":{"value":v,"unit":"u"},...}; with `with_samples`, timings also
  /// carry "samples".
  std::string ToJson(bool with_samples) const;

 private:
  std::vector<Metric> metrics_;
};

/// Pass/fail counts per named correctness check. Each thread keeps its own
/// tally; they are merged after the threads join.
class OracleTally {
 public:
  void Check(const char* name, bool ok, const std::string& detail = "");
  void Merge(const OracleTally& other);
  /// Registers a check that must run at least once.
  void Expect(const char* name) { entries_[name]; }
  bool AllPassed() const;
  std::string Summary() const;
  std::string ToJson() const;

 private:
  struct Entry {
    uint64_t checks = 0;
    uint64_t failures = 0;
    std::string first_failure;
  };
  std::map<std::string, Entry> entries_;
};

/// In-memory spans around the benchmark's calls into each layer. One log per
/// thread, bounded (spans past the capacity are not kept); written out when
/// the run ends.
class SpanLog {
 public:
  struct Span {
    uint64_t trace = 0;
    const char* name = nullptr;
    int64_t start_ns = 0;
    int64_t duration_ns = 0;
  };

  explicit SpanLog(size_t capacity = 1 << 14) : capacity_(capacity) {
    spans_.reserve(capacity_);
  }
  void Record(uint64_t trace, const char* name, int64_t start_ns,
              int64_t end_ns) {
    if (spans_.size() < capacity_) {
      spans_.push_back({trace, name, start_ns, end_ns - start_ns});
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  size_t capacity_;
  std::vector<Span> spans_;
};

/// Writes every span as one JSON line: trace, name, start (µs since the
/// earliest span) and duration. Returns false when the file cannot be
/// written.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

/// num / den, or 0 when den is not positive.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Shortest decimal that round-trips the double.
std::string FormatNumber(double value);

/// Name of the filesystem type holding `dir` (statfs magic), or "unknown".
std::string FilesystemOf(const std::string& dir);

/// The machine and build a result was produced on.
std::string ProvenanceJson(const std::string& source_id, uint64_t seed,
                           const std::string& db_dir, bool persistent);

}  // namespace perfbench

#endif  // DEDDB_PERFBENCH_HARNESS_H_
