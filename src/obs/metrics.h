#ifndef DEDDB_OBS_METRICS_H_
#define DEDDB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace deddb::obs {

/// A counter cell of a MetricsRegistry, reached through a handle from
/// MetricsRegistry::GetCounter. Add is one relaxed atomic increment, with no
/// lock and no lookup, so hot paths (the server's per-request counts, the
/// CDC fan-out) can record into the registry directly.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A gauge cell of a MetricsRegistry; see Counter.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A registry of named counters, gauges and histograms — the sink the
/// scattered per-component stats structs (EvaluationStats, UpwardStats,
/// DownwardStats, the ResourceGuard charge counters) flush into, behind
/// their existing compatibility accessors.
///
/// Naming scheme (DESIGN.md §7): dotted lowercase `component.measure`, e.g.
/// `eval.rounds`, `upward.events_found`, `dnf.conjuncts_built`,
/// `processor.transactions_accepted`.
///
/// Determinism contract: instrumented code records only at *merge points* —
/// single-threaded completion points such as the end of a fixpoint, an
/// interpreter entry returning, or the round-barrier merge — never from
/// inside ThreadPool work items. Recorded values are structural counts, not
/// wall times. Together these make RenderText()/ToJson() byte-identical for
/// every `num_threads` >= 1 (verified by tests/trace_parallel_test.cc).
///
/// Thread-safety: the named methods lock, and handles are atomic cells, so
/// concurrent recording is safe even where the determinism contract does
/// not hold.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The cell of the counter / gauge `name`, created at zero on first use
  /// (so it renders from then on). The pointer stays valid for the
  /// registry's lifetime; the named Add/Set below reach the same cell.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);

  /// Adds `delta` to the counter `name` (created at zero on first use).
  void Add(std::string_view name, uint64_t delta = 1);
  /// Sets the gauge `name` to `value`.
  void Set(std::string_view name, int64_t value);
  /// Records one observation into the histogram `name`.
  void Observe(std::string_view name, int64_t value);

  uint64_t counter(std::string_view name) const;
  int64_t gauge(std::string_view name) const;

  struct HistogramSnapshot {
    uint64_t count = 0;
    int64_t sum = 0;
    int64_t min = 0;
    int64_t max = 0;
  };
  HistogramSnapshot histogram(std::string_view name) const;

  /// Deterministic text snapshot, one metric per line, sorted by name:
  ///   counter eval.rounds 12
  ///   gauge processor.facts 200
  ///   histogram dnf.result_disjuncts count=3 sum=7 min=1 max=4
  std::string RenderText() const;

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,
  /// max}}}, keys sorted.
  std::string ToJson() const;

  // ---- Nullable-pointer conveniences ---------------------------------------
  // Instrumentation sites store `MetricsRegistry*` with nullptr meaning
  // "disabled"; these keep call sites to one line and one pointer test.
  static void Add(MetricsRegistry* metrics, std::string_view name,
                  uint64_t delta = 1) {
    if (metrics != nullptr) metrics->Add(name, delta);
  }
  static void Set(MetricsRegistry* metrics, std::string_view name,
                  int64_t value) {
    if (metrics != nullptr) metrics->Set(name, value);
  }
  static void Observe(MetricsRegistry* metrics, std::string_view name,
                      int64_t value) {
    if (metrics != nullptr) metrics->Observe(name, value);
  }

 private:
  struct Histogram {
    uint64_t count = 0;
    int64_t sum = 0;
    int64_t min = 0;
    int64_t max = 0;
  };

  mutable std::mutex mu_;
  // std::map nodes never move, which is what keeps handles valid.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace deddb::obs

#endif  // DEDDB_OBS_METRICS_H_
