#ifndef DEDDB_UTIL_RESOURCE_GUARD_H_
#define DEDDB_UTIL_RESOURCE_GUARD_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>

#include "util/status.h"

namespace deddb {

/// A cooperative cancellation flag. The owner calls Cancel() (from any
/// thread); evaluation paths observe it through a ResourceGuard and unwind
/// with kCancelled. Reusable: Reset() re-arms the token.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Limits enforced by a ResourceGuard. Zero means "unlimited" for every
/// field, so a default-constructed guard is inert.
struct ResourceLimits {
  /// Wall-clock budget, measured from guard construction (or the last
  /// Restart()).
  std::chrono::nanoseconds deadline{0};
  /// Total derived facts an evaluation may add to its IDB.
  size_t max_derived_facts = 0;
  /// Total DNF conjuncts (terms) the downward interpretation may construct
  /// across all And/Negate products of one request — the hard cap on the
  /// worst-case-exponential expansion of §4.2.
  size_t max_dnf_terms = 0;
};

/// Shared resource governor for every long-running path of the library:
/// bottom-up fixpoints, body joins, the memoized query descent, the upward
/// and downward interpreters and the DNF algebra all carry an optional
/// `const ResourceGuard*` and unwind with a typed Status (kDeadlineExceeded,
/// kBudgetExceeded, kCancelled) when a limit fires.
///
/// Thread-safety: Check/CheckTick/Charge* may be called concurrently from
/// ThreadPool workers (counters are relaxed atomics; error messages mention
/// only the configured limit so every thread reports the identical status).
/// Construction and Restart() must not race with checks.
///
/// The charged counters double as partial-progress telemetry: after an
/// evaluation unwinds, the caller reads how far it got from the same guard
/// it passed in.
class ResourceGuard {
 public:
  /// An inert guard: never trips.
  ResourceGuard() { Restart(); }
  explicit ResourceGuard(ResourceLimits limits,
                         const CancellationToken* token = nullptr)
      : limits_(limits), token_(token) {
    Restart();
  }

  ResourceGuard(const ResourceGuard&) = delete;
  ResourceGuard& operator=(const ResourceGuard&) = delete;

  /// Re-arms the deadline (measured from now) and zeroes all counters, so
  /// one guard can govern a sequence of calls with a fresh budget each.
  void Restart();

  /// Replaces the limits, then re-arms — one long-lived guard serving a
  /// sequence of requests, each with its own budgets (the server's admission
  /// path). Same contract as Restart(): must not race with checks.
  void Restart(ResourceLimits limits) {
    limits_ = limits;
    Restart();
  }

  /// Full check: cancellation and deadline (one clock read). Use at coarse
  /// checkpoints — stratum/round barriers, interpreter entry points.
  Status Check() const;

  /// Cheap check for hot loops: cancellation always (one relaxed load);
  /// the clock only every kTickStride-th call. Use inside body-join steps
  /// and per-disjunct DNF work.
  Status CheckTick() const;

  /// Budget charges. Thread-safe; return kBudgetExceeded once the running
  /// total passes the limit. No clock is read.
  Status ChargeDerivedFacts(size_t n) const;
  Status ChargeDnfTerms(size_t n) const;

  // ---- Partial-progress telemetry -----------------------------------------
  size_t derived_facts_charged() const {
    return derived_facts_.load(std::memory_order_relaxed);
  }
  size_t dnf_terms_charged() const {
    return dnf_terms_.load(std::memory_order_relaxed);
  }
  std::chrono::nanoseconds elapsed() const {
    return std::chrono::steady_clock::now() - start_;
  }
  const ResourceLimits& limits() const { return limits_; }

  // ---- Nullable-pointer conveniences --------------------------------------
  // Every evaluation path stores `const ResourceGuard* guard` with nullptr
  // meaning "unguarded"; these keep call sites to one line.
  static Status Check(const ResourceGuard* guard) {
    return guard == nullptr ? Status::Ok() : guard->Check();
  }
  static Status CheckTick(const ResourceGuard* guard) {
    return guard == nullptr ? Status::Ok() : guard->CheckTick();
  }
  static Status ChargeDerivedFacts(const ResourceGuard* guard, size_t n) {
    return guard == nullptr ? Status::Ok() : guard->ChargeDerivedFacts(n);
  }
  static Status ChargeDnfTerms(const ResourceGuard* guard, size_t n) {
    return guard == nullptr ? Status::Ok() : guard->ChargeDnfTerms(n);
  }

 private:
  // How many CheckTick() calls pass between clock reads. Power of two.
  static constexpr uint32_t kTickStride = 64;

  Status CheckDeadline() const;
  Status CheckCancelled() const;

  ResourceLimits limits_;
  const CancellationToken* token_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
  std::chrono::steady_clock::time_point deadline_at_{};  // max() = unlimited
  mutable std::atomic<uint32_t> tick_{0};
  mutable std::atomic<size_t> derived_facts_{0};
  mutable std::atomic<size_t> dnf_terms_{0};
};

/// Sequence points at which FaultInjector can force a failure. One enum per
/// structurally distinct unwind path through the evaluation stack.
enum class FaultPoint {
  kEvalRoundStart = 0,    // bottom-up: before a fixpoint round's work
  kEvalWorkItem,          // bottom-up parallel: inside a worker's work item
  kEvalMerge,             // bottom-up parallel: at the round-barrier merge
  kDnfExpand,             // dnf.cc: during a conjunct product expansion
  kDownwardEvent,         // downward interpreter: DownEvent entry
  kUpwardBody,            // upward interpreter: per-predicate event pass
  kEventCompile,          // event compiler: Compile() entry
  // Persistence sequence points (src/persist/). Each models "the process
  // dies here": the crash-recovery matrix arms one, drives commits until it
  // fires, simulates the crash, and asserts recovery reproduces exactly the
  // committed prefix (tests/persist_crash_test.cc).
  kWalAppend,             // WAL: before write()ing a framed record batch
  kWalFsync,              // WAL: before fsync()ing appended records
  kSnapshotWrite,         // snapshot: before write()ing the payload
  kSnapshotFsync,         // snapshot: before fsync()ing the temp file
  kSnapshotRename,        // snapshot: before renaming temp over current
  kWalReset,              // checkpoint: before installing the fresh log
  // Network sequence points (src/server/). Unlike the persistence points,
  // these model a *transport* failure (peer reset, torn socket), not a
  // process death: the chaos suites arm them to fail frame I/O on demand,
  // complementing the randomized server::FaultyNetwork decorator.
  kNetReadFrame,          // transport: before reading a frame header
  kNetWriteFrame,         // transport: before writing an encoded frame
};
inline constexpr size_t kNumFaultPoints = 15;

/// Stable name for diagnostics ("EVAL_ROUND_START", ...).
const char* FaultPointName(FaultPoint point);

/// Test hook that forces failures at chosen sequence points, proving the
/// unwind and rollback paths without contriving real resource exhaustion.
/// Compiled in always; inert unless armed (the fast path is a single relaxed
/// atomic load, so production code pays nothing). Arm/Poke are thread-safe:
/// parallel workers may race to hit the trigger, exactly one observes it
/// per armed configuration is NOT guaranteed — the fault is sticky until
/// Disarm(), so every poke at the armed point past the trigger fails, which
/// is what rollback tests want.
class FaultInjector {
 public:
  /// The process-wide injector (tests arm it, library code pokes it).
  static FaultInjector& Instance();

  /// Arms the injector: pokes at `point` fail with `fault` starting with the
  /// `trigger_at`-th poke (1-based) observed after arming. Replaces any
  /// previous configuration and zeroes hit counts.
  void Arm(FaultPoint point, size_t trigger_at, Status fault);

  /// Returns the injector to the inert state and zeroes hit counts.
  void Disarm();

  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// Pokes observed at `point` since the last Arm() (0 when disarmed).
  size_t HitCount(FaultPoint point) const;

  /// The sequence-point hook: returns the armed fault when triggered,
  /// Status::Ok() otherwise. Near-free when disarmed.
  Status Poke(FaultPoint point);

 private:
  FaultInjector() = default;

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  FaultPoint point_ = FaultPoint::kEvalRoundStart;
  size_t trigger_at_ = 0;
  Status fault_;
  std::array<size_t, kNumFaultPoints> counts_{};
};

// Poke helper for Status- and Result<T>-returning functions: propagates an
// injected fault as the function's error. Compiles to one relaxed load when
// the injector is disarmed.
#define DEDDB_FAULT_POINT(point)                                     \
  do {                                                               \
    if (::deddb::FaultInjector::Instance().armed()) {                \
      ::deddb::Status _deddb_fault =                                 \
          ::deddb::FaultInjector::Instance().Poke(point);            \
      if (!_deddb_fault.ok()) return _deddb_fault;                   \
    }                                                                \
  } while (false)

}  // namespace deddb

#endif  // DEDDB_UTIL_RESOURCE_GUARD_H_
