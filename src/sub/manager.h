#ifndef DEDDB_SUB_MANAGER_H_
#define DEDDB_SUB_MANAGER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/commit_observer.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "storage/tuple.h"
#include "sub/cdc.h"
#include "util/status.h"

namespace deddb::sub {

/// One standing query: a predicate plus an optional bound-argument filter,
/// an overflow policy, and a per-subscription queue bound.
struct SubscriptionSpec {
  SymbolId predicate = 0;
  /// Bound-argument filter, one entry per argument (nullopt = wildcard).
  TuplePattern filter;
  /// True when `predicate` is derived (its delta comes from the induced
  /// events); false for base predicates (delta read straight off the
  /// transaction).
  bool derived = false;
  OverflowPolicy policy = OverflowPolicy::kDisconnectWithGap;
  size_t max_queued = 64;
};

/// One item the pusher thread delivers: either a delta batch or a gap
/// marker for `sub_id`, addressed by the opaque `owner` the subscription
/// was registered under (the server maps owners to connections).
struct PushItem {
  uint64_t sub_id = 0;
  uint64_t owner = 0;
  SymbolId predicate = 0;
  bool is_gap = false;
  GapReason reason = GapReason::kOverflow;
  uint64_t version = 0;  // gap marker's version (batch carries its own)
  DeltaBatch batch;
};

/// Surfaced through StatsJson and the extended Health probe. Filled from
/// the manager's sub.* registry counters plus two live counts.
struct ManagerStats {
  uint64_t registered_total = 0;
  uint64_t active = 0;          // gauge
  uint64_t queued_batches = 0;  // gauge: deltas accepted but not yet popped
  uint64_t commits_observed = 0;
  uint64_t deltas_queued = 0;
  uint64_t deltas_pushed = 0;
  uint64_t deltas_coalesced = 0;
  uint64_t gap_events = 0;
  uint64_t barriers = 0;
  uint64_t resume_hits = 0;
  uint64_t resume_misses = 0;
};

/// The server-side subscription registry and CDC fan-out (DESIGN.md §11).
///
/// Implements CommitObserver: the facade calls OnCommit/OnBarrier under its
/// commit lock, so every method on that path only takes the manager's own
/// mutex and never blocks. Delivery is decoupled: matching deltas are
/// filtered into per-subscription bounded queues, and the server's pusher
/// thread drains them with WaitPop().
///
/// Lock ordering: commit_mu_ (facade) -> mu_ (manager). Registration and
/// activation take only mu_, so the server is free to call BeginSession
/// (which takes commit_mu_) between Register and Activate — never hold a
/// manager call across a facade call.
///
/// Registration handshake (two-phase, so no push can overtake the
/// subscribe reply):
///   1. Register() creates the subscription in a pending state; commits
///      from here on queue their filtered deltas into it.
///   2. The server pins a snapshot (or stages a resume with
///      TryStageResume), sends the SubscribeOk reply, then calls
///      Activate(sub_id, version): queued batches at or below `version`
///      are dropped (the snapshot already contains them) and the
///      subscription becomes visible to the pusher.
class SubscriptionManager : public CommitObserver {
 public:
  struct Options {
    /// Commits retained for resume-from-version, counted from the first
    /// registration ever (the log arms itself and stays armed).
    size_t retain_window = 256;
    /// The sub.* counters live in obs.metrics; when it is null the manager
    /// records into a registry of its own.
    obs::ObsContext obs;
  };

  SubscriptionManager();
  explicit SubscriptionManager(Options options);

  // ---- CommitObserver (called under the facade's commit lock) -------------
  bool active() const override;
  std::vector<SymbolId> WantedDerived() override;
  void OnCommit(uint64_t version, const Transaction& transaction,
                const DerivedEvents& derived) override;
  void OnBarrier(uint64_t version) override;

  // ---- Registration (server read path) ------------------------------------
  /// Creates a pending subscription owned by `owner`; returns its id.
  uint64_t Register(const SubscriptionSpec& spec, uint64_t owner);

  /// Attempts to stage a resume: succeeds when the retained CDC log
  /// contiguously covers (from_version, now] for the subscription's
  /// predicate with no barrier in between. On success the replayed batches
  /// are queued (spliced before any batch that arrived live since
  /// Register) and the caller activates with Activate(sub_id,
  /// from_version). On failure nothing changes — fall back to a fresh
  /// snapshot.
  bool TryStageResume(uint64_t sub_id, uint64_t from_version);

  /// Completes registration at `snapshot_version` (see class comment).
  void Activate(uint64_t sub_id, uint64_t snapshot_version);

  /// Ends a subscription (unsubscribe). True if it existed under `owner`.
  bool Cancel(uint64_t sub_id, uint64_t owner);

  /// Ends every subscription of a retired connection; returns how many.
  size_t CancelOwner(uint64_t owner);

  /// Live (pending + active) subscriptions registered under `owner`.
  size_t OwnerSubscriptions(uint64_t owner) const;

  // ---- Delivery (the server's pusher thread) -------------------------------
  /// Blocks until a push is ready or Shutdown() was called (then nullopt).
  /// Per-subscription order is FIFO; a gap marker is always the
  /// subscription's final item.
  std::optional<PushItem> WaitPop();

  /// Wakes WaitPop permanently. Undelivered batches are dropped — the
  /// subscriber observes a closed connection, not a silent gap.
  void Shutdown();

  ManagerStats Stats() const;
  /// Latest version OnCommit/OnBarrier has seen (0 before the first).
  uint64_t latest_version() const;

 private:
  enum class SubState { kPending, kActive, kGapped, kDone };

  struct Subscription {
    uint64_t id = 0;
    uint64_t owner = 0;
    SubscriptionSpec spec;
    SubState state = SubState::kPending;
    std::deque<DeltaBatch> queue;
    bool gap_queued = false;
    GapReason gap_reason = GapReason::kOverflow;
    uint64_t gap_version = 0;
    bool in_ready = false;  // id present in ready_ (dedup for the deque)
    // Nonzero iff Register() ran between a commit's WantedDerived() and its
    // OnCommit(): that in-flight commit's induced events do not cover this
    // subscription, and a resume staged while it is still open would span
    // an invisible, uncovered version (see TryStageResume).
    uint64_t mid_commit_seq = 0;
  };

  /// One retained commit: enough to rebuild any subscription's filtered
  /// batch for a resume. `covered` names the derived predicates whose
  /// induced events were computed for this commit — a derived resume is
  /// only legal over entries that cover its predicate.
  struct LogEntry {
    uint64_t version = 0;
    Transaction transaction;
    DerivedEvents derived;
    std::vector<SymbolId> covered;
  };

  /// Builds `sub`'s filtered batch for one retained commit.
  DeltaBatch BatchFor(const Subscription& sub, const LogEntry& entry) const;
  /// Queues `batch` on `sub`, applying the overflow policy. mu_ held.
  void EnqueueLocked(Subscription* sub, DeltaBatch batch);
  /// Marks `sub` gapped (its queue is dropped, one gap marker survives)
  /// and, when active, schedules the marker for delivery. mu_ held.
  void GapLocked(Subscription* sub, GapReason reason, uint64_t version);
  void MarkReadyLocked(Subscription* sub);

  const Options options_;

  // ---- Metrics: one registry cell per counter ------------------------------
  // ManagerStats counters, in the order of kCounterRows (manager.cc), which
  // pairs each with its ManagerStats field and metric name.
  enum CounterId : size_t {
    kRegistered,
    kCommitsObserved,
    kDeltasQueued,
    kDeltasPushed,
    kDeltasCoalesced,
    kGapEvents,
    kBarriers,
    kResumeHits,
    kResumeMisses,
    kCounterCount
  };
  void Count(CounterId id, uint64_t delta = 1) {
    counter_handles_[id]->Add(delta);
  }
  /// Tracks a subscription entering (+1) or leaving (-1) kActive: the live
  /// count behind Stats().active and the sub.active gauge. mu_ held.
  void AddActiveLocked(int delta);

  // The registry the handles point into when options_.obs.metrics is null.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  std::array<obs::Counter*, kCounterCount> counter_handles_{};
  std::array<obs::Counter*, 2> policy_handles_{};  // by OverflowPolicy
  std::array<obs::Counter*, 4> gap_handles_{};     // by GapReason
  obs::Gauge* active_gauge_ = nullptr;

  // Lock-free gate for the facade's per-commit active() probe: set by the
  // first Register() and never cleared, so a database that has never had a
  // subscriber pays one relaxed load per commit.
  std::atomic<bool> armed_{false};

  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  bool shutdown_ = false;
  uint64_t next_sub_id_ = 1;
  std::map<uint64_t, Subscription> subs_;
  // Subscriptions with deliverable items, FIFO; ids are deduplicated via
  // Subscription::in_ready and re-appended after a pop while items remain.
  std::deque<uint64_t> ready_;
  int64_t active_ = 0;  // subscriptions in kActive

  // ---- Retained CDC log (resume window) -----------------------------------
  // Armed by the first Register() and never disarmed: a resume must not
  // lose the commits that happened while no subscriber was connected.
  bool log_armed_ = false;
  std::deque<LogEntry> log_;
  // Coverage floor: every state change in (log_floor_, latest_version_] is
  // either in log_ or fenced off by last_barrier_version_.
  uint64_t log_floor_ = 0;
  bool log_floor_set_ = false;
  uint64_t last_barrier_version_ = 0;
  uint64_t latest_version_ = 0;
  // What WantedDerived() last returned (== what the in-flight commit's
  // induced events cover); commits are serialized, so the pairing is exact.
  std::vector<SymbolId> last_wanted_;
  // Commit-in-flight tracking: WantedDerived() opens commit commit_seq_,
  // OnCommit()/OnBarrier() closes it. While open, the commit's version is
  // not yet visible in latest_version_ or log_, so a derived subscription
  // registered mid-commit cannot legally stage a resume (the open commit
  // is strictly newer than any from_version the checks admit, and its
  // induced events do not cover the new subscription).
  uint64_t commit_seq_ = 0;
  bool commit_open_ = false;
};

}  // namespace deddb::sub

#endif  // DEDDB_SUB_MANAGER_H_
