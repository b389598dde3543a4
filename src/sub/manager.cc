#include "sub/manager.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/trace.h"
#include "storage/fact_store.h"
#include "util/strings.h"

namespace deddb::sub {

namespace {

// One row per SubscriptionManager::CounterId, in enum order: the
// ManagerStats field the counter fills and its registry name.
struct CounterRow {
  uint64_t ManagerStats::*field;
  const char* metric;
};
constexpr CounterRow kCounterRows[] = {
    {&ManagerStats::registered_total, "sub.registered"},
    {&ManagerStats::commits_observed, "sub.commits_observed"},
    {&ManagerStats::deltas_queued, "sub.deltas_queued"},
    {&ManagerStats::deltas_pushed, "sub.deltas_pushed"},
    {&ManagerStats::deltas_coalesced, "sub.deltas_coalesced"},
    {&ManagerStats::gap_events, "sub.gap_events"},
    {&ManagerStats::barriers, "sub.barriers"},
    {&ManagerStats::resume_hits, "sub.resume_hits"},
    {&ManagerStats::resume_misses, "sub.resume_misses"},
};

}  // namespace

SubscriptionManager::SubscriptionManager() : SubscriptionManager(Options{}) {}

SubscriptionManager::SubscriptionManager(Options options)
    : options_(std::move(options)) {
  obs::MetricsRegistry* metrics = options_.obs.metrics;
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  static_assert(std::size(kCounterRows) == kCounterCount);
  for (size_t i = 0; i < kCounterCount; ++i) {
    counter_handles_[i] = metrics->GetCounter(kCounterRows[i].metric);
  }
  for (size_t i = 0; i < policy_handles_.size(); ++i) {
    policy_handles_[i] = metrics->GetCounter(StrCat(
        "sub.policy_", OverflowPolicyName(static_cast<OverflowPolicy>(i))));
  }
  for (size_t i = 0; i < gap_handles_.size(); ++i) {
    gap_handles_[i] = metrics->GetCounter(
        StrCat("sub.gap_", GapReasonName(static_cast<GapReason>(i))));
  }
  active_gauge_ = metrics->GetGauge("sub.active");
}

bool SubscriptionManager::active() const {
  return armed_.load(std::memory_order_relaxed);
}

std::vector<SymbolId> SubscriptionManager::WantedDerived() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SymbolId> wanted;
  for (const auto& [id, sub] : subs_) {
    if (sub.state == SubState::kDone || sub.gap_queued) continue;
    if (sub.spec.derived) wanted.push_back(sub.spec.predicate);
  }
  std::sort(wanted.begin(), wanted.end());
  wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());
  // Remembered so OnCommit records what this commit's induced events
  // actually cover — not what is subscribed by then (a sub registered
  // between the two calls must not be claimed as covered).
  last_wanted_ = wanted;
  ++commit_seq_;
  commit_open_ = true;
  return wanted;
}

void SubscriptionManager::OnCommit(uint64_t version,
                                   const Transaction& transaction,
                                   const DerivedEvents& derived) {
  obs::ScopedSpan span(options_.obs.tracer, "sub.publish");
  std::lock_guard<std::mutex> lock(mu_);
  latest_version_ = version;
  commit_open_ = false;
  Count(kCommitsObserved);
  // Retain the commit for resume-from-version. `covered` is the wanted set
  // the facade actually computed induced events for this commit — a sub
  // registered mid-commit is not covered yet, and a derived resume across
  // an uncovered entry must miss.
  LogEntry entry;
  entry.version = version;
  entry.transaction = transaction;
  entry.derived = derived;
  entry.covered = last_wanted_;

  size_t queued = 0;
  for (auto& [id, sub] : subs_) {
    if (sub.gap_queued || sub.state == SubState::kGapped ||
        sub.state == SubState::kDone) {
      continue;
    }
    DeltaBatch batch = BatchFor(sub, entry);
    // An empty filtered delta pushes nothing — not an empty frame.
    if (batch.empty()) continue;
    EnqueueLocked(&sub, std::move(batch));
    ++queued;
  }
  if (span.enabled()) {
    span.AttrInt("version", static_cast<int64_t>(version));
    span.AttrInt("matched", static_cast<int64_t>(queued));
  }

  log_.push_back(std::move(entry));
  if (!log_floor_set_) {
    log_floor_ = version == 0 ? 0 : version - 1;
    log_floor_set_ = true;
  }
  const size_t window = options_.retain_window == 0 ? 1 : options_.retain_window;
  while (log_.size() > window) {
    log_floor_ = log_.front().version;
    log_.pop_front();
  }
}

void SubscriptionManager::OnBarrier(uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  latest_version_ = version;
  commit_open_ = false;
  last_barrier_version_ = version;
  Count(kBarriers);
  for (auto& [id, sub] : subs_) {
    if (sub.state == SubState::kDone || sub.state == SubState::kGapped ||
        sub.gap_queued) {
      continue;
    }
    GapLocked(&sub, GapReason::kBarrier, version);
  }
  // Entries before the barrier can never serve a resume again (the check
  // is from_version >= last_barrier_version_), so free them.
  log_.clear();
  log_floor_set_ = false;
}

uint64_t SubscriptionManager::Register(const SubscriptionSpec& spec,
                                       uint64_t owner) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.store(true, std::memory_order_relaxed);
  const uint64_t id = next_sub_id_++;
  Subscription sub;
  sub.id = id;
  sub.owner = owner;
  sub.spec = spec;
  if (sub.spec.max_queued == 0) sub.spec.max_queued = 64;
  if (commit_open_) sub.mid_commit_seq = commit_seq_;
  subs_.emplace(id, std::move(sub));
  Count(kRegistered);
  policy_handles_[static_cast<size_t>(spec.policy)]->Add();
  return id;
}

bool SubscriptionManager::TryStageResume(uint64_t sub_id,
                                         uint64_t from_version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = subs_.find(sub_id);
  if (it == subs_.end()) return false;
  Subscription& sub = it->second;
  const auto miss = [&] {
    Count(kResumeMisses);
    return false;
  };
  if (sub.state != SubState::kPending || sub.gap_queued) return miss();
  // The retained log must contiguously cover (from_version, now]: the
  // client cannot be ahead of us, a barrier fences everything before it,
  // and evicted entries lower the coverage floor.
  if (from_version > latest_version_) return miss();
  if (from_version < last_barrier_version_) return miss();
  if (log_floor_set_ && from_version < log_floor_) return miss();
  // A derived sub registered mid-commit (between WantedDerived and
  // OnCommit) must not stage while that commit is still open: the open
  // commit's version is invisible here (latest_version_ predates it) yet
  // strictly newer than from_version, and its induced events were computed
  // before this sub existed — so the stream would silently skip it. Once
  // the commit lands, the ordinary covered check below decides.
  if (sub.spec.derived && sub.mid_commit_seq != 0 && commit_open_ &&
      commit_seq_ == sub.mid_commit_seq) {
    return miss();
  }
  // Batches queued live since Register() already cover the newest commits;
  // the log only needs to backfill (from_version, first_live).
  const uint64_t first_live = sub.queue.empty()
                                  ? std::numeric_limits<uint64_t>::max()
                                  : sub.queue.front().version;
  std::vector<DeltaBatch> replay;
  for (const LogEntry& entry : log_) {
    if (entry.version <= from_version || entry.version >= first_live) continue;
    if (sub.spec.derived &&
        !std::binary_search(entry.covered.begin(), entry.covered.end(),
                            sub.spec.predicate)) {
      return miss();
    }
    DeltaBatch batch = BatchFor(sub, entry);
    if (!batch.empty()) replay.push_back(std::move(batch));
  }
  for (auto rit = replay.rbegin(); rit != replay.rend(); ++rit) {
    sub.queue.push_front(std::move(*rit));
  }
  Count(kDeltasQueued, replay.size());
  Count(kResumeHits);
  return true;
}

void SubscriptionManager::Activate(uint64_t sub_id, uint64_t snapshot_version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = subs_.find(sub_id);
  if (it == subs_.end()) return;
  Subscription& sub = it->second;
  if (sub.state != SubState::kPending) return;
  // Deltas the snapshot already contains must not be replayed on top of it.
  while (!sub.queue.empty() &&
         sub.queue.front().version <= snapshot_version) {
    sub.queue.pop_front();
  }
  if (sub.gap_queued) {
    sub.state = SubState::kGapped;
    MarkReadyLocked(&sub);
  } else {
    sub.state = SubState::kActive;
    AddActiveLocked(1);
    if (!sub.queue.empty()) MarkReadyLocked(&sub);
  }
}

bool SubscriptionManager::Cancel(uint64_t sub_id, uint64_t owner) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = subs_.find(sub_id);
  if (it == subs_.end() || it->second.owner != owner) return false;
  if (it->second.state == SubState::kActive) AddActiveLocked(-1);
  subs_.erase(it);  // stale ready_ entries are skipped by WaitPop
  return true;
}

size_t SubscriptionManager::CancelOwner(uint64_t owner) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t cancelled = 0;
  for (auto it = subs_.begin(); it != subs_.end();) {
    if (it->second.owner == owner) {
      if (it->second.state == SubState::kActive) AddActiveLocked(-1);
      it = subs_.erase(it);
      ++cancelled;
    } else {
      ++it;
    }
  }
  return cancelled;
}

size_t SubscriptionManager::OwnerSubscriptions(uint64_t owner) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  for (const auto& [id, sub] : subs_) {
    if (sub.owner == owner && sub.state != SubState::kDone) ++count;
  }
  return count;
}

std::optional<PushItem> SubscriptionManager::WaitPop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    ready_cv_.wait(lock, [&] { return shutdown_ || !ready_.empty(); });
    if (shutdown_) return std::nullopt;
    const uint64_t id = ready_.front();
    ready_.pop_front();
    auto it = subs_.find(id);
    if (it == subs_.end()) continue;  // cancelled while scheduled
    Subscription& sub = it->second;
    sub.in_ready = false;
    PushItem item;
    item.sub_id = sub.id;
    item.owner = sub.owner;
    item.predicate = sub.spec.predicate;
    if (sub.state == SubState::kGapped) {
      // The gap marker is the subscription's final frame.
      item.is_gap = true;
      item.reason = sub.gap_reason;
      item.version = sub.gap_version;
      subs_.erase(it);
      return item;
    }
    if (sub.state != SubState::kActive || sub.queue.empty()) continue;
    item.batch = std::move(sub.queue.front());
    item.version = item.batch.version;
    sub.queue.pop_front();
    Count(kDeltasPushed);
    if (!sub.queue.empty()) MarkReadyLocked(&sub);
    return item;
  }
}

void SubscriptionManager::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = true;
  ready_cv_.notify_all();
}

ManagerStats SubscriptionManager::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ManagerStats out;
  for (size_t i = 0; i < kCounterCount; ++i) {
    out.*kCounterRows[i].field = counter_handles_[i]->value();
  }
  out.active = static_cast<uint64_t>(active_);
  for (const auto& [id, sub] : subs_) out.queued_batches += sub.queue.size();
  return out;
}

uint64_t SubscriptionManager::latest_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_version_;
}

DeltaBatch SubscriptionManager::BatchFor(const Subscription& sub,
                                         const LogEntry& entry) const {
  DeltaBatch batch;
  batch.version = entry.version;
  const FactStore& inserts =
      sub.spec.derived ? entry.derived.inserts : entry.transaction.inserts();
  const FactStore& deletes =
      sub.spec.derived ? entry.derived.deletes : entry.transaction.deletes();
  if (const Relation* r = inserts.Find(sub.spec.predicate)) {
    r->ForEachMatch(sub.spec.filter,
                    [&](const Tuple& t) { batch.inserts.push_back(t); });
  }
  if (const Relation* r = deletes.Find(sub.spec.predicate)) {
    r->ForEachMatch(sub.spec.filter,
                    [&](const Tuple& t) { batch.deletes.push_back(t); });
  }
  SortUnique(&batch.inserts);
  SortUnique(&batch.deletes);
  return batch;
}

void SubscriptionManager::EnqueueLocked(Subscription* sub, DeltaBatch batch) {
  if (sub->queue.size() >= sub->spec.max_queued) {
    if (sub->spec.policy == OverflowPolicy::kCoalesce && !sub->queue.empty()) {
      DeltaBatch merged = Coalesce(sub->queue.back(), batch);
      sub->queue.pop_back();
      Count(kDeltasCoalesced);
      // A net-empty merge disappears entirely: the subscriber's next batch
      // simply jumps versions.
      if (!merged.empty()) sub->queue.push_back(std::move(merged));
    } else {
      GapLocked(sub, GapReason::kOverflow, batch.version);
      return;
    }
  } else {
    sub->queue.push_back(std::move(batch));
    Count(kDeltasQueued);
  }
  if (sub->state == SubState::kActive && !sub->queue.empty()) {
    MarkReadyLocked(sub);
  }
}

void SubscriptionManager::GapLocked(Subscription* sub, GapReason reason,
                                    uint64_t version) {
  sub->queue.clear();
  sub->gap_queued = true;
  sub->gap_reason = reason;
  sub->gap_version = version;
  Count(kGapEvents);
  gap_handles_[static_cast<size_t>(reason)]->Add();
  if (sub->state == SubState::kActive) {
    sub->state = SubState::kGapped;
    AddActiveLocked(-1);
    MarkReadyLocked(sub);
  }
}

void SubscriptionManager::AddActiveLocked(int delta) {
  active_ += delta;
  active_gauge_->Set(active_);
}

void SubscriptionManager::MarkReadyLocked(Subscription* sub) {
  if (sub->in_ready) return;
  sub->in_ready = true;
  ready_.push_back(sub->id);
  ready_cv_.notify_one();
}

}  // namespace deddb::sub
