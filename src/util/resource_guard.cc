#include "util/resource_guard.h"

#include "util/strings.h"

namespace deddb {

void ResourceGuard::Restart() {
  start_ = std::chrono::steady_clock::now();
  deadline_at_ = limits_.deadline.count() > 0
                     ? start_ + limits_.deadline
                     : std::chrono::steady_clock::time_point::max();
  tick_.store(0, std::memory_order_relaxed);
  derived_facts_.store(0, std::memory_order_relaxed);
  dnf_terms_.store(0, std::memory_order_relaxed);
}

Status ResourceGuard::CheckCancelled() const {
  if (token_ != nullptr && token_->cancelled()) {
    return CancelledError("evaluation cancelled");
  }
  return Status::Ok();
}

Status ResourceGuard::CheckDeadline() const {
  if (std::chrono::steady_clock::now() > deadline_at_) {
    return DeadlineExceededError(
        StrCat("wall-clock deadline of ",
               std::chrono::duration_cast<std::chrono::milliseconds>(
                   limits_.deadline)
                   .count(),
               "ms exceeded"));
  }
  return Status::Ok();
}

Status ResourceGuard::Check() const {
  DEDDB_RETURN_IF_ERROR(CheckCancelled());
  if (deadline_at_ == std::chrono::steady_clock::time_point::max()) {
    return Status::Ok();
  }
  return CheckDeadline();
}

Status ResourceGuard::CheckTick() const {
  DEDDB_RETURN_IF_ERROR(CheckCancelled());
  if (deadline_at_ == std::chrono::steady_clock::time_point::max()) {
    return Status::Ok();
  }
  // Read the clock only once per stride; the counter is shared across
  // threads, which only makes the stride effectively shorter.
  if ((tick_.fetch_add(1, std::memory_order_relaxed) & (kTickStride - 1)) !=
      0) {
    return Status::Ok();
  }
  return CheckDeadline();
}

Status ResourceGuard::ChargeDerivedFacts(size_t n) const {
  size_t total = derived_facts_.fetch_add(n, std::memory_order_relaxed) + n;
  if (limits_.max_derived_facts > 0 && total > limits_.max_derived_facts) {
    return BudgetExceededError(StrCat("derived-fact budget exceeded (limit ",
                                      limits_.max_derived_facts, ")"));
  }
  return Status::Ok();
}

Status ResourceGuard::ChargeDnfTerms(size_t n) const {
  size_t total = dnf_terms_.fetch_add(n, std::memory_order_relaxed) + n;
  if (limits_.max_dnf_terms > 0 && total > limits_.max_dnf_terms) {
    return BudgetExceededError(
        StrCat("DNF term budget exceeded (limit ", limits_.max_dnf_terms,
               ")"));
  }
  return Status::Ok();
}

const char* FaultPointName(FaultPoint point) {
  switch (point) {
    case FaultPoint::kEvalRoundStart:
      return "EVAL_ROUND_START";
    case FaultPoint::kEvalWorkItem:
      return "EVAL_WORK_ITEM";
    case FaultPoint::kEvalMerge:
      return "EVAL_MERGE";
    case FaultPoint::kDnfExpand:
      return "DNF_EXPAND";
    case FaultPoint::kDownwardEvent:
      return "DOWNWARD_EVENT";
    case FaultPoint::kUpwardBody:
      return "UPWARD_BODY";
    case FaultPoint::kEventCompile:
      return "EVENT_COMPILE";
    case FaultPoint::kWalAppend:
      return "WAL_APPEND";
    case FaultPoint::kWalFsync:
      return "WAL_FSYNC";
    case FaultPoint::kSnapshotWrite:
      return "SNAPSHOT_WRITE";
    case FaultPoint::kSnapshotFsync:
      return "SNAPSHOT_FSYNC";
    case FaultPoint::kSnapshotRename:
      return "SNAPSHOT_RENAME";
    case FaultPoint::kWalReset:
      return "WAL_RESET";
    case FaultPoint::kNetReadFrame:
      return "NET_READ_FRAME";
    case FaultPoint::kNetWriteFrame:
      return "NET_WRITE_FRAME";
  }
  return "UNKNOWN";
}

FaultInjector& FaultInjector::Instance() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Arm(FaultPoint point, size_t trigger_at, Status fault) {
  std::lock_guard<std::mutex> lock(mu_);
  point_ = point;
  trigger_at_ = trigger_at;
  fault_ = std::move(fault);
  counts_.fill(0);
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  counts_.fill(0);
  armed_.store(false, std::memory_order_release);
}

size_t FaultInjector::HitCount(FaultPoint point) const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_[static_cast<size_t>(point)];
}

Status FaultInjector::Poke(FaultPoint point) {
  if (!armed()) return Status::Ok();
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_.load(std::memory_order_relaxed)) return Status::Ok();
  size_t count = ++counts_[static_cast<size_t>(point)];
  if (point == point_ && count >= trigger_at_) {
    return fault_;
  }
  return Status::Ok();
}

}  // namespace deddb
