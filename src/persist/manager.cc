#include "persist/manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/crc32.h"
#include "util/resource_guard.h"
#include "util/strings.h"

namespace deddb::persist {

namespace {

constexpr const char* kSnapshotFile = "snapshot.deddb";
constexpr const char* kWalFile = "wal.deddb";

Status ErrnoError(std::string_view op, const std::string& path) {
  return InternalError(StrCat(op, " failed for '", path, "': ",
                              std::strerror(errno)));
}

Status Poke(FaultPoint point) {
  FaultInjector& injector = FaultInjector::Instance();
  return injector.armed() ? injector.Poke(point) : Status::Ok();
}

Status FsyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return ErrnoError("open(dir)", dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoError("fsync(dir)", dir);
  return Status::Ok();
}

}  // namespace

std::string PersistenceManager::snapshot_path() const {
  return StrCat(dir_, "/", kSnapshotFile);
}

std::string PersistenceManager::wal_path() const {
  return StrCat(dir_, "/", kWalFile);
}

Result<std::unique_ptr<PersistenceManager>> PersistenceManager::Open(
    const std::string& dir, Options options) {
  if (dir.empty()) {
    return InvalidArgumentError("persistence directory must be non-empty");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return ErrnoError("mkdir", dir);
  }
  auto manager = std::unique_ptr<PersistenceManager>(
      new PersistenceManager(dir, options));
  // Temporaries are pre-rename by construction, so a leftover one is an
  // interrupted checkpoint that never committed — plain garbage.
  ::unlink(StrCat(manager->snapshot_path(), ".tmp").c_str());
  ::unlink(StrCat(manager->wal_path(), ".tmp").c_str());
  return manager;
}

Status PersistenceManager::RestoreSnapshotInto(Database* db) {
  Result<SnapshotData> loaded = LoadSnapshot(snapshot_path(), &db->symbols());
  if (!loaded.ok()) {
    if (loaded.status().code() == StatusCode::kNotFound) return Status::Ok();
    return loaded.status();
  }
  DEDDB_RETURN_IF_ERROR(RestoreSnapshot(*loaded, db));
  std::lock_guard<std::mutex> lock(mu_);
  snapshot_seq_ = loaded->last_seq;
  last_seq_ = loaded->last_seq;
  retained_floor_ = loaded->last_seq;
  MarkSettled(loaded->last_seq);
  return Status::Ok();
}

Result<std::vector<WalRecord>> PersistenceManager::ReadLogForRecovery(
    SymbolTable* symbols) {
  Result<WalContents> read = ReadWal(wal_path(), symbols);
  if (!read.ok()) {
    if (read.status().code() == StatusCode::kNotFound) {
      return std::vector<WalRecord>{};  // fresh directory: no log yet
    }
    return read.status();
  }
  WalContents& contents = *read;
  std::lock_guard<std::mutex> lock(mu_);
  wal_existed_ = true;
  if (contents.base_seq > snapshot_seq_) {
    return CorruptionError(
        StrCat("log '", wal_path(), "' starts at sequence ",
               contents.base_seq, " but the snapshot only covers ",
               snapshot_seq_, " — a checkpoint snapshot is missing"));
  }
  if (contents.torn_tail) {
    // Truncate the torn bytes in place so a later crash cannot make the
    // damage look interior.
    int fd = ::open(wal_path().c_str(), O_WRONLY | O_CLOEXEC);
    if (fd < 0) return ErrnoError("open", wal_path());
    int rc = ::ftruncate(fd, static_cast<off_t>(contents.valid_bytes));
    if (rc == 0) rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) return ErrnoError("ftruncate", wal_path());
    ++stats_.torn_tail_truncations;
  }
  recovered_wal_size_ = contents.valid_bytes;

  std::unordered_set<uint64_t> aborted;
  for (const WalRecord& record : contents.records) {
    last_seq_ = std::max(last_seq_, record.seq);
    if (record.type == RecordType::kAbort) aborted.insert(record.aborted_seq);
  }
  std::vector<WalRecord> to_replay;
  for (WalRecord& record : contents.records) {
    if (record.type != RecordType::kCommit) continue;
    if (record.seq <= snapshot_seq_) continue;  // stale: pre-checkpoint log
    if (aborted.count(record.seq) > 0) continue;
    to_replay.push_back(std::move(record));
  }
  return to_replay;
}

Status PersistenceManager::OpenLogForAppend() {
  std::lock_guard<std::mutex> lock(mu_);
  // Everything recovery replayed has a final fate, so the whole recovered
  // prefix is shippable; the retained window starts empty above it.
  retained_floor_ = last_seq_;
  MarkSettled(last_seq_);
  WalWriter::Options wal_options{options_.group_commit};
  if (wal_existed_) {
    DEDDB_ASSIGN_OR_RETURN(
        writer_, WalWriter::OpenForAppend(wal_path(), recovered_wal_size_,
                                          wal_options));
  } else {
    DEDDB_ASSIGN_OR_RETURN(
        writer_, WalWriter::Create(wal_path(), snapshot_seq_, wal_options));
    DEDDB_RETURN_IF_ERROR(FsyncDirectory(dir_));
  }
  return Status::Ok();
}

Result<uint64_t> PersistenceManager::LogCommit(const Transaction& txn,
                                               CommitOrigin origin,
                                               const SymbolTable& symbols,
                                               obs::ObsContext obs,
                                               const CommitToken& token) {
  DEDDB_ASSIGN_OR_RETURN(PreparedCommit prepared,
                         PrepareCommit(txn, origin, symbols, obs, token));
  DEDDB_RETURN_IF_ERROR(WaitCommitDurable(prepared, obs));
  return prepared.seq;
}

Result<PersistenceManager::PreparedCommit> PersistenceManager::PrepareCommit(
    const Transaction& txn, CommitOrigin origin, const SymbolTable& symbols,
    obs::ObsContext obs, const CommitToken& token) {
  obs::ScopedSpan span(obs.tracer, "persist.log_commit");
  std::lock_guard<std::mutex> lock(mu_);
  if (writer_ == nullptr) {
    return FailedPreconditionError("the log is not open for appending");
  }
  PreparedCommit prepared;
  prepared.seq = last_seq_ + 1;
  prepared.writer = writer_;
  std::string payload =
      EncodeCommitPayload(prepared.seq, origin, txn, symbols, token);
  // The feed copy is prepared up front (the writer consumes the payload)
  // but staged only once the writer accepted the bytes: a refused record
  // must leave no trace, or the next commit would reuse its sequence number
  // and stage a twin the feed could ship ahead of the real one.
  RetainedRecord retained;
  retained.seq = prepared.seq;
  retained.crc = Crc32(payload);
  retained.payload = payload;
  if (options_.group_commit) {
    DEDDB_ASSIGN_OR_RETURN(prepared.ticket,
                           writer_->Enqueue(std::move(payload)));
  } else {
    // Degraded mode: one synchronous write+fsync per record under the
    // manager lock (preserves the group_commit=false ablation).
    DEDDB_RETURN_IF_ERROR(writer_->AppendDurable(std::move(payload), obs));
    prepared.durable = true;
    ++stats_.commits_logged;
    obs::MetricsRegistry::Add(obs.metrics, "persist.commits_logged");
  }
  // Staged unsettled: the feed refuses to ship at or past it until
  // SettleCommit decides its fate (WaitCommitDurable un-stages it instead
  // when the flush fails).
  RetainLocked(std::move(retained));
  // A failed flush leaves a sequence gap; ReadWal only requires strictly
  // increasing numbers, and the facade stops committing after one anyway.
  last_seq_ = prepared.seq;
  return prepared;
}

Status PersistenceManager::WaitCommitDurable(const PreparedCommit& prepared,
                                             obs::ObsContext obs) {
  if (prepared.durable) return Status::Ok();
  Status status = prepared.writer->WaitDurable(prepared.ticket, obs);
  std::lock_guard<std::mutex> lock(mu_);
  if (!status.ok()) {
    // A checkpoint that ran after our in-memory apply has the commit's
    // effects in its durable snapshot, so losing the log record is harmless.
    if (prepared.seq <= snapshot_seq_) return Status::Ok();
    // The flush dropped the record (self-heal truncated its bytes from the
    // log). Un-stage the feed copy before any later committer can raise the
    // settled horizon past it — otherwise the feed would ship a commit the
    // primary never applied and recovery will never replay.
    UnretainLocked(prepared.seq);
    return status;
  }
  ++stats_.commits_logged;
  obs::MetricsRegistry::Add(obs.metrics, "persist.commits_logged");
  return Status::Ok();
}

Status PersistenceManager::Checkpoint(const Database& db,
                                      obs::ObsContext obs) {
  obs::ScopedSpan span(obs.tracer, "persist.checkpoint");
  std::lock_guard<std::mutex> lock(mu_);
  if (writer_ == nullptr) {
    return FailedPreconditionError("the log is not open for appending");
  }
  const uint64_t seq = last_seq_;
  DEDDB_RETURN_IF_ERROR(WriteSnapshot(db, seq, snapshot_path(), obs));
  // The snapshot is durable. From here on a crash is safe at every step:
  // recovery loads the new snapshot and filters the old log's records (all
  // stale now, seq ≤ snapshot seq), so installing the fresh log is pure
  // compaction, not a correctness step.
  DEDDB_RETURN_IF_ERROR(Poke(FaultPoint::kWalReset));
  const std::string tmp = StrCat(wal_path(), ".tmp");
  WalWriter::Options wal_options{options_.group_commit};
  Result<std::unique_ptr<WalWriter>> fresh =
      WalWriter::Create(tmp, seq, wal_options);
  if (!fresh.ok()) {
    ::unlink(tmp.c_str());
    return fresh.status();
  }
  if (::rename(tmp.c_str(), wal_path().c_str()) != 0) {
    ::unlink(tmp.c_str());
    return ErrnoError("rename", tmp);
  }
  DEDDB_RETURN_IF_ERROR(FsyncDirectory(dir_));
  writer_ = std::move(*fresh);
  snapshot_seq_ = seq;
  ++stats_.checkpoints;
  obs::MetricsRegistry::Add(obs.metrics, "persist.checkpoints");
  return Status::Ok();
}

Status PersistenceManager::Sync(obs::ObsContext obs) {
  std::lock_guard<std::mutex> lock(mu_);
  if (writer_ == nullptr) return Status::Ok();
  return writer_->Sync(obs);
}

// ---- Replica feed -----------------------------------------------------------

void PersistenceManager::MarkSettled(uint64_t seq) {
  uint64_t current = settled_seq_.load(std::memory_order_relaxed);
  while (current < seq &&
         !settled_seq_.compare_exchange_weak(current, seq,
                                             std::memory_order_release,
                                             std::memory_order_relaxed)) {
  }
}

void PersistenceManager::SettleCommit(uint64_t seq) {
  // Flag before watermark: a feed reader that observes the raised horizon
  // takes mu_ afterwards, so it finds the record already shippable.
  {
    std::lock_guard<std::mutex> lock(mu_);
    SettleRetainedLocked(seq);
  }
  MarkSettled(seq);
}

uint64_t PersistenceManager::settled_seq() const {
  return settled_seq_.load(std::memory_order_acquire);
}

void PersistenceManager::RetainLocked(RetainedRecord record) {
  if (options_.feed_retain_records == 0) {
    retained_floor_ = record.seq;
    return;
  }
  retained_bytes_ += record.payload.size();
  retained_.push_back(std::move(record));
  while (retained_.size() > options_.feed_retain_records ||
         (retained_bytes_ > options_.feed_retain_bytes &&
          retained_.size() > 1)) {
    retained_floor_ = retained_.front().seq;
    retained_bytes_ -= retained_.front().payload.size();
    retained_.pop_front();
  }
}

void PersistenceManager::SettleRetainedLocked(uint64_t seq) {
  // The window is seq-ascending (staged under mu_ in assignment order), so
  // scan from the back: the settling record is almost always the newest.
  for (auto it = retained_.rbegin(); it != retained_.rend(); ++it) {
    if (it->seq == seq) {
      it->settled = true;
      return;
    }
    if (it->seq < seq) return;  // evicted, or never staged
  }
}

void PersistenceManager::UnretainLocked(uint64_t seq) {
  for (auto it = retained_.rbegin(); it != retained_.rend(); ++it) {
    if (it->seq == seq) {
      retained_bytes_ -= it->payload.size();
      retained_.erase(std::next(it).base());
      return;
    }
    if (it->seq < seq) return;
  }
}

Result<PersistenceManager::FeedBatch> PersistenceManager::ReadFeedRecords(
    uint64_t from_seq, size_t max_records, size_t max_bytes) {
  if (max_records == 0) max_records = SIZE_MAX;
  if (max_bytes == 0) max_bytes = SIZE_MAX;
  // The horizon is read *before* the ring/file, so every settled record at
  // or below it is already staged where we are about to look: a commit
  // settles only after its bytes are staged.
  const uint64_t horizon = settled_seq();
  FeedBatch batch;
  batch.last_durable_seq = horizon;
  if (from_seq >= horizon) return batch;

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (from_seq >= retained_floor_) {
      // Fast path: the retained window covers everything after from_seq.
      // It holds commits only: the engine writes no abort records.
      size_t bytes = 0;
      for (const RetainedRecord& record : retained_) {
        if (record.seq > horizon) break;
        // Stop (not skip) at a record whose fate is undecided even below
        // the horizon: a later committer's flush can settle while an
        // earlier one is still in flight, and skipping the earlier record
        // would lose it for good once it settles. Its committer resolves it
        // promptly — settled, or un-staged on flush failure.
        if (!record.settled) break;
        if (record.seq <= from_seq) continue;
        if (!batch.records.empty() &&
            (batch.records.size() >= max_records ||
             bytes + record.payload.size() > max_bytes)) {
          break;
        }
        bytes += record.payload.size();
        batch.records.push_back(
            FeedRecord{record.seq, record.crc, record.payload});
      }
      return batch;
    }
  }

  // Slow path: the replica is further behind than the retained window —
  // re-scan the log file (no symbol interning, raw frames). A log written
  // before rollbacks were retired may still carry abort records; they and
  // the commits they void are filtered, as recovery filters them.
  DEDDB_ASSIGN_OR_RETURN(RawWalContents contents,
                         ReadWalRaw(wal_path(), from_seq));
  if (from_seq < contents.base_seq) {
    return NotFoundError(StrCat(
        "feed history truncated: records after sequence ", from_seq,
        " were requested but the log starts at ", contents.base_seq,
        "; re-seed the replica from a snapshot"));
  }
  std::unordered_set<uint64_t> aborted;
  for (const RawWalRecord& record : contents.records) {
    if (record.header.seq > horizon) break;
    if (record.header.type == RecordType::kAbort) {
      aborted.insert(record.header.aborted_seq);
    }
  }
  size_t bytes = 0;
  for (RawWalRecord& record : contents.records) {
    if (record.header.seq > horizon) break;
    if (record.header.type != RecordType::kCommit ||
        aborted.count(record.header.seq) > 0) {
      continue;
    }
    if (!batch.records.empty() &&
        (batch.records.size() >= max_records ||
         bytes + record.payload.size() > max_bytes)) {
      break;
    }
    bytes += record.payload.size();
    batch.records.push_back(
        FeedRecord{record.header.seq, record.crc, std::move(record.payload)});
  }
  return batch;
}

PersistenceManager::Stats PersistenceManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats = stats_;
  stats.last_seq = last_seq_;
  stats.wal_durable_bytes =
      writer_ == nullptr ? recovered_wal_size_ : writer_->durable_size();
  return stats;
}

}  // namespace deddb::persist
