#ifndef DEDDB_PERSIST_MANAGER_H_
#define DEDDB_PERSIST_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "storage/database.h"
#include "util/status.h"

namespace deddb::persist {

/// Orchestrates one directory of durable state: `snapshot.deddb` (the last
/// checkpoint) plus `wal.deddb` (the committed transactions since). Owned by
/// DeductiveDatabase when opened with OpenPersistent; the core layer drives
/// it in three fixed phases:
///
///   1. Open(dir)                  — create/validate the directory, GC *.tmp
///   2. RestoreSnapshotInto(db)    — load the checkpoint (no-op if none)
///      ReadLogForRecovery(...)    — surviving commits; truncates a torn tail
///      (caller replays them)
///   3. OpenLogForAppend()         — take over the log for new commits
///
/// then per commit: PrepareCommit before the in-memory apply, then
/// WaitCommitDurable and SettleCommit (redo logging: the commit is
/// acknowledged once its record is durable), and Checkpoint to compact.
/// Abort records are only ever read: logs written before rollbacks were
/// retired may carry them, and recovery and the feed filter what they void.
class PersistenceManager {
 public:
  struct Options {
    bool group_commit = true;
    /// Records kept in memory for the replica feed's fast path (by count and
    /// by payload bytes); a replica further behind than the retained window
    /// is served by re-scanning the log file. 0 disables retention.
    size_t feed_retain_records = 4096;
    size_t feed_retain_bytes = 4u << 20;
  };

  struct Stats {
    uint64_t commits_logged = 0;
    uint64_t checkpoints = 0;
    uint64_t torn_tail_truncations = 0;
    uint64_t wal_durable_bytes = 0;
    uint64_t last_seq = 0;
  };

  /// Creates `dir` if needed and removes stale temporaries left by a crash
  /// mid-checkpoint (they are pre-rename, so never part of durable state).
  static Result<std::unique_ptr<PersistenceManager>> Open(
      const std::string& dir, Options options);

  ~PersistenceManager() = default;
  PersistenceManager(const PersistenceManager&) = delete;
  PersistenceManager& operator=(const PersistenceManager&) = delete;

  /// Restores the latest snapshot into `db` (freshly constructed). Ok with
  /// no effect when no snapshot exists yet; kCorruption when one exists but
  /// is damaged.
  Status RestoreSnapshotInto(Database* db);

  /// Reads the log, truncates any torn tail in place, and returns the commit
  /// records to replay: stale records (seq ≤ the snapshot's) and commits an
  /// abort record voids (old logs only) are filtered out. Must run after
  /// RestoreSnapshotInto.
  Result<std::vector<WalRecord>> ReadLogForRecovery(SymbolTable* symbols);

  /// Opens the log for appending (creating it when absent). After this,
  /// LogCommit/PrepareCommit/Checkpoint are usable.
  Status OpenLogForAppend();

  /// Durably logs a committed transaction and returns its sequence number.
  /// Must precede the in-memory apply; an error here means nothing was
  /// logged (the writer self-heals to the durable prefix) and the caller
  /// must not apply.
  /// A present `token` rides inside the commit record, so recovery rebuilds
  /// the exactly-once dedup state along with the data.
  Result<uint64_t> LogCommit(const Transaction& txn, CommitOrigin origin,
                             const SymbolTable& symbols, obs::ObsContext obs,
                             const CommitToken& token = {});

  /// A commit record staged in the log but not necessarily durable yet.
  /// Pins the WalWriter it was enqueued on, so it stays redeemable across a
  /// concurrent Checkpoint() (which installs a fresh writer).
  struct PreparedCommit {
    uint64_t seq = 0;
    WalWriter::Ticket ticket;
    std::shared_ptr<WalWriter> writer;
    bool durable = false;  // group commit off: already synced at prepare time
  };

  /// Two-phase LogCommit for the pipelined commit path (DESIGN.md §9):
  /// PrepareCommit assigns the sequence number and stages the record under
  /// the manager lock (cheap, no fsync with group commit on);
  /// WaitCommitDurable joins the group flush with no locks held, so
  /// concurrent committers batch fsyncs end-to-end. The caller must not
  /// acknowledge the commit before WaitCommitDurable returns Ok; on error
  /// the record is not in the log and the caller must escalate (the facade
  /// poisons itself: its memory state is ahead of the log).
  /// With group_commit disabled PrepareCommit degrades to a full synchronous
  /// LogCommit and WaitCommitDurable is a no-op.
  Result<PreparedCommit> PrepareCommit(const Transaction& txn,
                                       CommitOrigin origin,
                                       const SymbolTable& symbols,
                                       obs::ObsContext obs,
                                       const CommitToken& token = {});
  Status WaitCommitDurable(const PreparedCommit& prepared,
                           obs::ObsContext obs);

  /// Compacts: durably snapshots `db` at the current sequence number, then
  /// installs a fresh log. Crash-safe at every step — until the snapshot
  /// rename the old pair is intact; between the two renames recovery loads
  /// the new snapshot and filters the old log's now-stale records.
  Status Checkpoint(const Database& db, obs::ObsContext obs);

  /// Durably flushes any buffered log bytes (normally a no-op: LogCommit
  /// returns only after its record is durable).
  Status Sync(obs::ObsContext obs);

  // ---- Replica feed (DESIGN.md §12) ----------------------------------------

  /// One shippable commit record: the exact payload bytes framed on disk
  /// plus the frame checksum, so the receiving side re-verifies the same CRC
  /// that protected the primary's log.
  struct FeedRecord {
    uint64_t seq = 0;
    uint32_t crc = 0;
    std::string payload;
  };

  struct FeedBatch {
    /// Settled horizon at read time: every commit with seq at or below it
    /// has a decided fate (shipped here if durable and not voided by an old
    /// log's abort record).
    /// This is the `primary_last_durable_seq` of the staleness contract.
    uint64_t last_durable_seq = 0;
    std::vector<FeedRecord> records;  // commits only, seq strictly increasing
  };

  /// Settles the commit `seq`: flips its retained record shippable and
  /// raises the settled watermark (monotone). A record is settled once its
  /// fate is final: after its fsync succeeded. Only individually settled
  /// records ship — a commit that could still fail its flush never reaches
  /// a replica.
  void SettleCommit(uint64_t seq);
  uint64_t settled_seq() const;

  /// Returns committed records with `from_seq < seq <= settled_seq()`, up to
  /// `max_records`/`max_bytes` (at least one record is returned when any
  /// qualifies, even if it alone exceeds max_bytes). Aborted commits and
  /// abort markers of old logs are filtered out, mirroring
  /// ReadLogForRecovery. Served
  /// from the in-memory retained window when it covers `from_seq`, else by
  /// re-scanning the log file. kNotFound when `from_seq` predates the log's
  /// base (a checkpoint truncated the history away — the replica must
  /// re-seed from a snapshot).
  Result<FeedBatch> ReadFeedRecords(uint64_t from_seq, size_t max_records,
                                    size_t max_bytes);

  Stats stats() const;
  const std::string& dir() const { return dir_; }
  std::string snapshot_path() const;
  std::string wal_path() const;

 private:
  PersistenceManager(std::string dir, Options options)
      : dir_(std::move(dir)), options_(options) {}

  /// One commit of the retained feed window.
  struct RetainedRecord {
    uint64_t seq = 0;
    /// Fate decided (SettleCommit ran). The feed ships nothing at or past
    /// an unsettled record: its flush may yet fail, in which case it is
    /// un-staged rather than settled.
    bool settled = false;
    uint32_t crc = 0;
    std::string payload;
  };

  /// Raises the settled watermark to `seq` (monotone, lock-free).
  void MarkSettled(uint64_t seq);

  /// Appends to the retained window, evicting from the front past the
  /// configured bounds (mu_ held).
  void RetainLocked(RetainedRecord record);

  /// Flips the retained record with exactly `seq` to settled; no-op when it
  /// was evicted or never staged (mu_ held).
  void SettleRetainedLocked(uint64_t seq);

  /// Removes the retained record with exactly `seq` — a staged commit whose
  /// flush failed must not linger where the feed could ship it (mu_ held).
  void UnretainLocked(uint64_t seq);

  std::string dir_;
  Options options_;

  mutable std::mutex mu_;
  // shared_ptr: PreparedCommit pins the writer across Checkpoint()'s swap.
  std::shared_ptr<WalWriter> writer_;
  uint64_t snapshot_seq_ = 0;   // base_seq the current snapshot covers
  uint64_t last_seq_ = 0;       // highest sequence number handed out
  uint64_t recovered_wal_size_ = 0;  // valid prefix found by recovery
  bool wal_existed_ = false;
  Stats stats_;

  /// Settled watermark (fetch-max). Atomic so the feed's long-poll check is
  /// a single relaxed load with no lock.
  std::atomic<uint64_t> settled_seq_{0};
  /// Retained window: every record with seq > retained_floor_ that has been
  /// staged since open, newest at the back (older ones evicted by bounds).
  std::deque<RetainedRecord> retained_;
  uint64_t retained_floor_ = 0;
  size_t retained_bytes_ = 0;
};

}  // namespace deddb::persist

#endif  // DEDDB_PERSIST_MANAGER_H_
