// End-to-end persistence lifecycle: OpenPersistent on a fresh directory,
// schema checkpoint, logged commits through both apply paths (direct and
// UpdateProcessor), reopen-and-recover equivalence, checkpoint compaction,
// abort-record filtering, and typed corruption on damaged files. Built on
// the paper's worked employment database (§2) so recovery is checked against
// derived (IDB) answers, not just stored facts.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/deductive_database.h"
#include "core/update_processor.h"
#include "persist/manager.h"
#include "util/resource_guard.h"
#include "util/strings.h"

namespace deddb {
namespace {

class PersistRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl = StrCat(::testing::TempDir(), "recXXXXXX");
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    ASSERT_NE(::mkdtemp(buf.data()), nullptr);
    dir_ = buf.data();
  }

  void TearDown() override {
    FaultInjector::Instance().Disarm();
    std::string cmd = StrCat("rm -rf ", dir_);
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  // The employment schema of the paper: Emp is a view over Works, Unemp a
  // view with negation, Ic1 forbids unemployment benefit for the employed.
  static void DeclareEmployment(DeductiveDatabase* db) {
    ASSERT_TRUE(db->DeclareBase("La", 1).ok());
    ASSERT_TRUE(db->DeclareBase("Works", 2).ok());
    ASSERT_TRUE(db->DeclareBase("U_benefit", 1).ok());
    ASSERT_TRUE(db->DeclareView("Emp", 1).ok());
    ASSERT_TRUE(db->DeclareView("Unemp", 1).ok());
    ASSERT_TRUE(db->DeclareConstraint("Ic1", 1).ok());
    Term x = db->Variable("x");
    Term y = db->Variable("y");
    ASSERT_TRUE(
        db->AddRule(Rule(db->MakeAtom("Emp", {x}).value(),
                         {Literal::Positive(
                             db->MakeAtom("Works", {x, y}).value())}))
            .ok());
    ASSERT_TRUE(
        db->AddRule(
              Rule(db->MakeAtom("Unemp", {x}).value(),
                   {Literal::Positive(db->MakeAtom("La", {x}).value()),
                    Literal::Negative(db->MakeAtom("Emp", {x}).value())}))
            .ok());
    ASSERT_TRUE(
        db->AddRule(
              Rule(db->MakeAtom("Ic1", {x}).value(),
                   {Literal::Positive(db->MakeAtom("Emp", {x}).value()),
                    Literal::Positive(
                        db->MakeAtom("U_benefit", {x}).value())}))
            .ok());
  }

  static Transaction Insert(DeductiveDatabase* db, const char* pred,
                            std::vector<std::string_view> constants) {
    Transaction txn;
    EXPECT_TRUE(
        txn.AddInsert(db->GroundAtom(pred, std::move(constants)).value())
            .ok());
    return txn;
  }

  // Evaluates the Unemp view by its definition: Unemp(x) holds iff La(x)
  // and no Works(x, _). Checking this after recovery verifies the IDB is
  // re-derivable from the recovered EDB.
  static bool Unemployed(DeductiveDatabase* db, const char* person) {
    SymbolId la = db->database().FindPredicate("La").value();
    SymbolId works = db->database().FindPredicate("Works").value();
    SymbolId c = db->symbols().Intern(person);
    if (!db->database().facts().Contains(la, {c})) return false;
    const Relation* w = db->database().facts().Find(works);
    if (w == nullptr) return true;
    return w->CountMatches({c, std::nullopt}) == 0;
  }

  std::string dir_;
};

TEST_F(PersistRecoveryTest, FreshDirectoryOpensEmpty) {
  auto db = DeductiveDatabase::OpenPersistent(dir_).value();
  ASSERT_NE(db->persistence(), nullptr);
  EXPECT_EQ(db->database().facts().TotalFacts(), 0u);
  EXPECT_EQ(db->persistence()->stats().last_seq, 0u);
}

TEST_F(PersistRecoveryTest, DirectCommitsSurviveReopen) {
  {
    auto db = DeductiveDatabase::OpenPersistent(dir_).value();
    DeclareEmployment(db.get());
    ASSERT_TRUE(db->Checkpoint().ok());  // make the schema durable
    ASSERT_TRUE(db->Apply(Insert(db.get(), "La", {"Dolors"})).ok());
    ASSERT_TRUE(
        db->Apply(Insert(db.get(), "Works", {"Joan", "Sales"})).ok());
    // No Close(): simulate a crash by just dropping the handle.
  }
  auto db = DeductiveDatabase::OpenPersistent(dir_).value();
  EXPECT_EQ(db->database().facts().TotalFacts(), 2u);
  EXPECT_TRUE(db->database().facts().Contains(
      db->database().FindPredicate("La").value(),
      {db->symbols().Intern("Dolors")}));
  // Recovery restores the IDB through the same rules: Dolors is unemployed,
  // Joan is not.
  EXPECT_TRUE(Unemployed(db.get(), "Dolors"));
  EXPECT_FALSE(Unemployed(db.get(), "Joan"));
  EXPECT_TRUE(db->IsConsistent().value());
}

TEST_F(PersistRecoveryTest, ProcessorCommitsReplayThroughTheProcessor) {
  {
    auto db = DeductiveDatabase::OpenPersistent(dir_).value();
    DeclareEmployment(db.get());
    ASSERT_TRUE(
        db->MaterializeView(db->database().FindPredicate("Unemp").value())
            .ok());
    ASSERT_TRUE(db->InitializeMaterializedViews().ok());
    ASSERT_TRUE(db->Checkpoint().ok());

    UpdateProcessor processor(db.get());
    auto r1 = processor.ProcessTransaction(
        Insert(db.get(), "La", {"Dolors"}));
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r1->accepted);
    auto r2 = processor.ProcessTransaction(
        Insert(db.get(), "Works", {"Dolors", "Sales"}));
    ASSERT_TRUE(r2.ok());
    ASSERT_TRUE(r2->accepted);
    // The materialized Unemp gained Dolors then lost her again.
    EXPECT_EQ(db->database().materialized_store().TotalFacts(), 0u);
  }
  auto db = DeductiveDatabase::OpenPersistent(dir_).value();
  // Replay went through ProcessTransaction, so the materialized store
  // re-converged (insert then maintained delete), not just the EDB.
  EXPECT_EQ(db->database().facts().TotalFacts(), 2u);
  EXPECT_EQ(db->database().materialized_store().TotalFacts(), 0u);
  EXPECT_TRUE(db->IsConsistent().value());
}

TEST_F(PersistRecoveryTest, RejectedTransactionIsNotLogged) {
  auto db = DeductiveDatabase::OpenPersistent(dir_).value();
  DeclareEmployment(db.get());
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_TRUE(
      db->Apply(Insert(db.get(), "Works", {"Dolors", "Sales"})).ok());
  const uint64_t committed = db->persistence()->stats().commits_logged;

  UpdateProcessor processor(db.get());
  // Violates Ic1 (employed AND receiving benefit) → rejected, not applied,
  // and crucially not logged.
  auto report = processor.ProcessTransaction(
      Insert(db.get(), "U_benefit", {"Dolors"}));
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->accepted);
  EXPECT_EQ(db->persistence()->stats().commits_logged, committed);
}

TEST_F(PersistRecoveryTest, CheckpointCompactsTheLogAndPreservesState) {
  {
    auto db = DeductiveDatabase::OpenPersistent(dir_).value();
    DeclareEmployment(db.get());
    ASSERT_TRUE(db->Checkpoint().ok());
    for (const char* person : {"Ada", "Bo", "Cy"}) {
      ASSERT_TRUE(db->Apply(Insert(db.get(), "La", {person})).ok());
    }
    const auto before = db->persistence()->stats();
    EXPECT_EQ(before.commits_logged, 3u);
    ASSERT_TRUE(db->Checkpoint().ok());
    const auto after = db->persistence()->stats();
    EXPECT_EQ(after.checkpoints, before.checkpoints + 1);
    // The fresh log holds only its header.
    EXPECT_EQ(after.wal_durable_bytes, persist::kWalHeaderSize);
    // Sequence numbers keep rising monotonically across checkpoints.
    ASSERT_TRUE(db->Apply(Insert(db.get(), "La", {"Di"})).ok());
    EXPECT_EQ(db->persistence()->stats().last_seq, after.last_seq + 1);
  }
  auto db = DeductiveDatabase::OpenPersistent(dir_).value();
  EXPECT_EQ(db->database().facts().TotalFacts(), 4u);
  for (const char* person : {"Ada", "Bo", "Cy", "Di"}) {
    EXPECT_TRUE(Unemployed(db.get(), person)) << person;
  }
}

// The engine no longer writes abort records, but logs written before
// rollbacks were retired may carry one; both readers must still honour it.
TEST_F(PersistRecoveryTest, AbortedCommitIsFilteredOnRecovery) {
  uint64_t base = 0;
  {
    auto db = DeductiveDatabase::OpenPersistent(dir_).value();
    DeclareEmployment(db.get());
    ASSERT_TRUE(db->Checkpoint().ok());
    base = db->persistence()->stats().last_seq;
    ASSERT_TRUE(db->Apply(Insert(db.get(), "La", {"Dolors"})).ok());
    UpdateProcessor processor(db.get());
    auto report = processor.ProcessTransaction(
        Insert(db.get(), "La", {"Joan"}));
    ASSERT_TRUE(report.ok() && report->accepted);
    // Dropped without Close(): the log keeps both commit records.
  }
  {
    // Append the abort record an old engine wrote when it rolled Joan's
    // commit back, exactly as it framed one.
    const std::string wal = StrCat(dir_, "/wal.deddb");
    struct stat st;
    ASSERT_EQ(::stat(wal.c_str(), &st), 0);
    auto writer = persist::WalWriter::OpenForAppend(
        wal, static_cast<uint64_t>(st.st_size), {});
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE((*writer)
                    ->AppendDurable(persist::EncodeAbortPayload(base + 3,
                                                                base + 2),
                                    {})
                    .ok());
  }
  auto db = DeductiveDatabase::OpenPersistent(dir_).value();
  // The aborted commit does not resurrect.
  EXPECT_EQ(db->database().facts().TotalFacts(), 1u);
  EXPECT_FALSE(db->database().facts().Contains(
      db->database().FindPredicate("La").value(),
      {db->symbols().Intern("Joan")}));
  // Nor does the feed ship it: reading from before the retained window
  // takes the log-file path, which drops the voided commit and the marker.
  Result<persist::PersistenceManager::FeedBatch> batch =
      db->persistence()->ReadFeedRecords(base, 0, 0);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->records.size(), 1u);
  EXPECT_EQ(batch->records[0].seq, base + 1);
  EXPECT_EQ(batch->last_durable_seq, base + 3);
}

// Reviewer-found replication bug: PrepareCommit used to stage the commit
// record into the retained feed window unconditionally, so a failed flush
// that left the committer able to go on (the writer self-heals) left a
// phantom staged; the next successful commit then raised the settled
// horizon past it and the feed shipped a transaction the primary never
// applied and whose bytes were truncated from the log. The facade now
// poisons itself on any failed flush, so the manager is driven directly.
TEST_F(PersistRecoveryTest, FailedFlushNeverFeedsPhantomRecord) {
  auto manager =
      persist::PersistenceManager::Open(dir_, {}).value();
  SymbolTable symbols;
  ASSERT_TRUE(manager->OpenLogForAppend().ok());
  const uint64_t base = manager->stats().last_seq;
  auto commit = [&](const char* person) -> Status {
    Transaction txn;
    EXPECT_TRUE(txn.AddInsert(symbols.Intern("La"),
                              Tuple{symbols.Intern(person)})
                    .ok());
    DEDDB_ASSIGN_OR_RETURN(
        persist::PersistenceManager::PreparedCommit prepared,
        manager->PrepareCommit(txn, persist::CommitOrigin::kDirect, symbols,
                               {}));
    DEDDB_RETURN_IF_ERROR(manager->WaitCommitDurable(prepared, {}));
    manager->SettleCommit(prepared.seq);
    return Status::Ok();
  };
  ASSERT_TRUE(commit("Dolors").ok());
  FaultInjector::Instance().Arm(FaultPoint::kWalFsync, 1,
                                InternalError("injected fsync failure"));
  Status failed = commit("Joan");
  FaultInjector::Instance().Disarm();
  ASSERT_FALSE(failed.ok());
  // The writer self-healed, so the log keeps accepting commits — which is
  // exactly what makes a lingering phantom shippable.
  ASSERT_TRUE(commit("Pau").ok());

  Result<persist::PersistenceManager::FeedBatch> batch =
      manager->ReadFeedRecords(base, 0, 0);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  // Dolors and Pau ship; the never-durable commit between them must not —
  // its sequence number is a permanent gap, matching what recovery replays.
  ASSERT_EQ(batch->records.size(), 2u);
  EXPECT_EQ(batch->records[0].seq, base + 1);
  EXPECT_EQ(batch->records[1].seq, base + 3);
  EXPECT_EQ(batch->last_durable_seq, base + 3);
}

// Sibling case: when the writer refuses the bytes outright (append failure
// rather than flush failure), the sequence number is reused by the next
// commit; a phantom staged under it would make the feed ship two records
// with the same seq — the real one then refused by the replica's cursor.
TEST_F(PersistRecoveryTest, RefusedAppendNeverStagesTwinFeedRecord) {
  {
    PersistOptions options;
    options.group_commit = false;  // AppendDurable fails inside PrepareCommit
    auto db = DeductiveDatabase::OpenPersistent(dir_, options).value();
    DeclareEmployment(db.get());
    ASSERT_TRUE(db->Checkpoint().ok());
    const uint64_t base = db->persistence()->stats().last_seq;
    ASSERT_TRUE(db->Apply(Insert(db.get(), "La", {"Dolors"})).ok());

    FaultInjector::Instance().Arm(FaultPoint::kWalAppend, 1,
                                  InternalError("injected append failure"));
    Status refused = db->Apply(Insert(db.get(), "La", {"Joan"}));
    FaultInjector::Instance().Disarm();
    ASSERT_FALSE(refused.ok());
    // Nothing was logged or applied, so the facade stays healthy and the
    // next commit takes over the refused sequence number.
    ASSERT_TRUE(db->commit_health().ok());
    ASSERT_TRUE(db->Apply(Insert(db.get(), "La", {"Pau"})).ok());
    EXPECT_EQ(db->persistence()->stats().last_seq, base + 2);

    Result<persist::PersistenceManager::FeedBatch> batch =
        db->persistence()->ReadFeedRecords(base, 0, 0);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->records.size(), 2u);
    EXPECT_EQ(batch->records[0].seq, base + 1);
    EXPECT_EQ(batch->records[1].seq, base + 2);  // reused, exactly once
  }
  // The record under the reused seq is Pau's commit, not the refused one:
  // replaying the log must reproduce what the feed shipped.
  auto reopened = DeductiveDatabase::OpenPersistent(dir_).value();
  EXPECT_TRUE(reopened->database().facts().Contains(
      reopened->database().FindPredicate("La").value(),
      {reopened->symbols().Intern("Pau")}));
  EXPECT_FALSE(reopened->database().facts().Contains(
      reopened->database().FindPredicate("La").value(),
      {reopened->symbols().Intern("Joan")}));
}

TEST_F(PersistRecoveryTest, CloseCheckpointsSchemaWithoutExplicitCall) {
  {
    auto db = DeductiveDatabase::OpenPersistent(dir_).value();
    DeclareEmployment(db.get());
    ASSERT_TRUE(db->Close().ok());
  }
  auto db = DeductiveDatabase::OpenPersistent(dir_).value();
  EXPECT_TRUE(db->database().FindPredicate("Unemp").ok());
  ASSERT_TRUE(db->Apply(Insert(db.get(), "La", {"Dolors"})).ok());
  EXPECT_TRUE(Unemployed(db.get(), "Dolors"));
}

TEST_F(PersistRecoveryTest, TornWalTailIsSilentlyTruncatedOnReopen) {
  {
    auto db = DeductiveDatabase::OpenPersistent(dir_).value();
    DeclareEmployment(db.get());
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->Apply(Insert(db.get(), "La", {"Dolors"})).ok());
    ASSERT_TRUE(db->Apply(Insert(db.get(), "La", {"Joan"})).ok());
  }
  // Tear the tail: chop 3 bytes off the log.
  std::string wal = StrCat(dir_, "/wal.deddb");
  struct stat st;
  ASSERT_EQ(::stat(wal.c_str(), &st), 0);
  ASSERT_EQ(::truncate(wal.c_str(), st.st_size - 3), 0);

  auto db = DeductiveDatabase::OpenPersistent(dir_).value();
  // The torn record (Joan) is gone; the intact prefix (Dolors) survived.
  EXPECT_EQ(db->database().facts().TotalFacts(), 1u);
  EXPECT_TRUE(db->database().facts().Contains(
      db->database().FindPredicate("La").value(),
      {db->symbols().Intern("Dolors")}));
  EXPECT_EQ(db->persistence()->stats().torn_tail_truncations, 1u);

  // And the truncation was physical: reopening again reports no tear.
  auto again = DeductiveDatabase::OpenPersistent(dir_).value();
  EXPECT_EQ(again->persistence()->stats().torn_tail_truncations, 0u);
}

TEST_F(PersistRecoveryTest, InteriorWalCorruptionIsTypedError) {
  {
    auto db = DeductiveDatabase::OpenPersistent(dir_).value();
    DeclareEmployment(db.get());
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->Apply(Insert(db.get(), "La", {"Dolors"})).ok());
    ASSERT_TRUE(db->Apply(Insert(db.get(), "La", {"Joan"})).ok());
  }
  // Flip a byte inside the FIRST record (interior damage, bytes follow).
  std::string wal = StrCat(dir_, "/wal.deddb");
  FILE* f = ::fopen(wal.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(::fseek(f, static_cast<long>(persist::kWalHeaderSize +
                                         persist::kWalFrameSize + 2),
                    SEEK_SET),
            0);
  int c = ::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(::fseek(f, -1, SEEK_CUR), 0);
  ::fputc(c ^ 0x5A, f);
  ::fclose(f);

  Result<std::unique_ptr<DeductiveDatabase>> reopened =
      DeductiveDatabase::OpenPersistent(dir_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST_F(PersistRecoveryTest, CorruptSnapshotIsTypedError) {
  {
    auto db = DeductiveDatabase::OpenPersistent(dir_).value();
    DeclareEmployment(db.get());
    ASSERT_TRUE(db->Apply(Insert(db.get(), "La", {"Dolors"})).ok());
    ASSERT_TRUE(db->Close().ok());
  }
  std::string snap = StrCat(dir_, "/snapshot.deddb");
  FILE* f = ::fopen(snap.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(::fseek(f, -2, SEEK_END), 0);
  int c = ::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(::fseek(f, -1, SEEK_CUR), 0);
  ::fputc(c ^ 0x5A, f);
  ::fclose(f);

  Result<std::unique_ptr<DeductiveDatabase>> reopened =
      DeductiveDatabase::OpenPersistent(dir_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST_F(PersistRecoveryTest, StaleCheckpointTmpFilesAreGarbageCollected) {
  {
    auto db = DeductiveDatabase::OpenPersistent(dir_).value();
    DeclareEmployment(db.get());
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(db->Apply(Insert(db.get(), "La", {"Dolors"})).ok());
  }
  // A crash mid-checkpoint leaves pre-rename temporaries behind.
  for (const char* name : {"snapshot.deddb.tmp", "wal.deddb.tmp"}) {
    FILE* f = ::fopen(StrCat(dir_, "/", name).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ::fputs("partial garbage", f);
    ::fclose(f);
  }
  auto db = DeductiveDatabase::OpenPersistent(dir_).value();
  EXPECT_EQ(db->database().facts().TotalFacts(), 1u);
  EXPECT_NE(::access(StrCat(dir_, "/snapshot.deddb.tmp").c_str(), F_OK), 0);
  EXPECT_NE(::access(StrCat(dir_, "/wal.deddb.tmp").c_str(), F_OK), 0);
}

TEST_F(PersistRecoveryTest, NonPersistentDatabaseRefusesCheckpoint) {
  DeductiveDatabase db;
  EXPECT_EQ(db.Checkpoint().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(db.Close().ok());  // no-op
  EXPECT_EQ(db.persistence(), nullptr);
}

}  // namespace
}  // namespace deddb
