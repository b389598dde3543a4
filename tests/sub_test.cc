// Tests of the subscription subsystem below the wire (DESIGN.md §11): the
// delta algebra (Coalesce), the client-side materialized view (SubView,
// driven by a differential oracle against full recomputation), the
// SubscriptionManager's queueing/overflow/resume machinery, and the facade's
// CDC commit hook edge cases (empty transaction, rejected no-op insert,
// commit with an empty induced delta — each must push nothing, not an empty
// frame).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "core/deductive_database.h"
#include "interp/derived_events.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "storage/transaction.h"
#include "storage/tuple.h"
#include "sub/cdc.h"
#include "sub/manager.h"
#include "sub/view.h"

namespace deddb {
namespace {

using sub::DeltaBatch;
using sub::GapReason;
using sub::OverflowPolicy;
using sub::SubscriptionManager;
using sub::SubscriptionSpec;

DeltaBatch MakeBatch(uint64_t version, std::vector<Tuple> inserts,
                     std::vector<Tuple> deletes) {
  DeltaBatch batch;
  batch.version = version;
  batch.inserts = std::move(inserts);
  batch.deletes = std::move(deletes);
  sub::SortUnique(&batch.inserts);
  sub::SortUnique(&batch.deletes);
  return batch;
}

/// The exactness invariant every batch must satisfy: sorted, duplicate-free
/// sides that are mutually disjoint.
void ExpectExact(const DeltaBatch& batch) {
  EXPECT_TRUE(std::is_sorted(batch.inserts.begin(), batch.inserts.end()));
  EXPECT_TRUE(std::is_sorted(batch.deletes.begin(), batch.deletes.end()));
  EXPECT_EQ(std::adjacent_find(batch.inserts.begin(), batch.inserts.end()),
            batch.inserts.end());
  EXPECT_EQ(std::adjacent_find(batch.deletes.begin(), batch.deletes.end()),
            batch.deletes.end());
  for (const Tuple& t : batch.inserts) {
    EXPECT_FALSE(std::binary_search(batch.deletes.begin(),
                                    batch.deletes.end(), t))
        << "tuple on both sides";
  }
}

// ---- Coalesce: exact sequential composition -------------------------------

TEST(DeltaBatchTest, CoalesceInsertThenDeleteCancels) {
  DeltaBatch merged = sub::Coalesce(MakeBatch(1, {{7}}, {}),
                                    MakeBatch(2, {}, {{7}}));
  EXPECT_TRUE(merged.empty());
  EXPECT_EQ(merged.version, 2u);
}

TEST(DeltaBatchTest, CoalesceDeleteThenReinsertCancels) {
  DeltaBatch merged = sub::Coalesce(MakeBatch(3, {}, {{7}}),
                                    MakeBatch(4, {{7}}, {}));
  EXPECT_TRUE(merged.empty());
  EXPECT_EQ(merged.version, 4u);
}

TEST(DeltaBatchTest, CoalesceDisjointSidesUnion) {
  DeltaBatch merged = sub::Coalesce(MakeBatch(1, {{2}}, {{9}}),
                                    MakeBatch(2, {{1}}, {{8}}));
  EXPECT_EQ(merged.inserts, (std::vector<Tuple>{{1}, {2}}));
  EXPECT_EQ(merged.deletes, (std::vector<Tuple>{{8}, {9}}));
  EXPECT_EQ(merged.version, 2u);
  ExpectExact(merged);
}

TEST(DeltaBatchTest, CoalesceMixedKeepsNetEffect) {
  // v1: +a -b; v2: +b -c. Net across both: +a, -c (b cancels out).
  const Tuple a = {1}, b = {2}, c = {3};
  DeltaBatch merged =
      sub::Coalesce(MakeBatch(1, {a}, {b}), MakeBatch(2, {b}, {c}));
  EXPECT_EQ(merged.inserts, (std::vector<Tuple>{a}));
  EXPECT_EQ(merged.deletes, (std::vector<Tuple>{c}));
  ExpectExact(merged);
}

TEST(DeltaBatchTest, CoalesceAgreesWithSequentialApplication) {
  // Oracle: applying Coalesce(first, second) to a set must equal applying
  // first then second, for a sweep of exact random delta pairs.
  std::mt19937 rng(20260808);
  const std::vector<Tuple> universe = {{1}, {2}, {3}, {4}, {5}, {6}};
  for (int round = 0; round < 200; ++round) {
    std::set<Tuple> state;
    for (const Tuple& t : universe) {
      if (rng() % 2 == 0) state.insert(t);
    }
    // An exact delta relative to `from`: deletes present tuples, inserts
    // absent ones.
    auto random_delta = [&](const std::set<Tuple>& from, uint64_t version) {
      DeltaBatch d;
      d.version = version;
      for (const Tuple& t : universe) {
        if (rng() % 3 != 0) continue;
        if (from.count(t)) {
          d.deletes.push_back(t);
        } else {
          d.inserts.push_back(t);
        }
      }
      return d;
    };
    auto apply = [](std::set<Tuple> s, const DeltaBatch& d) {
      for (const Tuple& t : d.deletes) s.erase(t);
      for (const Tuple& t : d.inserts) s.insert(t);
      return s;
    };
    DeltaBatch first = random_delta(state, 1);
    std::set<Tuple> mid = apply(state, first);
    DeltaBatch second = random_delta(mid, 2);
    std::set<Tuple> end = apply(mid, second);

    DeltaBatch merged = sub::Coalesce(first, second);
    ExpectExact(merged);
    EXPECT_EQ(apply(state, merged), end) << "round " << round;
  }
}

TEST(DeltaBatchTest, MatchesPatternWildcardsAndConstants) {
  const Tuple t = {10, 20};
  EXPECT_TRUE(sub::MatchesPattern(t, {std::nullopt, std::nullopt}));
  EXPECT_TRUE(sub::MatchesPattern(t, {SymbolId{10}, std::nullopt}));
  EXPECT_TRUE(sub::MatchesPattern(t, {SymbolId{10}, SymbolId{20}}));
  EXPECT_FALSE(sub::MatchesPattern(t, {SymbolId{11}, std::nullopt}));
  EXPECT_FALSE(sub::MatchesPattern(t, {std::nullopt, SymbolId{21}}));
  // Arity mismatch never matches.
  EXPECT_FALSE(sub::MatchesPattern(t, {std::nullopt}));
  EXPECT_FALSE(
      sub::MatchesPattern(t, {std::nullopt, std::nullopt, std::nullopt}));
}

TEST(DeltaBatchTest, SortUniqueSortsAndDeduplicates) {
  std::vector<Tuple> tuples = {{3}, {1}, {2}, {1}, {3}};
  sub::SortUnique(&tuples);
  EXPECT_EQ(tuples, (std::vector<Tuple>{{1}, {2}, {3}}));
}

// ---- SubView: the client-side materialized view ---------------------------

TEST(SubViewTest, ResetSortsAndDeduplicates) {
  sub::SubView view;
  view.Reset(5, {{3}, {1}, {3}, {2}});
  EXPECT_EQ(view.version(), 5u);
  EXPECT_EQ(view.tuples(), (std::vector<Tuple>{{1}, {2}, {3}}));
}

TEST(SubViewTest, ApplyAdvancesVersionAndContent) {
  sub::SubView view;
  view.Reset(1, {{1}, {2}});
  ASSERT_TRUE(view.Apply(MakeBatch(2, {{3}}, {{1}})).ok());
  EXPECT_EQ(view.version(), 2u);
  EXPECT_EQ(view.tuples(), (std::vector<Tuple>{{2}, {3}}));
}

TEST(SubViewTest, ApplyRejectsDuplicateOrReorderedFrame) {
  sub::SubView view;
  view.Reset(3, {{1}});
  // Same version and older version both mean a duplicated/reordered frame.
  EXPECT_EQ(view.Apply(MakeBatch(3, {{2}}, {})).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(view.Apply(MakeBatch(2, {{2}}, {})).code(),
            StatusCode::kFailedPrecondition);
  // And the view is untouched.
  EXPECT_EQ(view.version(), 3u);
  EXPECT_EQ(view.tuples(), (std::vector<Tuple>{{1}}));
}

TEST(SubViewTest, ApplyRejectsDivergenceAsCorruption) {
  sub::SubView view;
  view.Reset(1, {{1}});
  EXPECT_EQ(view.Apply(MakeBatch(2, {{1}}, {})).code(),
            StatusCode::kCorruption);  // insert of a present tuple
  EXPECT_EQ(view.Apply(MakeBatch(2, {}, {{9}})).code(),
            StatusCode::kCorruption);  // delete of an absent tuple
  EXPECT_EQ(view.version(), 1u);
  EXPECT_EQ(view.tuples(), (std::vector<Tuple>{{1}}));
}

TEST(SubViewTest, DifferentialOracleAgainstRecomputation) {
  // Drive the view through 100 random exact deltas; after each, its
  // contents and canonical rendering must be byte-identical to the
  // independently maintained reference set.
  SymbolTable symbols;
  std::vector<Tuple> universe;
  for (const char* name : {"A", "B", "C", "D", "E"}) {
    for (const char* other : {"X", "Y"}) {
      universe.push_back({symbols.Intern(name), symbols.Intern(other)});
    }
  }
  std::mt19937 rng(42);
  std::set<Tuple> reference;
  sub::SubView view;
  view.Reset(0, {});
  for (uint64_t version = 1; version <= 100; ++version) {
    DeltaBatch batch;
    batch.version = version;
    for (const Tuple& t : universe) {
      if (rng() % 3 != 0) continue;
      if (reference.count(t)) {
        batch.deletes.push_back(t);
        reference.erase(t);
      } else {
        batch.inserts.push_back(t);
        reference.insert(t);
      }
    }
    sub::SortUnique(&batch.inserts);
    sub::SortUnique(&batch.deletes);
    ASSERT_TRUE(view.Apply(batch).ok()) << "version " << version;
    EXPECT_EQ(view.version(), version);
    EXPECT_EQ(view.tuples(),
              std::vector<Tuple>(reference.begin(), reference.end()));
    std::string expected;
    for (const Tuple& t : reference) {
      expected += TupleToString(t, symbols);
      expected += '\n';
    }
    ASSERT_EQ(view.ToString(symbols), expected) << "version " << version;
  }
}

TEST(SubViewTest, ToStringRendersSortedTuplesOnePerLine) {
  SymbolTable symbols;
  const SymbolId a = symbols.Intern("A");
  const SymbolId b = symbols.Intern("B");
  sub::SubView view;
  view.Reset(1, {{b, a}, {a, b}});
  const std::string expected_first = TupleToString(
      std::min(Tuple{a, b}, Tuple{b, a}), symbols);
  const std::string rendered = view.ToString(symbols);
  EXPECT_EQ(rendered.substr(0, expected_first.size()), expected_first);
  EXPECT_EQ(std::count(rendered.begin(), rendered.end(), '\n'), 2);
}

// ---- SubscriptionManager: queueing, overflow, resume ----------------------

class SubManagerTest : public ::testing::Test {
 protected:
  SubManagerTest() : pred_(symbols_.Intern("P")) {}

  SubscriptionSpec BaseSpec(size_t max_queued = 64,
                            OverflowPolicy policy =
                                OverflowPolicy::kDisconnectWithGap) {
    SubscriptionSpec spec;
    spec.predicate = pred_;
    spec.filter = {std::nullopt};
    spec.derived = false;
    spec.policy = policy;
    spec.max_queued = max_queued;
    return spec;
  }

  /// One committed transaction inserting/deleting unary P facts.
  Transaction Txn(std::vector<SymbolId> inserts,
                  std::vector<SymbolId> deletes = {}) {
    Transaction txn;
    for (SymbolId s : inserts) EXPECT_TRUE(txn.AddInsert(pred_, {s}).ok());
    for (SymbolId s : deletes) EXPECT_TRUE(txn.AddDelete(pred_, {s}).ok());
    return txn;
  }

  /// Drives the observer contract the way the facade does: wanted set
  /// first, then the commit.
  void Commit(SubscriptionManager* mgr, uint64_t version,
              const Transaction& txn) {
    const DerivedEvents no_derived;
    mgr->WantedDerived();
    mgr->OnCommit(version, txn, no_derived);
  }

  SymbolTable symbols_;
  SymbolId pred_;
};

TEST_F(SubManagerTest, ActivateDropsBatchesTheSnapshotContains) {
  SubscriptionManager mgr;
  const uint64_t id = mgr.Register(BaseSpec(), /*owner=*/1);
  // Both commits land while the subscription is pending (snapshot being
  // built); the snapshot is taken at version 1, so only v2 must be pushed.
  Commit(&mgr, 1, Txn({symbols_.Intern("a")}));
  Commit(&mgr, 2, Txn({symbols_.Intern("b")}));
  mgr.Activate(id, /*snapshot_version=*/1);
  auto item = mgr.WaitPop();
  ASSERT_TRUE(item.has_value());
  EXPECT_FALSE(item->is_gap);
  EXPECT_EQ(item->sub_id, id);
  EXPECT_EQ(item->version, 2u);
  EXPECT_EQ(item->batch.inserts, (std::vector<Tuple>{{symbols_.Intern("b")}}));
  EXPECT_EQ(mgr.Stats().queued_batches, 0u);
}

TEST_F(SubManagerTest, EmptyFilteredDeltaEnqueuesNothing) {
  SubscriptionManager mgr;
  SubscriptionSpec spec = BaseSpec();
  spec.filter = {symbols_.Intern("wanted")};
  const uint64_t id = mgr.Register(spec, 1);
  mgr.Activate(id, 0);
  // The commit touches P, but no tuple passes the bound-argument filter:
  // nothing is queued — not an empty batch.
  Commit(&mgr, 1, Txn({symbols_.Intern("other")}));
  const auto stats = mgr.Stats();
  EXPECT_EQ(stats.commits_observed, 1u);
  EXPECT_EQ(stats.deltas_queued, 0u);
  EXPECT_EQ(stats.queued_batches, 0u);
}

TEST_F(SubManagerTest, BoundArgumentFilterSelectsMatchingTuples) {
  SubscriptionManager mgr;
  SubscriptionSpec spec = BaseSpec();
  const SymbolId wanted = symbols_.Intern("wanted");
  spec.filter = {wanted};
  const uint64_t id = mgr.Register(spec, 1);
  mgr.Activate(id, 0);
  Commit(&mgr, 1, Txn({wanted, symbols_.Intern("other")}));
  auto item = mgr.WaitPop();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->batch.inserts, (std::vector<Tuple>{{wanted}}));
  EXPECT_TRUE(item->batch.deletes.empty());
}

TEST_F(SubManagerTest, DeliveryIsFifoPerSubscription) {
  SubscriptionManager mgr;
  const uint64_t id = mgr.Register(BaseSpec(), 1);
  mgr.Activate(id, 0);
  for (uint64_t v = 1; v <= 3; ++v) {
    Commit(&mgr, v, Txn({symbols_.Intern(std::to_string(v).c_str())}));
  }
  for (uint64_t v = 1; v <= 3; ++v) {
    auto item = mgr.WaitPop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(item->version, v);
  }
}

TEST_F(SubManagerTest, OverflowDisconnectsWithGapAndEndsSubscription) {
  SubscriptionManager mgr;
  const uint64_t id = mgr.Register(BaseSpec(/*max_queued=*/1), 1);
  mgr.Activate(id, 0);
  Commit(&mgr, 1, Txn({symbols_.Intern("a")}));
  // Queue is at its bound; the next matching delta overflows.
  Commit(&mgr, 2, Txn({symbols_.Intern("b")}));
  auto item = mgr.WaitPop();
  ASSERT_TRUE(item.has_value());
  EXPECT_TRUE(item->is_gap);
  EXPECT_EQ(item->reason, GapReason::kOverflow);
  EXPECT_EQ(item->version, 2u);
  // The gap marker is terminal: the subscription is gone.
  EXPECT_EQ(mgr.OwnerSubscriptions(1), 0u);
  EXPECT_EQ(mgr.Stats().gap_events, 1u);
}

TEST_F(SubManagerTest, OverflowCoalesceMergesIntoExactBatch) {
  SubscriptionManager mgr;
  const uint64_t id =
      mgr.Register(BaseSpec(/*max_queued=*/1, OverflowPolicy::kCoalesce), 1);
  mgr.Activate(id, 0);
  const SymbolId a = symbols_.Intern("a");
  const SymbolId b = symbols_.Intern("b");
  Commit(&mgr, 1, Txn({a}));
  Commit(&mgr, 2, Txn({b}));  // at the bound: merged into the v1 batch
  auto item = mgr.WaitPop();
  ASSERT_TRUE(item.has_value());
  EXPECT_FALSE(item->is_gap);
  EXPECT_EQ(item->version, 2u);
  std::vector<Tuple> expected = {{a}, {b}};
  sub::SortUnique(&expected);
  EXPECT_EQ(item->batch.inserts, expected);
  EXPECT_EQ(mgr.Stats().deltas_coalesced, 1u);
  EXPECT_EQ(mgr.Stats().gap_events, 0u);
}

TEST_F(SubManagerTest, CoalesceToNetEmptyDropsTheBatchEntirely) {
  SubscriptionManager mgr;
  const uint64_t id =
      mgr.Register(BaseSpec(/*max_queued=*/1, OverflowPolicy::kCoalesce), 1);
  mgr.Activate(id, 0);
  const SymbolId a = symbols_.Intern("a");
  const SymbolId b = symbols_.Intern("b");
  Commit(&mgr, 1, Txn({a}));
  Commit(&mgr, 2, Txn({}, {a}));  // merge cancels: +a then -a
  EXPECT_EQ(mgr.Stats().queued_batches, 0u);
  // The subscriber's next batch simply jumps versions.
  Commit(&mgr, 3, Txn({b}));
  auto item = mgr.WaitPop();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->version, 3u);
  EXPECT_EQ(item->batch.inserts, (std::vector<Tuple>{{b}}));
}

TEST_F(SubManagerTest, BarrierGapsEveryLiveSubscription) {
  SubscriptionManager mgr;
  const uint64_t id = mgr.Register(BaseSpec(), 1);
  mgr.Activate(id, 0);
  mgr.OnBarrier(5);
  auto item = mgr.WaitPop();
  ASSERT_TRUE(item.has_value());
  EXPECT_TRUE(item->is_gap);
  EXPECT_EQ(item->reason, GapReason::kBarrier);
  EXPECT_EQ(item->version, 5u);
  EXPECT_EQ(mgr.Stats().barriers, 1u);
}

TEST_F(SubManagerTest, BarrierDuringHandshakeGapsAtActivate) {
  SubscriptionManager mgr;
  const uint64_t id = mgr.Register(BaseSpec(), 1);
  mgr.OnBarrier(3);  // pending: gap is remembered, not yet deliverable
  mgr.Activate(id, 3);
  auto item = mgr.WaitPop();
  ASSERT_TRUE(item.has_value());
  EXPECT_TRUE(item->is_gap);
  EXPECT_EQ(item->reason, GapReason::kBarrier);
}

TEST_F(SubManagerTest, ResumeReplaysTheRetainedWindow) {
  SubscriptionManager mgr;
  // Arm the CDC log with a first subscriber, then commit past it.
  const uint64_t first = mgr.Register(BaseSpec(), 1);
  mgr.Activate(first, 0);
  const SymbolId a = symbols_.Intern("a");
  const SymbolId b = symbols_.Intern("b");
  const SymbolId c = symbols_.Intern("c");
  Commit(&mgr, 1, Txn({a}));
  Commit(&mgr, 2, Txn({b}));
  Commit(&mgr, 3, Txn({c}));
  // A reconnecting client that acknowledged version 1 resumes: v2 and v3
  // are replayed from the log, v1 is not (the client already has it).
  const uint64_t id = mgr.Register(BaseSpec(), 2);
  ASSERT_TRUE(mgr.TryStageResume(id, /*from_version=*/1));
  mgr.Activate(id, 1);
  std::vector<uint64_t> versions;
  for (int i = 0; i < 5 && versions.size() < 5; ++i) {
    auto item = mgr.WaitPop();
    ASSERT_TRUE(item.has_value());
    if (item->sub_id != id) continue;  // the first sub's live batches
    versions.push_back(item->version);
    if (versions.size() == 2) break;
  }
  EXPECT_EQ(versions, (std::vector<uint64_t>{2, 3}));
  EXPECT_EQ(mgr.Stats().resume_hits, 1u);
}

TEST_F(SubManagerTest, ResumeMissesAheadOfLatestVersion) {
  SubscriptionManager mgr;
  const uint64_t arm = mgr.Register(BaseSpec(), 1);
  mgr.Activate(arm, 0);
  Commit(&mgr, 1, Txn({symbols_.Intern("a")}));
  const uint64_t id = mgr.Register(BaseSpec(), 2);
  EXPECT_FALSE(mgr.TryStageResume(id, /*from_version=*/7));
  EXPECT_EQ(mgr.Stats().resume_misses, 1u);
}

TEST_F(SubManagerTest, ResumeMissesAcrossABarrier) {
  SubscriptionManager mgr;
  const uint64_t arm = mgr.Register(BaseSpec(), 1);
  mgr.Activate(arm, 0);
  Commit(&mgr, 1, Txn({symbols_.Intern("a")}));
  mgr.OnBarrier(2);
  Commit(&mgr, 3, Txn({symbols_.Intern("b")}));
  const uint64_t id = mgr.Register(BaseSpec(), 2);
  // The barrier at v2 fences v1: the stream from there is not contiguous.
  EXPECT_FALSE(mgr.TryStageResume(id, /*from_version=*/1));
  // Resuming from after the barrier still works.
  const uint64_t id2 = mgr.Register(BaseSpec(), 2);
  EXPECT_TRUE(mgr.TryStageResume(id2, /*from_version=*/3));
}

TEST_F(SubManagerTest, ResumeMissesWhenTheWindowEvicted) {
  SubscriptionManager::Options options;
  options.retain_window = 1;
  SubscriptionManager mgr(options);
  const uint64_t arm = mgr.Register(BaseSpec(), 1);
  mgr.Activate(arm, 0);
  Commit(&mgr, 1, Txn({symbols_.Intern("a")}));
  Commit(&mgr, 2, Txn({symbols_.Intern("b")}));
  Commit(&mgr, 3, Txn({symbols_.Intern("c")}));
  const uint64_t id = mgr.Register(BaseSpec(), 2);
  // Only v3 is retained; a resume from v1 has lost v2.
  EXPECT_FALSE(mgr.TryStageResume(id, /*from_version=*/1));
  const uint64_t id2 = mgr.Register(BaseSpec(), 2);
  EXPECT_TRUE(mgr.TryStageResume(id2, /*from_version=*/2));
}

TEST_F(SubManagerTest, DerivedResumeRequiresCoveredEntries) {
  SubscriptionManager mgr;
  // Arm with a base subscriber so commits are logged, but with no derived
  // subscriber: the logged entries cover no derived predicate.
  const uint64_t arm = mgr.Register(BaseSpec(), 1);
  mgr.Activate(arm, 0);
  Commit(&mgr, 1, Txn({symbols_.Intern("a")}));
  SubscriptionSpec derived = BaseSpec();
  derived.predicate = symbols_.Intern("V");
  derived.derived = true;
  const uint64_t id = mgr.Register(derived, 2);
  // The v1 entry carries no induced events for V, so a derived resume
  // across it must miss (falling back to a fresh snapshot).
  EXPECT_FALSE(mgr.TryStageResume(id, /*from_version=*/0));
  EXPECT_EQ(mgr.Stats().resume_misses, 1u);
}

TEST_F(SubManagerTest, DerivedResumeMissesWhileAnUncoveringCommitIsInFlight) {
  // The race the 100-seed chaos suite found: a commit's WantedDerived()
  // runs while no one subscribes to V (so its induced events skip V), a
  // derived V subscriber registers mid-commit, and its resume is staged
  // before OnCommit lands. latest_version_ still predates the in-flight
  // commit, so every contiguity check passes — but the commit's batch for
  // this sub will be empty, silently losing its delta. The stage must miss
  // until the commit lands (then the covered check takes over).
  SubscriptionManager mgr;
  const uint64_t arm = mgr.Register(BaseSpec(), 1);
  mgr.Activate(arm, 0);
  Commit(&mgr, 1, Txn({symbols_.Intern("a")}));
  // Commit v2 is now in flight: wanted computed (covering no derived
  // predicate), OnCommit not yet delivered.
  mgr.WantedDerived();
  SubscriptionSpec derived = BaseSpec();
  derived.predicate = symbols_.Intern("V");
  derived.derived = true;
  const uint64_t id = mgr.Register(derived, 2);
  EXPECT_FALSE(mgr.TryStageResume(id, /*from_version=*/1));
  EXPECT_EQ(mgr.Stats().resume_misses, 1u);
  // Once v2 lands, the entry is visible and uncovered for V: still a miss,
  // but now by the ordinary covered check.
  const DerivedEvents no_derived;
  mgr.OnCommit(2, Txn({symbols_.Intern("b")}), no_derived);
  EXPECT_FALSE(mgr.TryStageResume(id, /*from_version=*/1));
  EXPECT_EQ(mgr.Stats().resume_misses, 2u);
  // A base subscriber registered mid-commit is unaffected: transactions are
  // always fully retained, and the in-flight commit's batch reaches its
  // pending queue.
  mgr.WantedDerived();
  const uint64_t base_id = mgr.Register(BaseSpec(), 3);
  EXPECT_TRUE(mgr.TryStageResume(base_id, /*from_version=*/2));
}

TEST_F(SubManagerTest, DerivedDeltaReadFromInducedEvents) {
  SubscriptionManager mgr;
  SubscriptionSpec spec = BaseSpec();
  const SymbolId view = symbols_.Intern("V");
  spec.predicate = view;
  spec.derived = true;
  const uint64_t id = mgr.Register(spec, 1);
  mgr.Activate(id, 0);
  // The commit's base delta must NOT leak into a derived subscription; its
  // batch comes from the induced events alone.
  DerivedEvents induced;
  const SymbolId x = symbols_.Intern("x");
  induced.inserts.Add(view, {x});
  EXPECT_EQ(mgr.WantedDerived(), (std::vector<SymbolId>{view}));
  mgr.OnCommit(1, Txn({symbols_.Intern("a")}), induced);
  auto item = mgr.WaitPop();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->predicate, view);
  EXPECT_EQ(item->batch.inserts, (std::vector<Tuple>{{x}}));
  EXPECT_TRUE(item->batch.deletes.empty());
}

// Stats() and the registry are one set of books: a resume's replayed
// batches count as queued in both, and cancelling subscriptions moves the
// sub.active gauge as well as Stats().active.
TEST_F(SubManagerTest, RegistryAgreesWithStats) {
  obs::MetricsRegistry metrics;
  SubscriptionManager mgr(
      SubscriptionManager::Options{256, obs::ObsContext{nullptr, &metrics}});
  const uint64_t first = mgr.Register(BaseSpec(), 1);
  mgr.Activate(first, 0);
  Commit(&mgr, 1, Txn({symbols_.Intern("a")}));
  Commit(&mgr, 2, Txn({symbols_.Intern("b")}));
  Commit(&mgr, 3, Txn({symbols_.Intern("c")}));
  const uint64_t second = mgr.Register(BaseSpec(), 2);
  ASSERT_TRUE(mgr.TryStageResume(second, /*from_version=*/1));
  mgr.Activate(second, 1);
  EXPECT_EQ(mgr.Stats().deltas_queued, 5u);
  EXPECT_EQ(mgr.Stats().deltas_queued, metrics.counter("sub.deltas_queued"));
  EXPECT_EQ(static_cast<int64_t>(mgr.Stats().active),
            metrics.gauge("sub.active"));

  ASSERT_TRUE(mgr.Cancel(first, 1));
  EXPECT_EQ(mgr.CancelOwner(2), 1u);
  EXPECT_EQ(mgr.Stats().active, 0u);
  EXPECT_EQ(static_cast<int64_t>(mgr.Stats().active),
            metrics.gauge("sub.active"));
}

TEST_F(SubManagerTest, CancelIsOwnerChecked) {
  SubscriptionManager mgr;
  const uint64_t id = mgr.Register(BaseSpec(), /*owner=*/1);
  EXPECT_FALSE(mgr.Cancel(id, /*owner=*/2));
  EXPECT_EQ(mgr.OwnerSubscriptions(1), 1u);
  EXPECT_TRUE(mgr.Cancel(id, 1));
  EXPECT_EQ(mgr.OwnerSubscriptions(1), 0u);
  EXPECT_FALSE(mgr.Cancel(id, 1));  // already gone
}

TEST_F(SubManagerTest, CancelOwnerEndsEverySubscriptionOfTheConnection) {
  SubscriptionManager mgr;
  mgr.Register(BaseSpec(), 1);
  mgr.Register(BaseSpec(), 1);
  mgr.Register(BaseSpec(), 2);
  EXPECT_EQ(mgr.CancelOwner(1), 2u);
  EXPECT_EQ(mgr.OwnerSubscriptions(1), 0u);
  EXPECT_EQ(mgr.OwnerSubscriptions(2), 1u);
}

TEST_F(SubManagerTest, WaitPopSkipsCancelledSubscriptions) {
  SubscriptionManager mgr;
  const uint64_t doomed = mgr.Register(BaseSpec(), 1);
  const uint64_t kept = mgr.Register(BaseSpec(), 1);
  mgr.Activate(doomed, 0);
  mgr.Activate(kept, 0);
  Commit(&mgr, 1, Txn({symbols_.Intern("a")}));  // both scheduled
  ASSERT_TRUE(mgr.Cancel(doomed, 1));
  auto item = mgr.WaitPop();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->sub_id, kept);
}

TEST_F(SubManagerTest, ShutdownWakesABlockedWaitPop) {
  SubscriptionManager mgr;
  std::optional<sub::PushItem> popped = sub::PushItem{};
  std::thread pusher([&] { popped = mgr.WaitPop(); });
  mgr.Shutdown();
  pusher.join();
  EXPECT_FALSE(popped.has_value());
  // And WaitPop stays woken for any later caller.
  EXPECT_FALSE(mgr.WaitPop().has_value());
}

// ---- SubEdge: the facade's CDC hook, edge cases first ---------------------
// Satellite: the InducedEvents paths feeding CDC — an empty transaction, a
// rejected no-op insert, and a commit whose induced delta is empty must each
// push nothing (not an empty frame).

class SubEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<DeductiveDatabase>();
    auto loaded = LoadProgram(db_.get(), R"(
      base P/1. base Q/1.
      view V/1.
      V(x) <- P(x) & not Q(x).
      P(A).
    )");
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    db_->set_commit_observer(&mgr_);
  }

  void TearDown() override { db_->set_commit_observer(nullptr); }

  uint64_t RegisterBase(const char* predicate) {
    SubscriptionSpec spec;
    spec.predicate = db_->database().FindPredicate(predicate).value();
    spec.filter = {std::nullopt};
    spec.derived = false;
    const uint64_t id = mgr_.Register(spec, 1);
    mgr_.Activate(id, db_->version());
    return id;
  }

  uint64_t RegisterDerived(const char* predicate) {
    SubscriptionSpec spec;
    spec.predicate = db_->database().FindPredicate(predicate).value();
    spec.filter = {std::nullopt};
    spec.derived = true;
    const uint64_t id = mgr_.Register(spec, 1);
    mgr_.Activate(id, db_->version());
    return id;
  }

  std::unique_ptr<DeductiveDatabase> db_;
  SubscriptionManager mgr_;
};

TEST_F(SubEdgeTest, EnumNamesAreStableMetricLabels) {
  // These strings appear in metric names (sub.gap_*, sub.policy_*) and in
  // operator-facing diagnostics; renaming one silently breaks dashboards.
  EXPECT_STREQ(OverflowPolicyName(OverflowPolicy::kDisconnectWithGap),
               "disconnect_with_gap");
  EXPECT_STREQ(OverflowPolicyName(OverflowPolicy::kCoalesce), "coalesce");
  EXPECT_STREQ(GapReasonName(GapReason::kOverflow), "overflow");
  EXPECT_STREQ(GapReasonName(GapReason::kBarrier), "barrier");
  EXPECT_STREQ(GapReasonName(GapReason::kResumeWindow), "resume_window");
  EXPECT_STREQ(GapReasonName(GapReason::kShutdown), "shutdown");
}

TEST_F(SubEdgeTest, EmptyTransactionPushesNothing) {
  RegisterBase("P");
  ASSERT_TRUE(db_->Apply(Transaction{}).ok());
  const auto stats = mgr_.Stats();
  EXPECT_EQ(stats.commits_observed, 1u);  // the commit was observed...
  EXPECT_EQ(stats.deltas_queued, 0u);     // ...but nothing was queued
  EXPECT_EQ(stats.queued_batches, 0u);
}

TEST_F(SubEdgeTest, RejectedNoOpInsertPushesNothing) {
  RegisterBase("P");
  // P(A) already holds, so the insertion event is invalid (paper eq. 1):
  // the write is rejected before the commit path, and CDC sees nothing.
  auto txn = ParseTransaction(db_.get(), "ins P(A)");
  ASSERT_TRUE(txn.ok());
  EXPECT_EQ(db_->Apply(*txn).code(), StatusCode::kFailedPrecondition);
  const auto stats = mgr_.Stats();
  EXPECT_EQ(stats.commits_observed, 0u);
  EXPECT_EQ(stats.queued_batches, 0u);
}

TEST_F(SubEdgeTest, CommitWithEmptyInducedDeltaPushesNothing) {
  RegisterDerived("V");
  // Q(B) flips no V tuple (V(B) would also need P(B)): the induced delta
  // for V is empty, so the derived subscriber gets nothing.
  auto txn = ParseTransaction(db_.get(), "ins Q(B)");
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db_->Apply(*txn).ok());
  const auto stats = mgr_.Stats();
  EXPECT_EQ(stats.commits_observed, 1u);
  EXPECT_EQ(stats.deltas_queued, 0u);
  EXPECT_EQ(stats.queued_batches, 0u);
}

TEST_F(SubEdgeTest, InducedDeltaMatchesFullRederivation) {
  RegisterDerived("V");
  // Prime the client-side view from a pinned snapshot.
  auto session = db_->BeginSession();
  ASSERT_TRUE(session.ok());
  auto pattern = db_->MakeAtom("V", {db_->Variable("x")});
  ASSERT_TRUE(pattern.ok());
  auto initial = (*session)->Solve(*pattern);
  ASSERT_TRUE(initial.ok());
  sub::SubView view;
  view.Reset((*session)->version(), std::move(*initial));

  // ins Q(A) retracts V(A): P(A) & not Q(A) stops holding.
  auto txn = ParseTransaction(db_.get(), "ins Q(A)");
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db_->Apply(*txn).ok());
  auto item = mgr_.WaitPop();
  ASSERT_TRUE(item.has_value());
  ASSERT_FALSE(item->is_gap);
  EXPECT_EQ(item->version, db_->version());
  ASSERT_TRUE(view.Apply(item->batch).ok());

  // Byte-identity against full re-derivation at the pushed version.
  auto fresh = db_->BeginSession();
  ASSERT_TRUE(fresh.ok());
  auto rederived = (*fresh)->Solve(*pattern);
  ASSERT_TRUE(rederived.ok());
  sub::SubView oracle;
  oracle.Reset((*fresh)->version(), std::move(*rederived));
  EXPECT_EQ(view.ToString(db_->symbols()), oracle.ToString(db_->symbols()));
}

TEST_F(SubEdgeTest, DirectFacadeMutationAnnouncesABarrier) {
  RegisterBase("P");
  // AddFact bypasses the transaction path: no delta stream exists for it,
  // so every live subscription is gapped instead of silently diverging.
  ASSERT_TRUE(db_->AddFact(db_->GroundAtom("P", {"Z"}).value()).ok());
  auto item = mgr_.WaitPop();
  ASSERT_TRUE(item.has_value());
  EXPECT_TRUE(item->is_gap);
  EXPECT_EQ(item->reason, GapReason::kBarrier);
  EXPECT_EQ(item->version, db_->version());
  EXPECT_EQ(mgr_.Stats().barriers, 1u);
}

TEST_F(SubEdgeTest, BaseDeltaReadStraightOffTheTransaction) {
  RegisterBase("Q");
  auto txn = ParseTransaction(db_.get(), "ins Q(C)");
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(db_->Apply(*txn).ok());
  auto item = mgr_.WaitPop();
  ASSERT_TRUE(item.has_value());
  ASSERT_FALSE(item->is_gap);
  EXPECT_EQ(item->batch.inserts,
            (std::vector<Tuple>{{db_->symbols().Intern("C")}}));
  EXPECT_TRUE(item->batch.deletes.empty());
}

}  // namespace
}  // namespace deddb
