// The admission-control contract of the service layer (DESIGN.md §10),
// proved deterministically: the writer thread is parked on a test latch
// (ServerOptions::writer_stall_for_test), so the suite fills the bounded
// queue to exactly its configured depth, drives per-connection quotas to
// exactly their limit, lets deadlines expire while requests sit in the
// queue, and then releases the latch — no sleeps, no timing assumptions.
//
// Contracts covered: reject-on-overload (kResourceExhausted once the queue
// is full), per-client quotas (kResourceExhausted for the pipelining client,
// neighbors unaffected), deadline expiry mid-queue (kDeadlineExceeded at
// dequeue, transaction NOT executed), typed guard trips through the read
// path (kDeadlineExceeded vs kBudgetExceeded as distinct wire codes — the
// small-fix regression), queue-depth/rejection metrics movement, and
// graceful shutdown (Stop() drains admitted writes and answers them).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/deductive_database.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "server/transport.h"
#include "util/strings.h"

namespace deddb::server {
namespace {

/// A reusable gate the writer thread blocks on.
class Latch {
 public:
  void Block() {
    std::unique_lock<std::mutex> lock(mu_);
    ++waiting_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
    --waiting_;
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  /// Waits until the writer thread has actually parked (so "the queue is
  /// stalled" is a fact, not a race).
  void AwaitBlocked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return waiting_ > 0 || open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int waiting_ = 0;
  bool open_ = false;
};

void DeclareSchema(DeductiveDatabase* db) {
  ASSERT_TRUE(db->DeclareBase("Q", 1).ok());
  ASSERT_TRUE(db->DeclareBase("R", 1).ok());
  Term x = db->Variable("x");
  ASSERT_TRUE(db->DeclareDerived("P", 1).ok());
  ASSERT_TRUE(
      db->AddRule(Rule(db->MakeAtom("P", {x}).value(),
                       {Literal::Positive(db->MakeAtom("Q", {x}).value()),
                        Literal::Negative(db->MakeAtom("R", {x}).value())}))
          .ok());
}

std::string ApplyPayload(Client* client, std::string_view constant,
                         bool insert, const Admission& admission = {}) {
  ApplyRequest request;
  request.admission = admission;
  Atom fact = client->GroundAtom("Q", {constant});
  EXPECT_TRUE(
      (insert ? request.transaction.AddInsert(fact)
              : request.transaction.AddDelete(fact))
          .ok());
  return EncodeApplyRequest(request, client->symbols());
}

TEST(ServerAdmissionTest, OverloadAndQuotaRejectTyped) {
  DeductiveDatabase db;
  DeclareSchema(&db);

  Latch latch;
  ServerOptions options;
  options.write_queue_depth = 3;
  options.max_pending_writes_per_connection = 2;
  obs::MetricsRegistry metrics;
  options.obs.metrics = &metrics;
  options.writer_stall_for_test = [&] { latch.Block(); };

  LoopbackNetwork network;
  Server server(&db, options);
  ASSERT_TRUE(server.Serve(network.TakeListener()).ok());

  // Three single-writer clients fill the queue+writer: the first write is
  // dequeued and parks on the latch, two sit queued.
  std::vector<std::unique_ptr<Client>> fillers;
  for (int i = 0; i < 3; ++i) {
    Result<std::unique_ptr<Connection>> conn = network.Connect();
    ASSERT_TRUE(conn.ok());
    fillers.push_back(std::make_unique<Client>(std::move(*conn)));
    std::string payload =
        ApplyPayload(fillers.back().get(), StrCat("f", i), true);
    ASSERT_TRUE(fillers.back()->SendRaw(FrameType::kApply, payload).ok());
  }
  latch.AwaitBlocked();
  // Depth counts queued + in-flight; all three writes are admitted.
  while (server.queue_depth() < 3) std::this_thread::yield();

  // At this point exactly one write is in flight (parked) and two are
  // queued. The extra client's first write fills the queue to its bound of
  // 3; the second must bounce — and the rejection arrives immediately while
  // admitted writes are still stalled, which is itself part of the
  // contract (reject fast, don't buffer).
  Result<std::unique_ptr<Connection>> extra_conn = network.Connect();
  ASSERT_TRUE(extra_conn.ok());
  Client extra(std::move(*extra_conn));
  ASSERT_TRUE(
      extra.SendRaw(FrameType::kApply, ApplyPayload(&extra, "x0", true))
          .ok());
  ASSERT_TRUE(
      extra.SendRaw(FrameType::kApply, ApplyPayload(&extra, "x1", true))
          .ok());
  Result<OwnedFrame> rejection = extra.ReceiveRaw();
  ASSERT_TRUE(rejection.ok()) << rejection.status().ToString();
  ASSERT_EQ(rejection->type, FrameType::kError);
  Result<ErrorReply> decoded_rejection = DecodeErrorReply(rejection->payload);
  ASSERT_TRUE(decoded_rejection.ok());
  Status overload = decoded_rejection->ToStatus();
  EXPECT_EQ(overload.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(overload.message().find("overload"), std::string::npos)
      << overload.ToString();

  // Per-connection quota: a single client pipelining past
  // max_pending_writes_per_connection=2 is rejected even though the global
  // queue has room for... it does not here (queue is full), so test quota
  // on its own server below instead. Here, verify the overload metric
  // moved: exactly one rejection among five admitted-or-bounced writes, and
  // the depth gauge counts the parked write plus three queued.
  EXPECT_EQ(metrics.counter("server.rejected_overload"), 1u);
  EXPECT_EQ(metrics.counter("server.rejected_quota"), 0u);
  EXPECT_EQ(metrics.counter("server.requests_write"), 5u);
  EXPECT_EQ(metrics.gauge("server.queue_depth"), 4);

  // Release the writer: every admitted write completes and is acknowledged
  // with a distinct commit version (connection threads race to enqueue, so
  // ack order across clients is not filler order — but serialization means
  // no two writes share a version).
  latch.Open();
  std::vector<uint64_t> versions;
  for (auto& filler : fillers) {
    Result<OwnedFrame> frame = filler->ReceiveRaw();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame->type, FrameType::kApplyOk);
    Result<ApplyReply> reply = DecodeApplyReply(frame->payload);
    ASSERT_TRUE(reply.ok());
    versions.push_back(reply->version);
  }
  // The extra client's first (admitted) write also completes.
  Result<OwnedFrame> extra_frame = extra.ReceiveRaw();
  ASSERT_TRUE(extra_frame.ok());
  EXPECT_EQ(extra_frame->type, FrameType::kApplyOk);
  std::sort(versions.begin(), versions.end());
  EXPECT_EQ(std::adjacent_find(versions.begin(), versions.end()),
            versions.end())
      << "two acknowledged writes shared a commit version";

  server.Stop();
  EXPECT_EQ(db.active_sessions(), 0u);
}

TEST(ServerAdmissionTest, PerConnectionQuotaSparesNeighbors) {
  DeductiveDatabase db;
  DeclareSchema(&db);

  Latch latch;
  ServerOptions options;
  options.write_queue_depth = 64;  // roomy: only the quota can reject
  options.max_pending_writes_per_connection = 2;
  options.writer_stall_for_test = [&] { latch.Block(); };

  LoopbackNetwork network;
  Server server(&db, options);
  ASSERT_TRUE(server.Serve(network.TakeListener()).ok());

  Result<std::unique_ptr<Connection>> conn = network.Connect();
  ASSERT_TRUE(conn.ok());
  Client hog(std::move(*conn));
  // Pipeline 3 writes: 2 admitted (the quota), the 3rd rejected with a
  // typed quota error while the global queue is nearly empty.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        hog.SendRaw(FrameType::kApply, ApplyPayload(&hog, StrCat("h", i), true))
            .ok());
  }
  Result<OwnedFrame> rejected = hog.ReceiveRaw();
  ASSERT_TRUE(rejected.ok());
  ASSERT_EQ(rejected->type, FrameType::kError);
  Result<ErrorReply> error = DecodeErrorReply(rejected->payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, StatusCode::kResourceExhausted);
  EXPECT_NE(error->message.find("quota"), std::string::npos)
      << error->message;

  // A neighbor on its own connection is admitted despite the hog.
  Result<std::unique_ptr<Connection>> conn2 = network.Connect();
  ASSERT_TRUE(conn2.ok());
  Client neighbor(std::move(*conn2));
  ASSERT_TRUE(neighbor
                  .SendRaw(FrameType::kApply,
                           ApplyPayload(&neighbor, "n0", true))
                  .ok());

  latch.Open();
  // Hog's two admitted writes complete; neighbor's write completes.
  for (int i = 0; i < 2; ++i) {
    Result<OwnedFrame> frame = hog.ReceiveRaw();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->type, FrameType::kApplyOk);
  }
  Result<OwnedFrame> frame = neighbor.ReceiveRaw();
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, FrameType::kApplyOk);

  server.Stop();
}

TEST(ServerAdmissionTest, DeadlineExpiresMidQueueWithoutExecuting) {
  DeductiveDatabase db;
  DeclareSchema(&db);

  Latch latch;
  ServerOptions options;
  obs::MetricsRegistry metrics;
  options.obs.metrics = &metrics;
  options.writer_stall_for_test = [&] { latch.Block(); };

  LoopbackNetwork network;
  Server server(&db, options);
  ASSERT_TRUE(server.Serve(network.TakeListener()).ok());

  // First write parks the writer on the latch.
  Result<std::unique_ptr<Connection>> conn = network.Connect();
  ASSERT_TRUE(conn.ok());
  Client blocker(std::move(*conn));
  ASSERT_TRUE(
      blocker.SendRaw(FrameType::kApply, ApplyPayload(&blocker, "b0", true))
          .ok());
  latch.AwaitBlocked();

  // Second write carries a 1ms deadline and sits in the queue behind the
  // parked writer until it has long lapsed.
  Result<std::unique_ptr<Connection>> conn2 = network.Connect();
  ASSERT_TRUE(conn2.ok());
  Client late(std::move(*conn2));
  Admission admission;
  admission.deadline_ms = 1;
  ASSERT_TRUE(late.SendRaw(FrameType::kApply,
                           ApplyPayload(&late, "late0", true, admission))
                  .ok());
  while (server.queue_depth() < 2) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  latch.Open();
  // The blocker commits; the late write is answered kDeadlineExceeded at
  // dequeue — typed, and WITHOUT executing.
  Result<OwnedFrame> ok_frame = blocker.ReceiveRaw();
  ASSERT_TRUE(ok_frame.ok());
  EXPECT_EQ(ok_frame->type, FrameType::kApplyOk);
  Result<OwnedFrame> late_frame = late.ReceiveRaw();
  ASSERT_TRUE(late_frame.ok());
  ASSERT_EQ(late_frame->type, FrameType::kError);
  Result<ErrorReply> error = DecodeErrorReply(late_frame->payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, StatusCode::kDeadlineExceeded);
  server.Stop();

  // Not executed: the fact the late write would have inserted is absent.
  auto session = db.BeginSession();
  ASSERT_TRUE(session.ok());
  Result<bool> holds =
      (*session)->Holds((*session)->GroundAtom("Q", {"late0"}).value());
  ASSERT_TRUE(holds.ok());
  EXPECT_FALSE(*holds);
  EXPECT_EQ(metrics.counter("server.deadline_expired_in_queue"), 1u);
  EXPECT_EQ(metrics.counter("server.writes_applied"), 1u);
}

TEST(ServerAdmissionTest, TypedGuardStatusesThroughTheReadPath) {
  // The small-fix regression: Session::set_resource_guard threads the
  // per-request guard into the session's query engine, so a tripped limit
  // surfaces as its OWN status code on the wire (kBudgetExceeded for
  // budgets), not a flattened generic error. Fact budgets are charged by
  // the bottom-up evaluator, so the goal must be RECURSIVE — a
  // non-recursive predicate resolves lazily and derives nothing to charge.
  DeductiveDatabase db;
  ASSERT_TRUE(db.DeclareBase("E", 2).ok());
  ASSERT_TRUE(db.DeclareDerived("Path", 2).ok());
  Term x = db.Variable("x");
  Term y = db.Variable("y");
  Term z = db.Variable("z");
  ASSERT_TRUE(
      db.AddRule(Rule(db.MakeAtom("Path", {x, y}).value(),
                      {Literal::Positive(db.MakeAtom("E", {x, y}).value())}))
          .ok());
  ASSERT_TRUE(
      db.AddRule(
            Rule(db.MakeAtom("Path", {x, z}).value(),
                 {Literal::Positive(db.MakeAtom("E", {x, y}).value()),
                  Literal::Positive(db.MakeAtom("Path", {y, z}).value())}))
          .ok());
  // A 20-node chain: 190 Path facts to derive.
  for (int i = 0; i + 1 < 20; ++i) {
    ASSERT_TRUE(
        db.AddFact(
              db.GroundAtom("E", {StrCat("n", i), StrCat("n", i + 1)}).value())
            .ok());
  }

  LoopbackNetwork network;
  Server server(&db);
  ASSERT_TRUE(server.Serve(network.TakeListener()).ok());
  Result<std::unique_ptr<Connection>> conn = network.Connect();
  ASSERT_TRUE(conn.ok());
  Client client(std::move(*conn));

  // A 1-fact derived budget trips as kBudgetExceeded, not anything else.
  // This query must come FIRST on the connection: Path is materialized on
  // demand, and a successful unguarded query would warm the session's
  // engine cache, after which no derivation (and no budget charge) happens.
  Admission budget;
  budget.max_derived_facts = 1;
  Result<QueryReply> tripped = client.Query(
      {client.MakeAtom("Path", {client.Variable("x"), client.Variable("y")})},
      budget);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kBudgetExceeded)
      << tripped.status().ToString();

  // The guard is per-request, and a tripped materialization leaves no
  // partial cache behind: the next unguarded query on the same connection
  // (same pinned session) derives the full closure.
  Result<QueryReply> plain = client.Query(
      {client.MakeAtom("Path", {client.Variable("x"), client.Variable("y")})});
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->answers[0].size(), 190u);

  server.Stop();
}

TEST(ServerAdmissionTest, GracefulShutdownDrainsAdmittedWrites) {
  DeductiveDatabase db;
  DeclareSchema(&db);

  Latch latch;
  ServerOptions options;
  options.writer_stall_for_test = [&] { latch.Block(); };
  LoopbackNetwork network;
  Server server(&db, options);
  ASSERT_TRUE(server.Serve(network.TakeListener()).ok());

  Result<std::unique_ptr<Connection>> conn = network.Connect();
  ASSERT_TRUE(conn.ok());
  Client client(std::move(*conn));
  ASSERT_TRUE(
      client.SendRaw(FrameType::kApply, ApplyPayload(&client, "d0", true))
          .ok());
  latch.AwaitBlocked();
  ASSERT_TRUE(
      client.SendRaw(FrameType::kApply, ApplyPayload(&client, "d1", true))
          .ok());
  while (server.queue_depth() < 2) std::this_thread::yield();

  // Stop from another thread while both writes are stuck; then release the
  // latch. The drain contract: both admitted writes are executed and
  // acknowledged before any connection is torn down.
  std::thread stopper([&] { server.Stop(); });
  latch.Open();
  for (int i = 0; i < 2; ++i) {
    Result<OwnedFrame> frame = client.ReceiveRaw();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->type, FrameType::kApplyOk);
  }
  stopper.join();

  // Both facts really committed.
  auto session = db.BeginSession();
  ASSERT_TRUE(session.ok());
  for (const char* name : {"d0", "d1"}) {
    Result<bool> holds =
        (*session)->Holds((*session)->GroundAtom("Q", {name}).value());
    ASSERT_TRUE(holds.ok());
    EXPECT_TRUE(*holds) << name;
  }
}

TEST(ServerAdmissionTest, QueueDepthMetricTracksAdmission) {
  DeductiveDatabase db;
  DeclareSchema(&db);

  Latch latch;
  ServerOptions options;
  obs::MetricsRegistry metrics;
  options.obs.metrics = &metrics;
  options.writer_stall_for_test = [&] { latch.Block(); };
  LoopbackNetwork network;
  Server server(&db, options);
  ASSERT_TRUE(server.Serve(network.TakeListener()).ok());

  EXPECT_EQ(server.queue_depth(), 0u);
  Result<std::unique_ptr<Connection>> conn = network.Connect();
  ASSERT_TRUE(conn.ok());
  Client client(std::move(*conn));
  ASSERT_TRUE(
      client.SendRaw(FrameType::kApply, ApplyPayload(&client, "m0", true))
          .ok());
  latch.AwaitBlocked();
  ASSERT_TRUE(
      client.SendRaw(FrameType::kApply, ApplyPayload(&client, "m1", true))
          .ok());
  while (server.queue_depth() < 2) std::this_thread::yield();

  // The gauge mirrors the live depth while stalled.
  EXPECT_EQ(metrics.gauge("server.queue_depth"), 2);

  latch.Open();
  for (int i = 0; i < 2; ++i) {
    Result<OwnedFrame> frame = client.ReceiveRaw();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->type, FrameType::kApplyOk);
  }
  EXPECT_EQ(server.queue_depth(), 0u);
  EXPECT_EQ(metrics.gauge("server.queue_depth"), 0);

  // Stats over the wire: the snapshot includes the server counters.
  Result<StatsReply> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->json.find("\"writes_applied\":2"), std::string::npos)
      << stats->json;
  server.Stop();
}

TEST(ServerAdmissionTest, WritesAfterStopRejectTyped) {
  DeductiveDatabase db;
  DeclareSchema(&db);
  LoopbackNetwork network;
  Server server(&db);
  ASSERT_TRUE(server.Serve(network.TakeListener()).ok());
  Result<std::unique_ptr<Connection>> conn = network.Connect();
  ASSERT_TRUE(conn.ok());
  Client client(std::move(*conn));
  Result<QueryReply> warm =
      client.Query({client.MakeAtom("Q", {client.Variable("x")})});
  ASSERT_TRUE(warm.ok());
  server.Stop();
  // The connection is closed by Stop; a subsequent request fails at the
  // transport (no hang, no crash).
  Transaction txn;
  ASSERT_TRUE(txn.AddInsert(client.GroundAtom("Q", {"z"})).ok());
  Result<ApplyReply> after = client.Apply(txn);
  EXPECT_FALSE(after.ok());
}

TEST(ServerAdmissionTest, OversizedReplyDowngradedToTypedError) {
  // A legitimate query whose encoded result exceeds the frame cap must come
  // back as a typed kResourceExhausted error frame — not as an oversized
  // frame the client's ReadFrame rejects as "malformed", killing the
  // connection. 2000 facts with ~36-char names are ~96KB per pattern; 200
  // copies of the pattern push the reply past the 16MiB cap.
  DeductiveDatabase db;
  ASSERT_TRUE(db.DeclareBase("Q", 1).ok());
  const std::string pad(32, 'x');
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(db.AddFact(db.GroundAtom("Q", {StrCat("v", i, pad)}).value())
                    .ok());
  }

  LoopbackNetwork network;
  Server server(&db);
  ASSERT_TRUE(server.Serve(network.TakeListener()).ok());
  Result<std::unique_ptr<Connection>> conn = network.Connect();
  ASSERT_TRUE(conn.ok());
  Client client(std::move(*conn));

  std::vector<Atom> patterns(
      200, client.MakeAtom("Q", {client.Variable("x")}));
  Result<QueryReply> huge = client.Query(patterns);
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kResourceExhausted)
      << huge.status().ToString();
  EXPECT_NE(huge.status().message().find("frame limit"), std::string::npos)
      << huge.status().ToString();

  // The connection survived: a narrower request on the same client works.
  Result<QueryReply> narrow =
      client.Query({client.MakeAtom("Q", {client.Variable("x")})});
  ASSERT_TRUE(narrow.ok()) << narrow.status().ToString();
  EXPECT_EQ(narrow->answers[0].size(), 2000u);
  server.Stop();
}

TEST(ServerAdmissionTest, ConcurrentStopIsSafe) {
  // The first Stop() owns the teardown; racing callers (including the
  // destructor) must block until it finishes instead of double-joining the
  // same threads. Run with live connections so there is real work to tear
  // down; TSan turns any join race into a failure.
  DeductiveDatabase db;
  DeclareSchema(&db);
  LoopbackNetwork network;
  Server server(&db);
  ASSERT_TRUE(server.Serve(network.TakeListener()).ok());

  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 3; ++i) {
    Result<std::unique_ptr<Connection>> conn = network.Connect();
    ASSERT_TRUE(conn.ok());
    clients.push_back(std::make_unique<Client>(std::move(*conn)));
    Transaction txn;
    ASSERT_TRUE(
        txn.AddInsert(clients.back()->GroundAtom("Q", {StrCat("s", i)})).ok());
    ASSERT_TRUE(clients.back()->Apply(txn).ok());
  }

  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&] { server.Stop(); });
  }
  for (std::thread& stopper : stoppers) stopper.join();
  server.Stop();  // still idempotent after the fact
  EXPECT_EQ(server.active_connections(), 0u);
  EXPECT_EQ(db.active_sessions(), 0u);
}

TEST(ServerAdmissionTest, MalformedAndMistypedFramesAnsweredTyped) {
  DeductiveDatabase db;
  DeclareSchema(&db);
  LoopbackNetwork network;
  Server server(&db);
  ASSERT_TRUE(server.Serve(network.TakeListener()).ok());

  // A response-typed frame from a client is a protocol error.
  {
    Result<std::unique_ptr<Connection>> conn = network.Connect();
    ASSERT_TRUE(conn.ok());
    Client client(std::move(*conn));
    ASSERT_TRUE(client.SendRaw(FrameType::kQueryOk, "").ok());
    Result<OwnedFrame> frame = client.ReceiveRaw();
    ASSERT_TRUE(frame.ok());
    ASSERT_EQ(frame->type, FrameType::kError);
    Result<ErrorReply> error = DecodeErrorReply(frame->payload);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(error->code, StatusCode::kInvalidArgument);
  }
  // A garbage payload in a valid frame gets a typed malformed-frame error.
  {
    Result<std::unique_ptr<Connection>> conn = network.Connect();
    ASSERT_TRUE(conn.ok());
    Client client(std::move(*conn));
    ASSERT_TRUE(client.SendRaw(FrameType::kQuery, "\x01garbage").ok());
    Result<OwnedFrame> frame = client.ReceiveRaw();
    ASSERT_TRUE(frame.ok());
    ASSERT_EQ(frame->type, FrameType::kError);
    Result<ErrorReply> error = DecodeErrorReply(frame->payload);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(error->code, StatusCode::kInvalidArgument);
    EXPECT_NE(error->message.find("malformed frame"), std::string::npos)
        << error->message;
  }
  // An unknown predicate in a well-formed query: typed kNotFound.
  {
    Result<std::unique_ptr<Connection>> conn = network.Connect();
    ASSERT_TRUE(conn.ok());
    Client client(std::move(*conn));
    Result<QueryReply> reply =
        client.Query({client.MakeAtom("NoSuchPred", {client.Variable("x")})});
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
  }
  server.Stop();
}

}  // namespace
}  // namespace deddb::server
