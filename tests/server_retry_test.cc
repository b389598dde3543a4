// Deterministic scenarios for the fault-tolerance contract (DESIGN.md §10):
// exactly-once idempotency tokens (a retried committed write is answered
// from the dedup table with its original reply), the client's
// teardown-and-redial discipline after a transport failure (the regression
// for the half-consumed-frame bug), the retryable-hint extension on error
// frames, graceful read-only degradation when commit durability poisons,
// and recovery of the dedup table from WAL token extensions at reopen.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/deductive_database.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/transport.h"
#include "util/resource_guard.h"
#include "util/strings.h"

namespace deddb::server {
namespace {

uint64_t JsonCounter(const std::string& json, const std::string& key) {
  const std::string needle = StrCat("\"", key, "\":");
  size_t at = json.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

/// Delegating connection whose Read fails (and kills the stream) while the
/// shared countdown is positive — the deterministic stand-in for a peer
/// reset that arrives mid-reply.
class FailingReads : public Connection {
 public:
  FailingReads(std::unique_ptr<Connection> inner,
               std::shared_ptr<std::atomic<int>> remaining)
      : inner_(std::move(inner)), remaining_(std::move(remaining)) {}

  Result<size_t> Read(char* buf, size_t len) override {
    if (remaining_->fetch_sub(1, std::memory_order_relaxed) > 0) {
      inner_->Close();
      return InternalError("injected fault: reset during read");
    }
    remaining_->fetch_add(1, std::memory_order_relaxed);
    return inner_->Read(buf, len);
  }
  Status Write(const char* buf, size_t len) override {
    return inner_->Write(buf, len);
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<Connection> inner_;
  std::shared_ptr<std::atomic<int>> remaining_;
};

Transaction InsertOf(Client* client, const char* pred, const char* constant) {
  Transaction txn;
  EXPECT_TRUE(txn.AddInsert(client->GroundAtom(pred, {constant})).ok());
  return txn;
}

TEST(ServerRetryTest, RetriedCommittedApplyReturnsOriginalReply) {
  DeductiveDatabase db;
  ASSERT_TRUE(db.DeclareBase("Q", 1).ok());
  LoopbackNetwork network;
  Server server(&db);
  ASSERT_TRUE(server.Serve(network.TakeListener()).ok());

  auto conn = network.Connect();
  ASSERT_TRUE(conn.ok());
  Client raw(std::move(*conn));

  // One tokened Apply, sent twice byte-identically — exactly what a client
  // that lost the first reply re-sends.
  ApplyRequest request;
  ASSERT_TRUE(
      request.transaction.AddInsert(raw.GroundAtom("Q", {"a"})).ok());
  request.token.client_id = 42;
  request.token.request_seq = 1;
  const std::string payload = EncodeApplyRequest(request, raw.symbols());

  auto roundtrip = [&]() -> Result<ApplyReply> {
    Result<uint64_t> id = raw.SendRaw(FrameType::kApply, payload);
    if (!id.ok()) return id.status();
    Result<OwnedFrame> frame = raw.ReceiveRaw();
    if (!frame.ok()) return frame.status();
    EXPECT_EQ(frame->type, FrameType::kApplyOk);
    return DecodeApplyReply(frame->payload);
  };

  Result<ApplyReply> first = roundtrip();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const uint64_t committed_version = db.version();
  EXPECT_EQ(first->version, committed_version);

  Result<ApplyReply> second = roundtrip();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->version, first->version) << "not the original reply";
  EXPECT_EQ(db.version(), committed_version) << "the retry applied again";
  EXPECT_EQ(JsonCounter(server.StatsJson(), "dedup_hits"), 1u);
  EXPECT_EQ(JsonCounter(server.StatsJson(), "writes_applied"), 1u);

  server.Stop();
}

TEST(ServerRetryTest, RetriedCommittedProcessReturnsOriginalReply) {
  DeductiveDatabase db;
  ASSERT_TRUE(db.DeclareBase("Q", 1).ok());
  LoopbackNetwork network;
  Server server(&db);
  ASSERT_TRUE(server.Serve(network.TakeListener()).ok());

  auto conn = network.Connect();
  ASSERT_TRUE(conn.ok());
  Client raw(std::move(*conn));

  ProcessRequest request;
  ASSERT_TRUE(
      request.transaction.AddInsert(raw.GroundAtom("Q", {"a"})).ok());
  request.token.client_id = 7;
  request.token.request_seq = 3;
  const std::string payload = EncodeProcessRequest(request, raw.symbols());

  auto roundtrip = [&]() -> Result<ProcessReply> {
    Result<uint64_t> id = raw.SendRaw(FrameType::kProcess, payload);
    if (!id.ok()) return id.status();
    Result<OwnedFrame> frame = raw.ReceiveRaw();
    if (!frame.ok()) return frame.status();
    EXPECT_EQ(frame->type, FrameType::kProcessOk);
    return DecodeProcessReply(frame->payload);
  };

  Result<ProcessReply> first = roundtrip();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->accepted);
  Result<ProcessReply> second = roundtrip();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->accepted);
  EXPECT_EQ(second->version, first->version);
  EXPECT_EQ(JsonCounter(server.StatsJson(), "dedup_hits"), 1u);

  server.Stop();
}

TEST(ServerRetryTest, MidReplyDisconnectTearsDownRedialsAndDeduplicates) {
  // The satellite regression: a reply that dies mid-frame must not leave
  // the client re-reading a half-consumed stream. The retrying client
  // tears the connection down, re-dials, re-sends the same token, and is
  // answered from the dedup table — the write applies exactly once.
  DeductiveDatabase db;
  ASSERT_TRUE(db.DeclareBase("Q", 1).ok());
  LoopbackNetwork network;
  Server server(&db);
  ASSERT_TRUE(server.Serve(network.TakeListener()).ok());

  auto fail_reads = std::make_shared<std::atomic<int>>(0);
  ClientOptions options;
  options.client_id = 9;
  options.max_attempts = 5;
  options.backoff.base = std::chrono::microseconds(50);
  options.backoff.cap = std::chrono::microseconds(500);
  Client client(
      [&network, fail_reads]() -> Result<std::unique_ptr<Connection>> {
        Result<std::unique_ptr<Connection>> conn = network.Connect();
        if (!conn.ok()) return conn.status();
        std::unique_ptr<Connection> wrapped =
            std::make_unique<FailingReads>(std::move(*conn), fail_reads);
        return wrapped;
      },
      options);

  // Warm apply over a healthy connection.
  Result<ApplyReply> warm = client.Apply(InsertOf(&client, "Q", "warm"));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  const uint64_t before = db.version();

  // The next read on the live connection — the reply to this Apply — dies.
  fail_reads->store(1);
  Result<ApplyReply> reply = client.Apply(InsertOf(&client, "Q", "a"));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(db.version(), before + 1) << "the retry applied again";
  EXPECT_EQ(client.retries(), 1u);
  EXPECT_EQ(client.dials(), 2u) << "the client reused the broken connection";
  EXPECT_EQ(JsonCounter(server.StatsJson(), "dedup_hits"), 1u);

  server.Stop();
}

TEST(ServerRetryTest, SingleConnectionClientFailsFastAfterTransportFailure) {
  // Without a dialer the client cannot recover — but it must fail *fast*
  // on later requests instead of reading the previous request's
  // half-consumed reply (the latent PR 6 bug this PR fixes).
  DeductiveDatabase db;
  ASSERT_TRUE(db.DeclareBase("Q", 1).ok());
  LoopbackNetwork network;
  Server server(&db);
  ASSERT_TRUE(server.Serve(network.TakeListener()).ok());

  auto conn = network.Connect();
  ASSERT_TRUE(conn.ok());
  auto fail_reads = std::make_shared<std::atomic<int>>(1);
  Client client(
      std::make_unique<FailingReads>(std::move(*conn), fail_reads));

  Result<ApplyReply> failed = client.Apply(InsertOf(&client, "Q", "a"));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(client.connection(), nullptr)
      << "a connection that failed mid-request must not be reused";
  Result<ApplyReply> next = client.Apply(InsertOf(&client, "Q", "b"));
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kFailedPrecondition);

  server.Stop();
}

TEST(ServerRetryTest, ErrorRepliesCarryHintsOnlyForTokenedRequests) {
  DeductiveDatabase db;
  ASSERT_TRUE(db.DeclareBase("Q", 1).ok());
  LoopbackNetwork network;
  Server server(&db);
  ASSERT_TRUE(server.Serve(network.TakeListener()).ok());

  auto conn = network.Connect();
  ASSERT_TRUE(conn.ok());
  Client raw(std::move(*conn));

  // Deleting an absent fact fails validation either way; only the tokened
  // (v2) request gets the trailing hint byte back.
  ApplyRequest request;
  ASSERT_TRUE(
      request.transaction.AddDelete(raw.GroundAtom("Q", {"absent"})).ok());

  auto error_of = [&](const std::string& payload) -> ErrorReply {
    Result<uint64_t> id = raw.SendRaw(FrameType::kApply, payload);
    EXPECT_TRUE(id.ok());
    Result<OwnedFrame> frame = raw.ReceiveRaw();
    EXPECT_TRUE(frame.ok());
    EXPECT_EQ(frame->type, FrameType::kError);
    Result<ErrorReply> error = DecodeErrorReply(frame->payload);
    EXPECT_TRUE(error.ok());
    return error.ok() ? *error : ErrorReply{};
  };

  ErrorReply v1 = error_of(EncodeApplyRequest(request, raw.symbols()));
  EXPECT_EQ(v1.code, StatusCode::kFailedPrecondition);
  EXPECT_FALSE(v1.has_retry_hint()) << "v1 reply grew trailing bytes";

  request.token.client_id = 5;
  request.token.request_seq = 1;
  ErrorReply v2 = error_of(EncodeApplyRequest(request, raw.symbols()));
  EXPECT_EQ(v2.code, StatusCode::kFailedPrecondition);
  ASSERT_TRUE(v2.has_retry_hint());
  EXPECT_FALSE(v2.retryable()) << "a validation failure is not transient";

  server.Stop();
}

TEST(ServerRetryTest, OverloadRejectionIsHintedRetryable) {
  // Stall the writer and overfill the one-deep queue: the spilled tokened
  // write must come back kResourceExhausted with retryable=true — the hint
  // that lets a client distinguish "try again shortly" from the
  // not-retryable degraded rejection below.
  DeductiveDatabase db;
  ASSERT_TRUE(db.DeclareBase("Q", 1).ok());
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::atomic<bool> stalled{false};
  ServerOptions options;
  options.write_queue_depth = 1;
  options.writer_stall_for_test = [&] {
    stalled.store(true);
    released.wait();
  };
  LoopbackNetwork network;
  Server server(&db, options);
  ASSERT_TRUE(server.Serve(network.TakeListener()).ok());

  auto conn = network.Connect();
  ASSERT_TRUE(conn.ok());
  Client raw(std::move(*conn));

  auto tokened_apply = [&](const char* constant, uint64_t seq) {
    ApplyRequest request;
    EXPECT_TRUE(
        request.transaction.AddInsert(raw.GroundAtom("Q", {constant})).ok());
    request.token.client_id = 3;
    request.token.request_seq = seq;
    Result<uint64_t> id = raw.SendRaw(
        FrameType::kApply, EncodeApplyRequest(request, raw.symbols()));
    EXPECT_TRUE(id.ok());
    return id.ok() ? *id : 0;
  };

  // #1 dequeues and parks on the stall; #2 fills the queue; #3 spills.
  tokened_apply("a", 1);
  while (!stalled.load()) std::this_thread::yield();
  tokened_apply("b", 2);
  const uint64_t spilled = tokened_apply("c", 3);

  // The rejection is written from the admitting thread, so it arrives
  // while the writer is still parked.
  Result<OwnedFrame> frame = raw.ReceiveRaw();
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->type, FrameType::kError);
  ASSERT_EQ(frame->request_id, spilled);
  Result<ErrorReply> error = DecodeErrorReply(frame->payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, StatusCode::kResourceExhausted);
  ASSERT_TRUE(error->has_retry_hint());
  EXPECT_TRUE(error->retryable());

  release.set_value();
  for (int i = 0; i < 2; ++i) {
    Result<OwnedFrame> ok = raw.ReceiveRaw();
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok->type, FrameType::kApplyOk);
  }
  server.Stop();
}

TEST(ServerRetryTest, DegradedServerServesReadsAndRejectsWritesTyped) {
  // Poison commit durability via the persist fault point that fails the
  // WAL fsync *after* the in-memory apply (memory ahead of the log — the
  // unrecoverable-without-reopen case), then prove the contract: reads
  // keep serving, Health says degraded, writes come back kUnavailable with
  // retryable=false, and the stats surface flips.
  std::string tmpl = StrCat(::testing::TempDir(), "srvdegradeXXXXXX");
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  ASSERT_NE(::mkdtemp(buf.data()), nullptr);
  const std::string dir = buf.data();

  auto opened = DeductiveDatabase::OpenPersistent(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<DeductiveDatabase> db = std::move(*opened);
  ASSERT_TRUE(db->DeclareBase("Q", 1).ok());

  LoopbackNetwork network;
  Server server(db.get());
  ASSERT_TRUE(server.Serve(network.TakeListener()).ok());

  ClientOptions options;
  options.client_id = 11;
  options.max_attempts = 5;
  Client client(
      [&network]() -> Result<std::unique_ptr<Connection>> {
        return network.Connect();
      },
      options);

  ASSERT_TRUE(client.Apply(InsertOf(&client, "Q", "healthy")).ok());
  Result<HealthReply> health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->state, ServerState::kServing);
  EXPECT_GT(health->last_durable_seq, 0u);

  FaultInjector::Instance().Arm(FaultPoint::kWalFsync, 1,
                                InternalError("injected fsync failure"));
  Result<ApplyReply> poisoned = client.Apply(InsertOf(&client, "Q", "lost"));
  FaultInjector::Instance().Disarm();
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(client.retries(), 0u)
      << "a not-retryable durability failure must not be retried";

  // Reads keep serving — off the in-memory state, which is *ahead* of the
  // log (both facts visible); that is exactly why writes must stop.
  Result<QueryReply> read =
      client.Query({client.MakeAtom("Q", {client.Variable("x")})});
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->answers[0].size(), 2u);

  health = client.Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->state, ServerState::kDegraded);

  Result<ApplyReply> rejected = client.Apply(InsertOf(&client, "Q", "next"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(client.retries(), 0u)
      << "the degraded rejection is hinted not-retryable";

  const std::string stats = server.StatsJson();
  EXPECT_EQ(JsonCounter(stats, "degraded"), 1u);
  EXPECT_EQ(JsonCounter(stats, "rejected_degraded"), 1u);

  server.Stop();
  EXPECT_FALSE(db->Close().ok()) << "the poison must stay sticky to Close";
  db.reset();
  std::string cmd = StrCat("rm -rf ", dir);
  ASSERT_EQ(std::system(cmd.c_str()), 0);
}

TEST(ServerRetryTest, ReopenRecoversTheDedupTableFromTheWal) {
  // The WAL commit records carry the tokens, so a restarted server keeps
  // answering retries of pre-crash commits with their original replies.
  std::string tmpl = StrCat(::testing::TempDir(), "srvdedupXXXXXX");
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  ASSERT_NE(::mkdtemp(buf.data()), nullptr);
  const std::string dir = buf.data();

  uint64_t committed_version = 0;
  std::string replay_payload;
  SymbolTable replay_symbols;
  {
    auto opened = DeductiveDatabase::OpenPersistent(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<DeductiveDatabase> db = std::move(*opened);
    ASSERT_TRUE(db->DeclareBase("Q", 1).ok());

    LoopbackNetwork network;
    Server server(db.get());
    ASSERT_TRUE(server.Serve(network.TakeListener()).ok());
    auto conn = network.Connect();
    ASSERT_TRUE(conn.ok());
    Client raw(std::move(*conn));

    ApplyRequest request;
    ASSERT_TRUE(
        request.transaction.AddInsert(raw.GroundAtom("Q", {"a"})).ok());
    request.token.client_id = 5;
    request.token.request_seq = 1;
    replay_payload = EncodeApplyRequest(request, raw.symbols());
    ASSERT_TRUE(raw.SendRaw(FrameType::kApply, replay_payload).ok());
    Result<OwnedFrame> frame = raw.ReceiveRaw();
    ASSERT_TRUE(frame.ok());
    ASSERT_EQ(frame->type, FrameType::kApplyOk);
    Result<ApplyReply> reply = DecodeApplyReply(frame->payload);
    ASSERT_TRUE(reply.ok());
    committed_version = reply->version;
    EXPECT_GT(committed_version, 0u);

    server.Stop();
    // No final checkpoint: Close would fold the WAL into the snapshot, and
    // recovery must find the token in the *log* records it replays.
    db.reset();
  }

  auto reopened = DeductiveDatabase::OpenPersistent(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::unique_ptr<DeductiveDatabase> db = std::move(*reopened);

  // Version numbers restart with replay (schema declarations bump the
  // version but persist via the snapshot, not WAL records), so the dedup
  // entry carries the commit's version in the *reopened* numbering — the
  // one consistent with what this process's sessions observe.
  persist::CommitToken token;
  token.client_id = 5;
  token.request_seq = 1;
  DedupResult lookup = db->LookupCommitToken(token);
  EXPECT_EQ(lookup.verdict, DedupVerdict::kDuplicate);
  EXPECT_EQ(lookup.version, db->version());
  const uint64_t replayed_version = db->version();

  // End to end: a post-restart retry of the pre-restart commit is a dedup
  // hit, not a second apply.
  LoopbackNetwork network;
  Server server(db.get());
  ASSERT_TRUE(server.Serve(network.TakeListener()).ok());
  auto conn = network.Connect();
  ASSERT_TRUE(conn.ok());
  Client raw(std::move(*conn));
  ApplyRequest request;
  ASSERT_TRUE(
      request.transaction.AddInsert(raw.GroundAtom("Q", {"a"})).ok());
  request.token.client_id = 5;
  request.token.request_seq = 1;
  ASSERT_TRUE(
      raw.SendRaw(FrameType::kApply,
                  EncodeApplyRequest(request, raw.symbols()))
          .ok());
  Result<OwnedFrame> frame = raw.ReceiveRaw();
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->type, FrameType::kApplyOk);
  Result<ApplyReply> retry = DecodeApplyReply(frame->payload);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->version, replayed_version);
  EXPECT_EQ(db->version(), replayed_version) << "the retry applied again";
  EXPECT_EQ(JsonCounter(server.StatsJson(), "dedup_hits"), 1u);

  server.Stop();
  ASSERT_TRUE(db->Close().ok());
  db.reset();
  std::string cmd = StrCat("rm -rf ", dir);
  ASSERT_EQ(std::system(cmd.c_str()), 0);
}

// Pins the Stats layout byte for byte: a fixed request script yields one
// exact StatsJson string, and attaching a metrics registry changes nothing
// in the server, sub and repl blocks — it only appends the "metrics"
// section.
TEST(ServerRetryTest, StatsLayoutIsPinnedByteForByte) {
  const std::string expected =
      "{\"server\":{\"queue_depth\":0,\"degraded\":0,"
      "\"connections_active\":1,\"connections_total\":1,"
      "\"connections_rejected\":0,\"requests_read\":3,\"requests_write\":2,"
      "\"writes_applied\":1,\"writes_rejected\":0,\"rejected_overload\":0,"
      "\"rejected_quota\":0,\"rejected_shutdown\":0,\"rejected_degraded\":0,"
      "\"deadline_expired_in_queue\":0,\"protocol_errors\":1,"
      "\"guard_trips\":0,\"dedup_hits\":1},"
      "\"sub\":{\"registered_total\":1,\"active\":1,\"queued_batches\":0,"
      "\"commits_observed\":0,\"deltas_queued\":0,\"deltas_pushed\":0,"
      "\"deltas_coalesced\":0,\"gap_events\":0,\"barriers\":0,"
      "\"resume_hits\":0,\"resume_misses\":0},"
      "\"repl\":{\"role\":\"primary\",\"last_durable_seq\":1,"
      "\"settled_seq\":1,\"feed_fetches\":0,\"feed_records_shipped\":0}}";
  for (const bool with_registry : {false, true}) {
    SCOPED_TRACE(with_registry ? "registry attached" : "no registry");
    std::string tmpl = StrCat(::testing::TempDir(), "srvstatsXXXXXX");
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    ASSERT_NE(::mkdtemp(buf.data()), nullptr);
    const std::string dir = buf.data();
    auto opened = DeductiveDatabase::OpenPersistent(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<DeductiveDatabase> db = std::move(*opened);
    ASSERT_TRUE(db->DeclareBase("Q", 1).ok());

    obs::MetricsRegistry metrics;
    ServerOptions options;
    if (with_registry) options.obs.metrics = &metrics;
    LoopbackNetwork network;
    Server server(db.get(), options);
    ASSERT_TRUE(server.Serve(network.TakeListener()).ok());
    auto conn = network.Connect();
    ASSERT_TRUE(conn.ok());
    Client raw(std::move(*conn));

    ASSERT_TRUE(raw.Query({raw.MakeAtom("Q", {raw.Variable("x")})}).ok());
    // One tokened Apply and its byte-identical retry (a dedup hit).
    ApplyRequest request;
    ASSERT_TRUE(
        request.transaction.AddInsert(raw.GroundAtom("Q", {"a"})).ok());
    request.token.client_id = 11;
    request.token.request_seq = 1;
    const std::string payload = EncodeApplyRequest(request, raw.symbols());
    for (int attempt = 0; attempt < 2; ++attempt) {
      ASSERT_TRUE(raw.SendRaw(FrameType::kApply, payload).ok());
      Result<OwnedFrame> frame = raw.ReceiveRaw();
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      ASSERT_EQ(frame->type, FrameType::kApplyOk);
    }
    ASSERT_TRUE(raw.Subscribe(raw.MakeAtom("Q", {raw.Variable("x")})).ok());
    // An undecodable Query payload: a typed error, the connection lives on.
    // Its reply also orders after the subscription's activation, which runs
    // on the same connection thread right after the SubscribeOk frame.
    ASSERT_TRUE(raw.SendRaw(FrameType::kQuery, "\xff").ok());
    Result<OwnedFrame> error = raw.ReceiveRaw();
    ASSERT_TRUE(error.ok()) << error.status().ToString();
    ASSERT_EQ(error->type, FrameType::kError);
    // The writer releases its in-flight slot just after replying.
    while (server.queue_depth() != 0) std::this_thread::yield();

    std::string json = server.StatsJson();
    if (with_registry) {
      const size_t metrics_at = json.find(",\"metrics\":");
      ASSERT_NE(metrics_at, std::string::npos) << json;
      json = json.substr(0, metrics_at) + "}";
    } else {
      EXPECT_EQ(json.find("\"metrics\""), std::string::npos) << json;
    }
    EXPECT_EQ(json, expected);

    server.Stop();
    ASSERT_TRUE(db->Close().ok());
    db.reset();
    std::string cmd = StrCat("rm -rf ", dir);
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }
}

TEST(ServerRetryTest, HealthProbeOnAHealthyServer) {
  DeductiveDatabase db;
  ASSERT_TRUE(db.DeclareBase("Q", 1).ok());
  LoopbackNetwork network;
  Server server(&db);
  ASSERT_TRUE(server.Serve(network.TakeListener()).ok());

  auto conn = network.Connect();
  ASSERT_TRUE(conn.ok());
  Client client(std::move(*conn));
  Result<HealthReply> health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->state, ServerState::kServing);
  EXPECT_EQ(health->version, db.version());
  EXPECT_EQ(health->last_durable_seq, 0u);  // in-memory database
  EXPECT_EQ(health->queue_depth, 0u);

  server.Stop();
}

}  // namespace
}  // namespace deddb::server
