#include "server/server.h"

#include <algorithm>
#include <utility>

#include "core/session.h"
#include "core/update_processor.h"
#include "util/strings.h"

namespace deddb::server {

namespace {

using Clock = std::chrono::steady_clock;

bool IsGuardTrip(StatusCode code) {
  return code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kBudgetExceeded ||
         code == StatusCode::kCancelled;
}

// One row per Server::CounterId, in enum order: the counter's key in the
// Stats JSON and its registry name. Both are stable, operator-facing names.
struct CounterName {
  const char* json;
  const char* metric;
};
constexpr CounterName kCounterNames[] = {
    {"connections_total", "server.connections_total"},
    {"connections_rejected", "server.connections_rejected"},
    {"requests_read", "server.requests_read"},
    {"requests_write", "server.requests_write"},
    {"writes_applied", "server.writes_applied"},
    {"writes_rejected", "server.writes_rejected"},
    {"rejected_overload", "server.rejected_overload"},
    {"rejected_quota", "server.rejected_quota"},
    {"rejected_shutdown", "server.rejected_shutdown"},
    {"rejected_degraded", "server.rejected_degraded"},
    {"deadline_expired_in_queue", "server.deadline_expired_in_queue"},
    {"protocol_errors", "server.protocol_errors"},
    {"guard_trips", "server.guard_trips"},
    {"dedup_hits", "server.dedup_hits"},
    {"feed_fetches", "server.feed_fetches"},
    {"feed_records_shipped", "server.feed_records_shipped"},
    {"stale_rejections", "server.stale_rejections"},
    {"rejected_replica_writes", "server.rejected_replica_writes"},
};

}  // namespace

/// Per-connection state. The reader thread owns session/guard exclusively
/// (write jobs only touch `conn` + `write_mu`); `pending_writes` is guarded
/// by the server's mu_. The guard is declared before the session so the
/// session (which may hold a pointer to it) dies first.
struct Server::ConnState {
  std::unique_ptr<Connection> conn;
  std::mutex write_mu;  // serializes response frames from reader + writer
  ResourceGuard guard;
  std::unique_ptr<Session> session;
  size_t pending_writes = 0;
  /// Subscription owner id (assigned at accept): the key the manager files
  /// this connection's standing queries under, and the pusher's route back.
  uint64_t owner = 0;
  /// The connection's reader thread. Assigned under mu_ right after the
  /// thread is spawned; joined by ReapRetiredConnections or Stop() once the
  /// loop has exited (the loop itself never touches this field).
  std::thread reader;
};

struct Server::WriteJob {
  enum class Kind { kApply, kProcess, kCheckpoint };
  Kind kind = Kind::kApply;
  uint64_t request_id = 0;
  std::shared_ptr<ConnState> conn;
  Transaction transaction;
  Admission admission;
  /// Idempotency token from the request (absent for v1 clients). Its
  /// presence also opts the reply into the retryable-hint extension.
  persist::CommitToken token;
  Clock::time_point admitted_at{};
  // Deadline fixed at admission (not at dequeue), so queue time counts
  // against it — the "expired mid-queue" contract.
  bool has_deadline = false;
  Clock::time_point deadline_at{};
};

Server::Server(DeductiveDatabase* db, ServerOptions options)
    : db_(db),
      options_(std::move(options)),
      owned_metrics_(options_.obs.metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      metrics_(options_.obs.metrics != nullptr ? options_.obs.metrics
                                               : owned_metrics_.get()),
      subs_(sub::SubscriptionManager::Options{
          options_.cdc_retain,
          obs::ObsContext{options_.obs.tracer, metrics_}}) {
  static_assert(std::size(kCounterNames) == kCounterCount);
  for (size_t i = 0; i < kCounterCount; ++i) {
    counter_handles_[i] = metrics_->GetCounter(kCounterNames[i].metric);
  }
  queue_depth_gauge_ = metrics_->GetGauge("server.queue_depth");
  connections_gauge_ = metrics_->GetGauge("server.connections_active");
  degraded_gauge_ = metrics_->GetGauge("server.degraded");
}

Server::~Server() { Stop(); }

Status Server::Serve(std::unique_ptr<Listener> listener) {
  std::lock_guard<std::mutex> lock(mu_);
  if (serving_) return FailedPreconditionError("server already serving");
  if (stopping_) return FailedPreconditionError("server stopped");
  serving_ = true;
  listener_ = std::move(listener);
  // The facade guard is installed once, before any thread runs: the writer
  // thread re-arms it per job, and nothing else ever touches the pointer
  // (sessions strip the facade guard at BeginSession), so there is no race.
  previous_facade_guard_ = db_->resource_guard();
  db_->set_resource_guard(&writer_guard_);
  // The observer hook is armed for the server's whole lifetime; the manager
  // keeps the per-commit cost at one relaxed load until someone subscribes.
  db_->set_commit_observer(&subs_);
  writer_thread_ = std::thread(&Server::WriterLoop, this);
  pusher_thread_ = std::thread(&Server::PusherLoop, this);
  accept_thread_ = std::thread(&Server::AcceptLoop, this);
  return Status::Ok();
}

void Server::Stop() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!serving_) return;
    if (stopping_) {
      // Another thread owns the teardown (two threads joining the same
      // std::thread is a data race); wait for it so every caller returns to
      // a fully stopped server.
      stopped_cv_.wait(lock, [&] { return stopped_; });
      return;
    }
    stopping_ = true;
  }
  queue_cv_.notify_all();
  repl_stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> repl_lock(repl_mu_);
  }
  repl_cv_.notify_all();
  if (listener_ != nullptr) listener_->Close();

  // Drain: every admitted write completes and gets its response before any
  // connection is torn down.
  {
    std::unique_lock<std::mutex> lock(mu_);
    drained_cv_.wait(lock, [&] {
      return write_queue_.empty() && writes_in_flight_ == 0;
    });
  }
  if (writer_thread_.joinable()) writer_thread_.join();
  if (accept_thread_.joinable()) accept_thread_.join();

  // The writer is gone, so no further commit can publish into the manager;
  // stop the pusher (undelivered batches drop — subscribers observe the
  // connection close, not a silent gap) and unhook the observer before any
  // post-Stop mutation of the database.
  subs_.Shutdown();
  if (pusher_thread_.joinable()) pusher_thread_.join();
  db_->set_commit_observer(nullptr);

  std::vector<std::shared_ptr<ConnState>> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections = connections_;
  }
  for (const std::shared_ptr<ConnState>& conn : connections) {
    conn->conn->Close();
  }
  // The accept thread is gone, so nothing joins concurrently with us: first
  // the still-active readers (their loops exit on the Close above), then
  // whatever retired in between.
  for (const std::shared_ptr<ConnState>& conn : connections) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  ReapRetiredConnections();
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections_.clear();
    owners_.clear();
    connections_gauge_->Set(0);
  }
  db_->set_resource_guard(previous_facade_guard_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  stopped_cv_.notify_all();
}

size_t Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_queue_.size() + writes_in_flight_;
}

size_t Server::active_connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return connections_.size();
}

void Server::AppendCounters(std::string* out, CounterId first,
                            CounterId last) const {
  for (size_t i = first; i < last; ++i) {
    *out += StrCat(",\"", kCounterNames[i].json,
                   "\":", counter_handles_[i]->value());
  }
}

std::string Server::StatsJson() const {
  std::string out = StrCat(
      "{\"server\":{\"queue_depth\":", queue_depth_gauge_->value(),
      ",\"degraded\":", degraded_gauge_->value(),
      ",\"connections_active\":", connections_gauge_->value());
  AppendCounters(&out, kConnectionsTotal, kFeedFetches);
  const sub::ManagerStats s = subs_.Stats();
  out += StrCat(
      "},\"sub\":{\"registered_total\":", s.registered_total,
      ",\"active\":", s.active,
      ",\"queued_batches\":", s.queued_batches,
      ",\"commits_observed\":", s.commits_observed,
      ",\"deltas_queued\":", s.deltas_queued,
      ",\"deltas_pushed\":", s.deltas_pushed,
      ",\"deltas_coalesced\":", s.deltas_coalesced,
      ",\"gap_events\":", s.gap_events,
      ",\"barriers\":", s.barriers,
      ",\"resume_hits\":", s.resume_hits,
      ",\"resume_misses\":", s.resume_misses, "}");
  if (persist::PersistenceManager* persistence = db_->persistence()) {
    const persist::PersistenceManager::Stats p = persistence->stats();
    out += StrCat(
        ",\"repl\":{\"role\":\"primary\"",
        ",\"last_durable_seq\":", p.last_seq,
        ",\"settled_seq\":", persistence->settled_seq());
    AppendCounters(&out, kFeedFetches, kStaleRejections);
    out += "}";
  } else if (options_.replica_status != nullptr) {
    const ReplicaInfo info = options_.replica_status->replica_status();
    out += StrCat(
        ",\"repl\":{\"role\":\"replica\"",
        ",\"applied_seq\":", info.applied_seq,
        ",\"primary_last_durable_seq\":", info.primary_last_durable_seq,
        ",\"lag\":", info.lag(),
        ",\"bounded\":", info.bounded ? 1 : 0);
    AppendCounters(&out, kStaleRejections, kCounterCount);
    out += "}";
  }
  if (options_.obs.metrics != nullptr) {
    out += StrCat(",\"metrics\":", options_.obs.metrics->ToJson());
  }
  out += "}";
  return out;
}

// ---- Accept / connection threads --------------------------------------------

void Server::AcceptLoop() {
  for (;;) {
    Result<std::unique_ptr<Connection>> accepted = listener_->Accept();
    // The accept cadence bounds the retired backlog: at most every current
    // connection can retire between two accepts.
    ReapRetiredConnections();
    if (!accepted.ok()) {
      // Closed during Stop, or the listener died; either way we are done
      // accepting (serving connections continue until Stop).
      return;
    }
    auto conn = std::make_shared<ConnState>();
    conn->conn = std::move(*accepted);
    bool over_limit = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        conn->conn->Close();
        return;
      }
      if (connections_.size() >= options_.max_connections) {
        over_limit = true;
      } else {
        // Counted before the reader starts, so no reply can precede it.
        Count(kConnectionsTotal);
        conn->owner = next_owner_++;
        owners_[conn->owner] = conn;
        connections_.push_back(conn);
        connections_gauge_->Set(static_cast<int64_t>(connections_.size()));
        conn->reader = std::thread(&Server::ConnectionLoop, this, conn);
      }
    }
    if (over_limit) {
      Count(kConnectionsRejected);
      // Turned away before any request is read; the error frame uses
      // request id 0 (no request to correlate with). Written with mu_
      // released — a peer that never drains its socket blocks only this
      // write, never the rest of the server.
      ErrorReply reply{StatusCode::kResourceExhausted,
                       StrCat("connection limit of ",
                              options_.max_connections, " reached")};
      std::string payload = EncodeErrorReply(reply);
      (void)WriteFrame(conn->conn.get(), FrameType::kError, 0, payload);
      conn->conn->Close();
    }
  }
}

void Server::ConnectionLoop(std::shared_ptr<ConnState> conn) {
  for (;;) {
    Result<std::optional<OwnedFrame>> read =
        ReadFrame(conn->conn.get(), options_.max_frame_bytes);
    if (!read.ok()) {
      // Malformed framing is answered (best effort) before hanging up: the
      // peer is told *why* instead of seeing a bare reset.
      Count(kProtocolErrors);
      SendError(conn, 0, read.status());
      break;
    }
    if (!read->has_value()) break;  // clean EOF
    if (!Dispatch(conn, **read)) break;
  }
  conn->conn->Close();
  // Retire the connection's standing queries before dropping the owner
  // route (manager mutex only — never under mu_).
  subs_.CancelOwner(conn->owner);
  {
    std::lock_guard<std::mutex> lock(mu_);
    owners_.erase(conn->owner);
    connections_.erase(
        std::remove(connections_.begin(), connections_.end(), conn),
        connections_.end());
    connections_gauge_->Set(static_cast<int64_t>(connections_.size()));
    // Hand our own thread handle to the reaper (a thread cannot join
    // itself); pushing is this loop's final act, so the eventual join
    // returns as soon as this function does.
    retired_connections_.push_back(conn);
  }
}

void Server::ReapRetiredConnections() {
  std::vector<std::shared_ptr<ConnState>> retired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    retired.swap(retired_connections_);
  }
  for (const std::shared_ptr<ConnState>& conn : retired) {
    if (conn->reader.joinable()) conn->reader.join();
  }
}

bool Server::Dispatch(const std::shared_ptr<ConnState>& conn,
                      const OwnedFrame& frame) {
  if (!IsRequestType(frame.type)) {
    Count(kProtocolErrors);
    SendError(conn, frame.request_id,
              InvalidArgumentError(StrCat(
                  "frame type ", static_cast<int>(frame.type),
                  " is a response type; clients send requests")));
    return true;
  }
  switch (frame.type) {
    case FrameType::kQuery:
      ServeQuery(conn, frame.request_id, frame.payload);
      return true;
    case FrameType::kTranslate:
      ServeTranslate(conn, frame.request_id, frame.payload);
      return true;
    case FrameType::kStats:
      ServeStats(conn, frame.request_id, frame.payload);
      return true;
    case FrameType::kApply:
    case FrameType::kProcess: {
      // Both carry {admission, transaction}; decode with the matching typed
      // decoder so a frame of one type cannot masquerade as the other.
      Admission admission;
      Transaction transaction;
      persist::CommitToken token;
      Status decoded;
      if (frame.type == FrameType::kApply) {
        Result<ApplyRequest> request =
            DecodeApplyRequest(frame.payload, &db_->symbols());
        decoded = request.status();
        if (request.ok()) {
          admission = request->admission;
          transaction = std::move(request->transaction);
          token = request->token;
        }
      } else {
        Result<ProcessRequest> request =
            DecodeProcessRequest(frame.payload, &db_->symbols());
        decoded = request.status();
        if (request.ok()) {
          admission = request->admission;
          transaction = std::move(request->transaction);
          token = request->token;
        }
      }
      if (!decoded.ok()) {
        Count(kProtocolErrors);
        SendError(conn, frame.request_id, decoded);
        return true;
      }
      if (options_.replica_status != nullptr) {
        // Replica-serving: refuse up front with the same typed status the
        // facade's replica gate would produce, plus the non-retryable hint
        // for tokened clients — retrying here can never succeed, the write
        // belongs on the primary.
        Count(kRejectedReplicaWrites);
        SendWriteError(conn, frame.request_id,
                       FailedPreconditionError(
                           "read-only replica: writes belong on the primary"),
                       token.present(), /*retryable=*/false);
        return true;
      }
      WriteJob job;
      job.kind = frame.type == FrameType::kApply ? WriteJob::Kind::kApply
                                                 : WriteJob::Kind::kProcess;
      job.request_id = frame.request_id;
      job.conn = conn;
      job.transaction = std::move(transaction);
      job.admission = admission;
      job.token = token;
      EnqueueWrite(conn, std::move(job));
      return true;
    }
    case FrameType::kHealth:
      ServeHealth(conn, frame.request_id, frame.payload);
      return true;
    case FrameType::kSubscribe:
      ServeSubscribe(conn, frame.request_id, frame.payload);
      return true;
    case FrameType::kUnsubscribe:
      ServeUnsubscribe(conn, frame.request_id, frame.payload);
      return true;
    case FrameType::kWalFetch:
    case FrameType::kWalSubscribe:
      ServeWalFetch(conn, frame.request_id, frame.payload,
                    frame.type == FrameType::kWalSubscribe);
      return true;
    case FrameType::kCheckpoint: {
      if (options_.replica_status != nullptr) {
        Count(kRejectedReplicaWrites);
        SendError(conn, frame.request_id,
                  FailedPreconditionError(
                      "read-only replica: writes belong on the primary"));
        return true;
      }
      Result<Admission> admission = DecodeAdmissionOnly(frame.payload);
      if (!admission.ok()) {
        Count(kProtocolErrors);
        SendError(conn, frame.request_id, admission.status());
        return true;
      }
      WriteJob job;
      job.kind = WriteJob::Kind::kCheckpoint;
      job.request_id = frame.request_id;
      job.conn = conn;
      job.admission = *admission;
      EnqueueWrite(conn, std::move(job));
      return true;
    }
    default:
      SendError(conn, frame.request_id,
                UnimplementedError("unhandled request type"));
      return true;
  }
}

// ---- Read path (connection thread) ------------------------------------------

ResourceLimits Server::LimitsFor(const Admission& admission,
                                 std::chrono::nanoseconds remaining) const {
  ResourceLimits limits;
  limits.deadline = remaining;
  limits.max_derived_facts = admission.max_derived_facts;
  limits.max_dnf_terms = admission.max_dnf_terms;
  return limits;
}

namespace {

/// Effective deadline in ms after the server-side cap: 0 = unlimited.
uint32_t EffectiveDeadlineMs(uint32_t requested, uint32_t cap) {
  if (cap == 0) return requested;
  if (requested == 0) return cap;
  return std::min(requested, cap);
}

}  // namespace

Result<const ResourceGuard*> Server::PinSession(
    const std::shared_ptr<ConnState>& conn, const Admission& admission) {
  // Re-pin when the committed version moved — the connection reads its own
  // acknowledged writes, while between commits the pinned snapshot (and its
  // query caches) is reused.
  if (conn->session == nullptr ||
      conn->session->version() != db_->version()) {
    DEDDB_ASSIGN_OR_RETURN(conn->session, db_->BeginSession());
  }
  const uint32_t deadline_ms =
      EffectiveDeadlineMs(admission.deadline_ms, options_.deadline_cap_ms);
  if (deadline_ms == 0 && admission.max_derived_facts == 0 &&
      admission.max_dnf_terms == 0) {
    conn->session->set_resource_guard(nullptr);
    return static_cast<const ResourceGuard*>(nullptr);
  }
  conn->guard.Restart(LimitsFor(
      admission, std::chrono::milliseconds(deadline_ms)));
  conn->session->set_resource_guard(&conn->guard);
  return static_cast<const ResourceGuard*>(&conn->guard);
}

void Server::ServeQuery(const std::shared_ptr<ConnState>& conn, uint64_t id,
                        std::string_view payload) {
  Count(kRequestsRead);
  Result<QueryRequest> request = DecodeQueryRequest(payload, &db_->symbols());
  if (!request.ok()) {
    Count(kProtocolErrors);
    SendError(conn, id, request.status());
    return;
  }
  ReplicaInfo replica_info;
  if (options_.replica_status != nullptr) {
    replica_info = options_.replica_status->replica_status();
    if (request->max_staleness.has_value() &&
        (!replica_info.bounded ||
         replica_info.lag() > *request->max_staleness)) {
      // The bounded-staleness contract: too far behind (or unbounded with a
      // dead feed) means a typed, retryable rejection — the client backs
      // off and retries here, or falls over to a fresher server. Sending
      // max_staleness opted the client into the hint extension.
      Count(kStaleRejections);
      SendWriteError(
          conn, id,
          UnavailableError(
              replica_info.bounded
                  ? StrCat("replica lag of ", replica_info.lag(),
                           " records exceeds the requested bound of ",
                           *request->max_staleness)
                  : "replica feed is disconnected; staleness is unbounded"),
          /*tokened=*/true, /*retryable=*/true);
      return;
    }
  }
  Result<const ResourceGuard*> pinned =
      PinSession(conn, request->admission);
  if (!pinned.ok()) {
    SendError(conn, id, pinned.status());
    return;
  }
  Session& session = *conn->session;
  QueryReply reply;
  reply.version = session.version();
  if (options_.replica_status != nullptr) {
    reply.has_replica_status = true;
    reply.applied_seq = replica_info.applied_seq;
    reply.primary_last_durable_seq = replica_info.primary_last_durable_seq;
    reply.bounded = replica_info.bounded;
  }
  reply.answers.reserve(request->patterns.size());
  for (const Atom& pattern : request->patterns) {
    // Validate against the pinned schema so unknown predicates and arity
    // mismatches come back typed instead of as empty answers.
    Result<PredicateInfo> info =
        session.database().predicates().Get(pattern.predicate());
    if (!info.ok()) {
      SendError(conn, id,
                NotFoundError(StrCat(
                    "unknown predicate '",
                    db_->symbols().NameOf(pattern.predicate()), "'")));
      return;
    }
    if (info->arity != pattern.args().size()) {
      SendError(conn, id,
                InvalidArgumentError(StrCat(
                    "predicate '", db_->symbols().NameOf(pattern.predicate()),
                    "' has arity ", info->arity, ", pattern has ",
                    pattern.args().size())));
      return;
    }
    Result<std::vector<Tuple>> answers = session.Solve(pattern);
    if (!answers.ok()) {
      // Typed guard statuses (kDeadlineExceeded / kBudgetExceeded /
      // kCancelled) pass through to the error frame untouched.
      SendError(conn, id, answers.status());
      return;
    }
    reply.answers.push_back(std::move(*answers));
  }
  SendReply(conn, id, FrameType::kQueryOk,
            EncodeQueryReply(reply, db_->symbols()));
}

void Server::ServeTranslate(const std::shared_ptr<ConnState>& conn,
                            uint64_t id, std::string_view payload) {
  Count(kRequestsRead);
  Result<TranslateRequest> request =
      DecodeTranslateRequest(payload, &db_->symbols());
  if (!request.ok()) {
    Count(kProtocolErrors);
    SendError(conn, id, request.status());
    return;
  }
  Result<const ResourceGuard*> pinned =
      PinSession(conn, request->admission);
  if (!pinned.ok()) {
    SendError(conn, id, pinned.status());
    return;
  }
  Session& session = *conn->session;
  for (const RequestedEvent& event : request->request.events) {
    if (!session.database().predicates().Get(event.predicate).ok()) {
      SendError(conn, id,
                NotFoundError(StrCat("unknown predicate '",
                                     db_->symbols().NameOf(event.predicate),
                                     "'")));
      return;
    }
  }
  Result<problems::DownwardResult> result =
      session.TranslateViewUpdate(request->request);
  if (!result.ok()) {
    SendError(conn, id, result.status());
    return;
  }
  TranslateReply reply;
  reply.approximate = result->approximate;
  reply.alternatives.reserve(result->translations.size());
  for (const problems::Translation& translation : result->translations) {
    reply.alternatives.push_back(translation.transaction);
  }
  SendReply(conn, id, FrameType::kTranslateOk,
            EncodeTranslateReply(reply, db_->symbols()));
}

void Server::ServeStats(const std::shared_ptr<ConnState>& conn, uint64_t id,
                        std::string_view payload) {
  Count(kRequestsRead);
  Result<Admission> admission = DecodeAdmissionOnly(payload);
  if (!admission.ok()) {
    Count(kProtocolErrors);
    SendError(conn, id, admission.status());
    return;
  }
  StatsReply reply;
  reply.json = StatsJson();
  SendReply(conn, id, FrameType::kStatsOk, EncodeStatsReply(reply));
}

void Server::ServeHealth(const std::shared_ptr<ConnState>& conn, uint64_t id,
                         std::string_view payload) {
  Count(kRequestsRead);
  Result<HealthRequest> request = DecodeHealthRequest(payload);
  if (!request.ok()) {
    Count(kProtocolErrors);
    SendError(conn, id, request.status());
    return;
  }
  HealthReply reply;
  {
    std::lock_guard<std::mutex> lock(mu_);
    reply.state = stopping_ ? ServerState::kStopping
                            : (degraded_ ? ServerState::kDegraded
                                         : ServerState::kServing);
    reply.queue_depth =
        static_cast<uint32_t>(write_queue_.size() + writes_in_flight_);
  }
  reply.version = db_->version();
  if (persist::PersistenceManager* persistence = db_->persistence()) {
    reply.last_durable_seq = persistence->stats().last_seq;
  }
  if (request->want_subscriptions) {
    const sub::ManagerStats stats = subs_.Stats();
    reply.has_subscriptions = true;
    reply.active_subscriptions = static_cast<uint32_t>(stats.active);
    reply.queued_deltas = stats.queued_batches;
    reply.gap_events = stats.gap_events;
  }
  if (options_.replica_status != nullptr) {
    // The small print of the staleness contract: a replica has no local
    // log, so last_durable_seq above stays 0 — the replication block is
    // where its position (and the primary horizon it knows of) becomes
    // observable, which is what makes max_staleness rejections diagnosable.
    const ReplicaInfo info = options_.replica_status->replica_status();
    reply.has_replication = true;
    reply.applied_seq = info.applied_seq;
    reply.primary_last_durable_seq = info.primary_last_durable_seq;
    reply.feed_bounded = info.bounded;
  }
  SendReply(conn, id, FrameType::kHealthOk, EncodeHealthReply(reply));
}

// ---- Standing queries (DESIGN.md §11) ---------------------------------------

void Server::ServeSubscribe(const std::shared_ptr<ConnState>& conn,
                            uint64_t id, std::string_view payload) {
  Count(kRequestsRead);
  Result<SubscribeRequest> request =
      DecodeSubscribeRequest(payload, &db_->symbols());
  if (!request.ok()) {
    Count(kProtocolErrors);
    SendError(conn, id, request.status());
    return;
  }
  const Atom& pattern = request->pattern;
  // Not db_->database().predicates() directly: a concurrent commit may be
  // registering event-rule variants in the table right now.
  Result<PredicateInfo> info = db_->PredicateInfoFor(pattern.predicate());
  if (!info.ok()) {
    SendError(conn, id,
              NotFoundError(StrCat("unknown predicate '",
                                   db_->symbols().NameOf(pattern.predicate()),
                                   "'")));
    return;
  }
  if (info->variant != PredicateVariant::kOld) {
    SendError(conn, id,
              InvalidArgumentError(StrCat(
                  "cannot subscribe to decorated predicate '",
                  db_->symbols().NameOf(pattern.predicate()),
                  "'; subscribe to the state predicate itself")));
    return;
  }
  if (info->arity != pattern.args().size()) {
    SendError(conn, id,
              InvalidArgumentError(StrCat(
                  "predicate '", db_->symbols().NameOf(pattern.predicate()),
                  "' has arity ", info->arity, ", pattern has ",
                  pattern.args().size())));
    return;
  }
  if (subs_.OwnerSubscriptions(conn->owner) >=
      options_.max_subscriptions_per_connection) {
    SendError(conn, id,
              ResourceExhaustedError(StrCat(
                  "per-connection subscription quota of ",
                  options_.max_subscriptions_per_connection, " exceeded")));
    return;
  }

  sub::SubscriptionSpec spec;
  spec.predicate = pattern.predicate();
  spec.filter.reserve(pattern.args().size());
  for (const Term& term : pattern.args()) {
    if (term.is_constant()) {
      spec.filter.emplace_back(term.constant());
    } else {
      spec.filter.emplace_back(std::nullopt);
    }
  }
  spec.derived = info->kind == PredicateKind::kDerived;
  spec.policy = request->policy;
  spec.max_queued = request->max_queued != 0 ? request->max_queued
                                             : options_.sub_queue_depth;

  // Two-phase handshake (see SubscriptionManager): register first so every
  // commit from here on queues its delta, then pin the stream's start
  // point, reply, and only then activate — so no push can overtake the
  // SubscribeOk frame on the wire.
  const uint64_t sub_id = subs_.Register(spec, conn->owner);
  SubscribeReply reply;
  reply.sub_id = sub_id;
  if (request->resume_from_version != 0 &&
      subs_.TryStageResume(sub_id, request->resume_from_version)) {
    reply.version = request->resume_from_version;
    reply.resumed = true;
    SendReply(conn, id, FrameType::kSubscribeOk,
              EncodeSubscribeReply(reply, db_->symbols()));
    subs_.Activate(sub_id, request->resume_from_version);
    return;
  }
  // Fresh snapshot: evaluate the pattern against a pinned session. The
  // snapshot version fences the stream — queued deltas at or below it are
  // already contained in the snapshot and get dropped by Activate.
  Result<const ResourceGuard*> pinned = PinSession(conn, request->admission);
  if (!pinned.ok()) {
    subs_.Cancel(sub_id, conn->owner);
    SendError(conn, id, pinned.status());
    return;
  }
  Result<std::vector<Tuple>> answers = conn->session->Solve(pattern);
  if (!answers.ok()) {
    subs_.Cancel(sub_id, conn->owner);
    SendError(conn, id, answers.status());
    return;
  }
  sub::SortUnique(&*answers);
  reply.version = conn->session->version();
  reply.snapshot = std::move(*answers);
  SendReply(conn, id, FrameType::kSubscribeOk,
            EncodeSubscribeReply(reply, db_->symbols()));
  subs_.Activate(sub_id, reply.version);
}

void Server::ServeUnsubscribe(const std::shared_ptr<ConnState>& conn,
                              uint64_t id, std::string_view payload) {
  Count(kRequestsRead);
  Result<UnsubscribeRequest> request = DecodeUnsubscribeRequest(payload);
  if (!request.ok()) {
    Count(kProtocolErrors);
    SendError(conn, id, request.status());
    return;
  }
  UnsubscribeReply reply;
  // Owner-checked: a connection can only cancel its own subscriptions, so
  // a guessed id from another client answers existed=false, not a cancel.
  reply.existed = subs_.Cancel(request->sub_id, conn->owner);
  SendReply(conn, id, FrameType::kUnsubscribeOk,
            EncodeUnsubscribeReply(reply));
}

void Server::PusherLoop() {
  for (;;) {
    std::optional<sub::PushItem> item = subs_.WaitPop();
    if (!item.has_value()) return;  // Shutdown()
    if (options_.pusher_stall_for_test) options_.pusher_stall_for_test();
    std::shared_ptr<ConnState> conn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = owners_.find(item->owner);
      if (it != owners_.end()) conn = it->second.lock();
    }
    if (conn == nullptr) {
      // The connection retired between pop and route; drop the rest of its
      // subscriptions too (CancelOwner is idempotent).
      subs_.CancelOwner(item->owner);
      continue;
    }
    if (item->is_gap) {
      SubGapFrame frame;
      frame.sub_id = item->sub_id;
      frame.version = item->version;
      frame.reason = item->reason;
      SendReply(conn, 0, FrameType::kSubGap, EncodeSubGapFrame(frame));
    } else {
      PushDeltaFrame frame;
      frame.sub_id = item->sub_id;
      frame.version = item->batch.version;
      frame.inserts = std::move(item->batch.inserts);
      frame.deletes = std::move(item->batch.deletes);
      SendReply(conn, 0, FrameType::kPushDelta,
                EncodePushDeltaFrame(frame, db_->symbols()));
    }
  }
}

// ---- Write path (admission queue + writer thread) ---------------------------

// ---- Replica feed (DESIGN.md §12) -------------------------------------------

void Server::ServeWalFetch(const std::shared_ptr<ConnState>& conn,
                           uint64_t id, std::string_view payload,
                           bool long_poll) {
  Count(kRequestsRead);
  Result<WalFetchRequest> request = DecodeWalFetchRequest(payload);
  if (!request.ok()) {
    Count(kProtocolErrors);
    SendError(conn, id, request.status());
    return;
  }
  persist::PersistenceManager* persistence = db_->persistence();
  if (persistence == nullptr) {
    SendError(conn, id,
              FailedPreconditionError(
                  "this server has no durable log to ship (in-memory "
                  "database or replica); point the feed at the primary"));
    return;
  }
  const size_t max_records = request->max_records != 0
                                 ? request->max_records
                                 : options_.feed_max_records;
  // Bound the batch's payload bytes well under the frame cap: the reply
  // adds framing (CRCs, length prefixes, the horizon) on top.
  const uint32_t bytes_cap = kMaxFramePayloadBytes / 2;
  uint32_t max_bytes =
      request->max_bytes != 0 ? request->max_bytes : options_.feed_max_bytes;
  max_bytes = std::min(max_bytes, bytes_cap);
  if (long_poll &&
      persistence->settled_seq() <= request->from_seq) {
    // Park in bounded slices off mu_ until a write settles past the cursor,
    // the poll window lapses, or the server stops. The writer thread rings
    // repl_cv_ after each executed write; the slices bound the staleness of
    // a missed wakeup (e.g. a commit made directly on the facade).
    uint32_t window_ms = options_.feed_poll_ms;
    if (request->admission.deadline_ms != 0) {
      window_ms = std::min(window_ms, request->admission.deadline_ms);
    }
    const Clock::time_point give_up =
        Clock::now() + std::chrono::milliseconds(window_ms);
    std::unique_lock<std::mutex> repl_lock(repl_mu_);
    while (persistence->settled_seq() <= request->from_seq &&
           !repl_stop_.load(std::memory_order_acquire) &&
           Clock::now() < give_up) {
      repl_cv_.wait_for(repl_lock, std::chrono::milliseconds(50));
    }
  }
  Result<persist::PersistenceManager::FeedBatch> batch =
      persistence->ReadFeedRecords(request->from_seq, max_records, max_bytes);
  if (!batch.ok()) {
    // kNotFound: a checkpoint truncated history past the cursor — the
    // replica must re-seed from a snapshot. Typed, so the tailer can tell
    // this apart from transient failures.
    SendError(conn, id, batch.status());
    return;
  }
  WalRecordsReply reply;
  reply.primary_last_durable_seq = batch->last_durable_seq;
  reply.records.reserve(batch->records.size());
  for (persist::PersistenceManager::FeedRecord& record : batch->records) {
    reply.records.push_back(
        WalRecordsReply::Record{record.crc, std::move(record.payload)});
  }
  Count(kFeedFetches);
  Count(kFeedRecordsShipped, reply.records.size());
  SendReply(conn, id,
            long_poll ? FrameType::kWalSubscribeOk : FrameType::kWalRecords,
            EncodeWalRecordsReply(reply));
}

void Server::EnqueueWrite(const std::shared_ptr<ConnState>& conn,
                          WriteJob job) {
  job.admitted_at = Clock::now();
  const uint32_t deadline_ms = EffectiveDeadlineMs(
      job.admission.deadline_ms, options_.deadline_cap_ms);
  if (deadline_ms > 0) {
    job.has_deadline = true;
    job.deadline_at = job.admitted_at + std::chrono::milliseconds(deadline_ms);
  }
  Count(kRequestsWrite);
  // The rejection kind is the counter it bumps (never parsed back out of the
  // status text), so rewording a message cannot misclassify the metric.
  CounterId rejected = kCounterCount;
  Status rejection;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      rejected = kRejectedShutdown;
      rejection = FailedPreconditionError("server shutting down");
    } else if (degraded_) {
      rejected = kRejectedDegraded;
      rejection = UnavailableError(
          "server is read-only: commit durability failed; reads keep "
          "serving, writes require reopening the database");
    } else if (conn->pending_writes >=
               options_.max_pending_writes_per_connection) {
      rejected = kRejectedQuota;
      rejection = ResourceExhaustedError(
          StrCat("per-connection write quota of ",
                 options_.max_pending_writes_per_connection, " exceeded"));
    } else if (write_queue_.size() >= options_.write_queue_depth) {
      rejected = kRejectedOverload;
      rejection = ResourceExhaustedError(
          StrCat("server overloaded: write queue full at ",
                 options_.write_queue_depth));
    } else {
      ++conn->pending_writes;
      write_queue_.push_back(std::move(job));
      queue_depth_gauge_->Set(
          static_cast<int64_t>(write_queue_.size() + writes_in_flight_));
    }
  }
  if (rejected != kCounterCount) {
    Count(rejected);
    // Quota and overload are transient (capacity frees up); degradation and
    // shutdown are not — this process will never admit the write again.
    const bool retryable =
        rejected == kRejectedQuota || rejected == kRejectedOverload;
    SendWriteError(conn, job.request_id, rejection, job.token.present(),
                   retryable);
    return;
  }
  queue_cv_.notify_one();
}

void Server::WriterLoop() {
  for (;;) {
    WriteJob job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock,
                     [&] { return stopping_ || !write_queue_.empty(); });
      if (write_queue_.empty()) {
        // stopping_ and drained; nothing will be admitted past this point.
        return;
      }
      job = std::move(write_queue_.front());
      write_queue_.pop_front();
      writes_in_flight_ = 1;
      queue_depth_gauge_->Set(
          static_cast<int64_t>(write_queue_.size() + writes_in_flight_));
    }
    const Clock::time_point start = Clock::now();
    obs::MetricsRegistry::Observe(
        options_.obs.metrics, "server.queue_wait_us",
        std::chrono::duration_cast<std::chrono::microseconds>(
            start - job.admitted_at)
            .count());
    if (options_.writer_stall_for_test) options_.writer_stall_for_test();
    Reply reply;
    if (job.has_deadline && Clock::now() >= job.deadline_at) {
      Count(kDeadlineExpiredInQueue);
      // Not retryable: the deadline was the client's whole budget for this
      // request, and it is spent.
      reply = WriteErrorReply(
          DeadlineExceededError(
              "request deadline expired in the admission queue"),
          job.token.present(), /*retryable=*/false);
    } else {
      // Re-arm the facade guard for this job: remaining deadline (admission
      // time counts) plus the request's budgets. Only writer-thread
      // evaluations observe this guard.
      std::chrono::nanoseconds remaining{0};
      if (job.has_deadline) {
        remaining = std::max<std::chrono::nanoseconds>(
            job.deadline_at - Clock::now(), std::chrono::nanoseconds(1));
      }
      writer_guard_.Restart(LimitsFor(job.admission, remaining));
      reply = ExecuteWrite(job);
      obs::MetricsRegistry::Observe(
          options_.obs.metrics, "server.write_exec_us",
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - start)
              .count());
    }
    // Leave the in-flight bookkeeping before the reply does: a client that
    // holds the acknowledgement must never read this write as queued.
    {
      std::lock_guard<std::mutex> lock(mu_);
      writes_in_flight_ = 0;
      if (job.conn->pending_writes > 0) --job.conn->pending_writes;
      queue_depth_gauge_->Set(static_cast<int64_t>(write_queue_.size()));
      drained_cv_.notify_all();
    }
    SendReply(job.conn, job.request_id, reply.type, reply.payload);
    // Wake feed long-polls: the write may have settled new records. The
    // empty lock pairs with the waiter's predicate re-check, so a wakeup
    // cannot be lost between its check and its wait.
    {
      std::lock_guard<std::mutex> repl_lock(repl_mu_);
    }
    repl_cv_.notify_all();
  }
}

std::optional<Server::Reply> Server::CheckDedup(const WriteJob& job) {
  if (!job.token.present()) return std::nullopt;
  DedupResult dedup = db_->LookupCommitToken(job.token);
  switch (dedup.verdict) {
    case DedupVerdict::kFresh:
      return std::nullopt;
    case DedupVerdict::kDuplicate: {
      // A retry of a write that already committed: answer with the original
      // reply (the version its commit produced), never a second apply —
      // this is the exactly-once half the client's retry loop relies on.
      Count(kDedupHits);
      if (job.kind == WriteJob::Kind::kApply) {
        ApplyReply reply{dedup.version};
        return Reply{FrameType::kApplyOk, EncodeApplyReply(reply)};
      }
      ProcessReply reply;
      reply.version = dedup.version;
      reply.accepted = true;  // only accepted commits are recorded
      return Reply{FrameType::kProcessOk, EncodeProcessReply(reply)};
    }
    case DedupVerdict::kTooOld:
      // The seq fell out of the bounded window, so committed-vs-not is
      // unknowable — ambiguity must surface, not resolve to a guess.
      return WriteErrorReply(
          FailedPreconditionError(StrCat(
              "request_seq ", job.token.request_seq, " of client ",
              job.token.client_id,
              " predates the idempotency window; outcome unknown")),
          /*tokened=*/true, /*retryable=*/false);
  }
  return std::nullopt;
}

Server::Reply Server::ExecuteWrite(const WriteJob& job) {
  switch (job.kind) {
    case WriteJob::Kind::kApply: {
      if (std::optional<Reply> dedup = CheckDedup(job)) return *dedup;
      Status applied = db_->Apply(job.transaction, job.token);
      if (!applied.ok()) {
        Count(kWritesRejected);
        NoteCommitHealth();
        return WriteErrorReply(applied, job.token.present(),
                               /*retryable=*/false);
      }
      Count(kWritesApplied);
      ApplyReply reply{db_->version()};
      return Reply{FrameType::kApplyOk, EncodeApplyReply(reply)};
    }
    case WriteJob::Kind::kProcess: {
      if (std::optional<Reply> dedup = CheckDedup(job)) return *dedup;
      UpdateProcessor processor(db_);
      processor.set_commit_token(job.token);
      Result<UpdateProcessor::TransactionReport> report =
          processor.ProcessTransaction(job.transaction);
      if (!report.ok()) {
        Count(kWritesRejected);
        NoteCommitHealth();
        return WriteErrorReply(report.status(), job.token.present(),
                               /*retryable=*/false);
      }
      ProcessReply reply;
      reply.version = db_->version();
      reply.accepted = report->accepted;
      if (!report->accepted) {
        reply.detail = report->ToString(db_->symbols());
        Count(kWritesRejected);
      } else {
        Count(kWritesApplied);
      }
      return Reply{FrameType::kProcessOk, EncodeProcessReply(reply)};
    }
    case WriteJob::Kind::kCheckpoint: {
      Status checkpointed = db_->Checkpoint();
      if (!checkpointed.ok()) {
        NoteCommitHealth();
        return WriteErrorReply(checkpointed, /*tokened=*/false,
                               /*retryable=*/false);
      }
      CheckpointReply reply{db_->version()};
      return Reply{FrameType::kCheckpointOk, EncodeCheckpointReply(reply)};
    }
  }
  return WriteErrorReply(InternalError("unknown write kind"),
                         /*tokened=*/false, /*retryable=*/false);
}

// ---- Response writing -------------------------------------------------------

void Server::NoteCommitHealth() {
  if (db_->commit_health().ok()) return;
  std::lock_guard<std::mutex> lock(mu_);
  degraded_ = true;
  degraded_gauge_->Set(1);
}

void Server::SendError(const std::shared_ptr<ConnState>& conn, uint64_t id,
                       const Status& status) {
  if (IsGuardTrip(status.code())) {
    Count(kGuardTrips);
  }
  ErrorReply reply{status.code(), status.message()};
  SendReply(conn, id, FrameType::kError, EncodeErrorReply(reply));
}

Server::Reply Server::WriteErrorReply(const Status& status, bool tokened,
                                      bool retryable) {
  if (IsGuardTrip(status.code())) {
    Count(kGuardTrips);
  }
  ErrorReply reply{status.code(), status.message()};
  // A v1 requester gets the bare error frame it knows how to parse.
  if (tokened) reply.set_retryable(retryable);
  return Reply{FrameType::kError, EncodeErrorReply(reply)};
}

void Server::SendWriteError(const std::shared_ptr<ConnState>& conn,
                            uint64_t id, const Status& status, bool tokened,
                            bool retryable) {
  Reply reply = WriteErrorReply(status, tokened, retryable);
  SendReply(conn, id, reply.type, reply.payload);
}

void Server::SendReply(const std::shared_ptr<ConnState>& conn, uint64_t id,
                       FrameType type, std::string_view payload) {
  // A reply the framing cannot carry is downgraded to a typed error (error
  // frames are small, so the recursion terminates): the client learns the
  // result was too large and can narrow the request, instead of its
  // ReadFrame killing the connection over a "malformed frame".
  if (type != FrameType::kError && payload.size() > kMaxFramePayloadBytes) {
    SendError(conn, id,
              ResourceExhaustedError(StrCat(
                  "reply of ", payload.size(), " bytes exceeds the ",
                  kMaxFrameBytes, "-byte frame limit; narrow the request")));
    return;
  }
  std::lock_guard<std::mutex> lock(conn->write_mu);
  // A failed response write means the peer went away; the reader loop will
  // observe the closed stream and retire the connection.
  (void)WriteFrame(conn->conn.get(), type, id, payload);
}

}  // namespace deddb::server
