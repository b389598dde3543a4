#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "core/deductive_database.h"
#include "obs/metrics.h"
#include "persist/manager.h"
#include "persist/snapshot.h"
#include "replay.h"
#include "repl/replica.h"
#include "server/client.h"
#include "server/server.h"
#include "server/transport.h"
#include "sub/view.h"

namespace perfbench {

using deddb::Atom;
using deddb::DeductiveDatabase;
using deddb::Result;
using deddb::Status;
using deddb::Transaction;
using deddb::server::Client;

namespace {

// Tokened writers need distinct nonzero ids per server lifetime.
constexpr uint64_t kClientIdBase = 0x5eed0000;

}  // namespace

bool ParseWorkload(std::string_view name, Workload* out) {
  for (Workload w : {Workload::kOltpWire, Workload::kUpdatePipeline,
                     Workload::kCdcFanout}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kOltpWire: return "oltp_wire";
    case Workload::kUpdatePipeline: return "update_pipeline";
    case Workload::kCdcFanout: return "cdc_fanout";
  }
  return "?";
}

const char* PredName(Pred pred) {
  static const char* const kNames[] = {"La", "Works", "U_benefit", "Skilled"};
  return kNames[pred];
}

Shape ShapeOf(Workload workload, bool smoke) {
  Shape shape;
  const size_t threads = std::max(1u, std::thread::hardware_concurrency());
  switch (workload) {
    case Workload::kOltpWire:
      shape.people = smoke ? 2000 : 20000;
      shape.clients = std::min<size_t>(3, threads);
      shape.persistent = true;
      break;
    case Workload::kUpdatePipeline:
      shape.people = smoke ? 1000 : 5000;
      shape.clients = std::min<size_t>(2, threads);
      shape.materialize_unemp = true;
      break;
    case Workload::kCdcFanout:
      // 5,000 rather than 20,000 people: the whole-view subscriber's
      // SubView::Apply is O(view), and at 20,000 people (~6,400 Unemp
      // tuples, ~0.6 ms per delta) it saturates at 1,000 writes/s, so push
      // latency turns into queueing whose p99 varied 60% between runs.
      shape.people = smoke ? 1000 : 5000;
      shape.clients = 1;
      shape.persistent = true;
      shape.writes_per_s = 1000;
      shape.writer_pool = 64;
      break;
  }
  return shape;
}

deddb::workload::EmploymentConfig ConfigOf(const Shape& shape, uint64_t seed) {
  deddb::workload::EmploymentConfig config;
  config.people = shape.people;
  config.seed = seed;
  config.materialize_unemp = shape.materialize_unemp;
  return config;
}

Result<Population> MakePopulation(
    const deddb::workload::EmploymentConfig& config) {
  Population pop;
  DEDDB_ASSIGN_OR_RETURN(std::unique_ptr<DeductiveDatabase> db,
                         deddb::workload::MakeEmploymentDatabase(config));
  const deddb::Database& database = db->database();
  deddb::SymbolId preds[4];
  for (int p = 0; p < 4; ++p) {
    DEDDB_ASSIGN_OR_RETURN(
        preds[p], database.FindPredicate(PredName(static_cast<Pred>(p))));
  }
  std::vector<uint8_t>* columns[4] = {&pop.la, &pop.works, &pop.benefit,
                                      &pop.skilled};
  for (size_t i = 0; i < config.people; ++i) {
    pop.names.push_back(deddb::workload::PersonName(i));
    deddb::Tuple tuple{db->symbols().Intern(pop.names.back())};
    for (int p = 0; p < 4; ++p) {
      columns[p]->push_back(database.facts().Contains(preds[p], tuple));
    }
  }
  return pop;
}

deddb::UpdateRequest BuildUpdateRequest(const Op& op, const Population& pop,
                                        deddb::SymbolTable& symbols) {
  deddb::UpdateRequest request;
  for (bool insert : {true, false}) {
    deddb::RequestedEvent event;
    event.is_insert = insert;
    event.predicate = symbols.Intern("Unemp");
    event.args = {deddb::Term::MakeConstant(
        symbols.Intern(pop.names[insert ? op.p1 : op.p2]))};
    request.events.push_back(std::move(event));
  }
  return request;
}

// ---- Generator ---------------------------------------------------------------

Generator::Generator(Workload workload, const Shape& shape,
                     const Population& pop, size_t client, uint64_t seed)
    : workload_(workload),
      shape_(shape),
      pop_(pop),
      client_(client),
      rng_(seed * 1000003 + client + 1),
      works_(pop.works),
      benefit_(pop.benefit),
      skilled_(pop.skilled),
      owner_(pop.size(), -1) {
  // Only labour-age persons are written. The open-loop writer owns the
  // first writer_pool of them; closed-loop client c owns those with
  // index % 4 == c, which leaves at least one residue class unwritten.
  size_t pooled = 0;
  for (uint32_t i = 0; i < pop.size(); ++i) {
    if (!pop.la[i]) continue;
    if (workload == Workload::kCdcFanout) {
      if (pooled < shape.writer_pool) owner_[i] = 0, ++pooled;
    } else if (i % 4 < shape.clients) {
      owner_[i] = static_cast<int8_t>(i % 4);
    }
  }
  for (uint32_t i = 0; i < pop.size(); ++i) {
    if (owner_[i] == static_cast<int>(client)) owned_.push_back(i);
    if (owner_[i] < 0) {
      (pop.Unemp(i) ? stable_unemp_ : stable_employable_).push_back(i);
    }
  }
}

uint32_t Generator::PickOwned() {
  return owned_[rng_.NextBelow(owned_.size())];
}

void Generator::AddMove(uint32_t person, std::vector<Event>* events) const {
  const bool employed = works_[person];
  events->push_back({kWorks, person, !employed});
  events->push_back({kBenefit, person, employed});
}

void Generator::AddViolation(uint32_t person,
                             std::vector<Event>* events) const {
  events->push_back({works_[person] ? kBenefit : kWorks, person, true});
  events->push_back({kSkilled, person, !skilled_[person]});
}

Op Generator::Query() {
  Op op;
  op.kind = OpKind::kQuery;
  op.person = static_cast<uint32_t>(rng_.NextBelow(pop_.size()));
  return op;
}

Op Generator::Translate() {
  Op op;
  op.kind = OpKind::kTranslate;
  op.p1 = stable_employable_[rng_.NextBelow(stable_employable_.size())];
  op.p2 = stable_unemp_[rng_.NextBelow(stable_unemp_.size())];
  return op;
}

Op Generator::Next() {
  const uint64_t index = index_++;
  Op op;
  switch (workload_) {
    case Workload::kOltpWire:
      if (index % 8 != 7) return Query();
      op.kind = OpKind::kApply;
      AddMove(PickOwned(), &op.events);
      return op;
    case Workload::kUpdatePipeline: {
      if (index % 4 == 3) return Translate();
      op.kind = OpKind::kProcess;
      const uint32_t a = PickOwned();
      uint32_t b = PickOwned();
      while (b == a) b = PickOwned();
      AddMove(a, &op.events);
      // Exactly one transaction in four carries an Ic2 violation.
      op.expect_accepted = transactions_++ % 4 != 3;
      if (op.expect_accepted) {
        AddMove(b, &op.events);
      } else {
        AddViolation(b, &op.events);
      }
      return op;
    }
    case Workload::kCdcFanout:
      op.kind = OpKind::kApply;
      AddMove(PickOwned(), &op.events);
      return op;
  }
  return op;
}

void Generator::Acknowledge(const Op& op) {
  for (const Event& e : op.events) {
    switch (e.pred) {
      case kWorks: works_[e.person] = e.insert; break;
      case kBenefit: benefit_[e.person] = e.insert; break;
      case kSkilled: skilled_[e.person] = e.insert; break;
      case kLa: break;
    }
  }
}

std::optional<bool> Generator::ExpectedUnemp(uint32_t person) const {
  const int owner = OwnerOf(person);
  if (owner >= 0 && owner != static_cast<int>(client_)) return std::nullopt;
  return pop_.la[person] && !works_[person];
}

bool Generator::Holds(Pred pred, uint32_t person) const {
  switch (pred) {
    case kLa: return pop_.la[person];
    case kWorks: return works_[person];
    case kBenefit: return benefit_[person];
    case kSkilled: return skilled_[person];
  }
  return false;
}

// ---- The system under test ----------------------------------------------------

namespace {

/// One standing query and the client-side view it maintains.
struct Subscriber {
  std::unique_ptr<Client> client;
  deddb::sub::SubView view;
  std::optional<uint32_t> person;  // bound-argument filter, if any
};

/// A served database with its clients; torn down in dependency order.
struct Env {
  Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;
  ~Env() { Teardown(); }

  void Teardown() {
    if (replica != nullptr) replica->Stop();
    if (server != nullptr) server->Stop();
    for (std::thread& t : threads) t.join();
    threads.clear();
    subscribers.clear();
    clients.clear();
    if (db != nullptr && db->persistence() != nullptr) (void)db->Close();
    if (!dir.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
      dir.clear();
    }
  }

  std::unique_ptr<deddb::obs::MetricsRegistry> metrics;  // traced only
  std::unique_ptr<DeductiveDatabase> db;
  std::string dir;
  deddb::server::LoopbackNetwork network;
  std::unique_ptr<deddb::server::Server> server;
  std::unique_ptr<DeductiveDatabase> replica_db;
  std::unique_ptr<deddb::repl::Replica> replica;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::unique_ptr<Subscriber>> subscribers;
  std::vector<std::thread> threads;
  uint64_t base_version = 0;
  uint64_t base_seq = 0;
};

Result<std::unique_ptr<Env>> Setup(const RunOptions& opts, const Shape& shape,
                                   bool traced, const Generator& writer_model) {
  static int setups = 0;
  auto env = std::make_unique<Env>();
  if (traced) env->metrics = std::make_unique<deddb::obs::MetricsRegistry>();
  const deddb::obs::ObsContext obs{nullptr, env->metrics.get()};
  const auto config = ConfigOf(shape, opts.seed);

  DEDDB_ASSIGN_OR_RETURN(std::unique_ptr<DeductiveDatabase> db,
                         deddb::workload::MakeEmploymentDatabase(config));
  if (shape.persistent) {
    // The generated state becomes the durable snapshot the server opens.
    env->dir = opts.work_dir + "/" + WorkloadName(opts.workload) + "-" +
               std::to_string(::getpid()) + "-" + std::to_string(setups++);
    std::filesystem::remove_all(env->dir);
    std::filesystem::create_directories(env->dir);
    {
      DEDDB_ASSIGN_OR_RETURN(
          auto manager, deddb::persist::PersistenceManager::Open(env->dir, {}));
      DEDDB_RETURN_IF_ERROR(deddb::persist::WriteSnapshot(
          db->database(), 0, manager->snapshot_path(), {}));
    }
    DEDDB_ASSIGN_OR_RETURN(
        db, DeductiveDatabase::OpenPersistent(
                env->dir, deddb::PersistOptions{.group_commit = true}));
    db->set_observability(obs);
    DEDDB_RETURN_IF_ERROR(db->Checkpoint());
  } else {
    db->set_observability(obs);
    if (shape.materialize_unemp) {
      DEDDB_RETURN_IF_ERROR(db->InitializeMaterializedViews());
    }
  }
  DEDDB_RETURN_IF_ERROR(db->Compiled().status());
  env->db = std::move(db);

  deddb::server::ServerOptions server_options;
  server_options.obs = obs;
  env->server =
      std::make_unique<deddb::server::Server>(env->db.get(), server_options);
  DEDDB_RETURN_IF_ERROR(env->server->Serve(env->network.TakeListener()));
  deddb::server::LoopbackNetwork* network = &env->network;
  auto dial = [network]() { return network->Connect(); };

  for (size_t c = 0; c < shape.clients; ++c) {
    deddb::server::ClientOptions options;
    options.client_id = kClientIdBase + c + 1;
    env->clients.push_back(std::make_unique<Client>(dial, options));
    DEDDB_RETURN_IF_ERROR(env->clients.back()->Health().status());
  }

  if (opts.workload == Workload::kCdcFanout) {
    // Replica: an in-memory facade with the same seed state, tailing the
    // primary's WAL feed from sequence zero.
    DEDDB_ASSIGN_OR_RETURN(env->replica_db,
                           deddb::workload::MakeEmploymentDatabase(config));
    DEDDB_RETURN_IF_ERROR(env->replica_db->EnterReplicaMode());
    deddb::repl::Replica::Options replica_options;
    replica_options.obs = obs;
    env->replica = std::make_unique<deddb::repl::Replica>(
        env->replica_db.get(), dial, replica_options);
    DEDDB_RETURN_IF_ERROR(env->replica->Start());

    // Two coalescing subscribers: the whole view, and one person of the
    // writer's pool (matches only the commits that move that person).
    const std::optional<uint32_t> filters[2] = {std::nullopt,
                                                writer_model.FirstOwned()};
    for (const std::optional<uint32_t>& person : filters) {
      auto subscriber = std::make_unique<Subscriber>();
      subscriber->person = person;
      subscriber->client = std::make_unique<Client>(
          dial, deddb::server::ClientOptions{});
      Client& client = *subscriber->client;
      const Atom pattern =
          person ? client.GroundAtom(
                       "Unemp", {deddb::workload::PersonName(*person)})
                 : client.MakeAtom("Unemp", {client.Variable("x")});
      Client::SubscribeOptions options;
      options.policy = deddb::sub::OverflowPolicy::kCoalesce;
      DEDDB_ASSIGN_OR_RETURN(deddb::server::SubscribeReply reply,
                             client.Subscribe(pattern, options));
      subscriber->view.Reset(reply.version, std::move(reply.snapshot));
      env->subscribers.push_back(std::move(subscriber));
    }
    // Set-up ends once the replica's feed connection is open: the writer,
    // the two subscribers and the replica.
    const int64_t give_up = NowNs() + 10'000'000'000;
    while (env->server->active_connections() < shape.clients + 3) {
      if (NowNs() > give_up) {
        return deddb::InternalError("replica feed never connected");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  env->base_version = env->db->version();
  if (env->db->persistence() != nullptr) {
    env->base_seq = env->db->persistence()->stats().last_seq;
  }
  return env;
}

/// Per-phase measurements (one phase = one served database under load).
struct Phase {
  // Latencies stamped with their start (scheduled) or completion time, and
  // completions, over the measured window [from_ns, to_ns).
  Samples read, write, push, replica_lag, late, wire_write, records_behind;
  Samples completions;
  int64_t from_ns = 0, to_ns = 0;
  uint64_t measured_ops = 0;
  double open_loop_s = 0;  // first due slot to last acknowledgement
  uint64_t attempted = 0, failed = 0, acked_writes = 0;
  uint64_t accepted = 0, rejected = 0, gaps = 0;
  OracleTally oracles;
  std::vector<SpanLog> spans;

  /// Closed loops: median windowed completion rate. The open loop's
  /// windows all hold exactly its schedule, so it reports the overall rate
  /// of acknowledgements instead.
  double ops_per_s() const {
    if (open_loop_s > 0) return measured_ops / open_loop_s;
    return completions.WindowedRate(from_ns, to_ns);
  }
  double write_p50() const {
    return write.WindowedPercentile(0.5, from_ns, to_ns);
  }
};

/// One closed-loop client's share of a phase.
struct ClientShare {
  Samples read, write, completions;
  uint64_t measured_ops = 0, attempted = 0, failed = 0, acked = 0;
  uint64_t accepted = 0, rejected = 0;
  OracleTally oracles;
  SpanLog spans;
};

void ClosedLoopClient(Client& client, Generator& gen, const Population& pop,
                      uint64_t client_index, int64_t measure_from_ns,
                      int64_t end_ns, bool traced, ClientShare* share) {
  auto atom = [&client](const char* pred, const std::string& name) {
    return Result<Atom>(client.GroundAtom(pred, {name}));
  };
  for (uint64_t n = 0;; ++n) {
    const int64_t start = NowNs();
    if (start >= end_ns) break;
    const bool measured = start >= measure_from_ns;
    const Op op = gen.Next();
    const char* span_name = "";
    bool ok = false;
    bool is_read = false;
    switch (op.kind) {
      case OpKind::kQuery: {
        is_read = true;
        span_name = "client.query";
        auto reply = client.Query({client.GroundAtom("Unemp", {pop.names[op.person]})});
        if (!reply.ok()) break;
        ok = true;
        const bool holds =
            reply->answers.size() == 1 && reply->answers[0].size() == 1;
        const std::optional<bool> expected = gen.ExpectedUnemp(op.person);
        if (expected.has_value()) {
          share->oracles.Check(gen.OwnerOf(op.person) < 0
                                   ? "read_unwritten_person_matches_seed"
                                   : "read_own_person_matches_last_ack",
                               holds == *expected, pop.names[op.person]);
        }
        break;
      }
      case OpKind::kApply: {
        span_name = "client.apply";
        auto txn = BuildTransaction(op, pop, atom);
        if (!txn.ok()) break;
        auto reply = client.Apply(*txn);
        if (!reply.ok()) break;
        ok = true;
        gen.Acknowledge(op);
        ++share->acked;
        break;
      }
      case OpKind::kProcess: {
        span_name = "client.process";
        auto txn = BuildTransaction(op, pop, atom);
        if (!txn.ok()) break;
        auto reply = client.Process(*txn);
        if (!reply.ok()) break;
        ok = true;
        share->oracles.Check("process_verdict_matches_intent",
                             reply->accepted == op.expect_accepted,
                             reply->detail);
        if (reply->accepted) {
          ++share->accepted;
          if (op.expect_accepted) gen.Acknowledge(op);
        } else {
          ++share->rejected;
        }
        break;
      }
      case OpKind::kTranslate: {
        is_read = true;
        span_name = "client.translate";
        auto reply =
            client.Translate(BuildUpdateRequest(op, pop, client.symbols()));
        if (!reply.ok()) break;
        ok = true;
        share->oracles.Check("translation_has_alternative",
                             !reply->alternatives.empty());
        break;
      }
    }
    const int64_t end = NowNs();
    ++share->attempted;
    if (!ok) {
      ++share->failed;
      continue;
    }
    if (traced) share->spans.Record((client_index << 40) | n, span_name, start, end);
    if (!measured || end > end_ns) continue;
    ++share->measured_ops;
    (is_read ? share->read : share->write).Add((end - start) / 1e3, end);
    share->completions.Add(0, end);
  }
}

/// Base facts of `db` per person, for one predicate.
std::vector<uint8_t> FactColumn(DeductiveDatabase& db, const Population& pop,
                                Pred pred) {
  std::vector<uint8_t> out(pop.size(), 0);
  auto predicate = db.database().FindPredicate(PredName(pred));
  if (!predicate.ok()) return out;
  for (size_t i = 0; i < pop.size(); ++i) {
    out[i] = db.database().facts().Contains(
        *predicate, deddb::Tuple{db.symbols().Intern(pop.names[i])});
  }
  return out;
}

/// Final base state against the generators' models: every person a client
/// wrote must be in that client's last acknowledged state, every other
/// person in its seed state.
void CheckFinalState(DeductiveDatabase& db, const Population& pop,
                     const std::vector<Generator>& gens, OracleTally* tally) {
  for (Pred pred : {kLa, kWorks, kBenefit, kSkilled}) {
    const std::vector<uint8_t> actual = FactColumn(db, pop, pred);
    size_t mismatches = 0;
    std::string first;
    for (uint32_t i = 0; i < pop.size(); ++i) {
      const int owner = gens[0].OwnerOf(i);
      const bool expected = owner >= 0 ? gens[owner].Holds(pred, i)
                                       : gens[0].Holds(pred, i);
      if (static_cast<bool>(actual[i]) != expected) {
        if (mismatches++ == 0) first = std::string(PredName(pred)) + "(" +
                                       pop.names[i] + ")";
      }
    }
    tally->Check("final_state_matches_model", mismatches == 0, first);
  }
}

Phase RunClosedLoop(Env& env, const Shape& shape, const Population& pop,
                    std::vector<Generator>& gens, double warmup_s,
                    double seconds, bool traced) {
  Phase phase;
  std::vector<ClientShare> shares(shape.clients);
  const int64_t start = NowNs() + 1'000'000;
  const int64_t measure_from = start + static_cast<int64_t>(warmup_s * 1e9);
  const int64_t end = measure_from + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < shape.clients; ++c) {
    threads.emplace_back([&, c] {
      while (NowNs() < start) std::this_thread::yield();
      ClosedLoopClient(*env.clients[c], gens[c], pop, c + 1, measure_from, end,
                       traced, &shares[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  phase.from_ns = measure_from;
  phase.to_ns = end;
  for (ClientShare& share : shares) {
    phase.read.Merge(share.read);
    phase.write.Merge(share.write);
    phase.completions.Merge(share.completions);
    phase.measured_ops += share.measured_ops;
    phase.attempted += share.attempted;
    phase.failed += share.failed;
    phase.acked_writes += share.acked;
    phase.accepted += share.accepted;
    phase.rejected += share.rejected;
    phase.oracles.Merge(share.oracles);
    if (traced) phase.spans.push_back(std::move(share.spans));
  }

  // Oracles over the final state, with the load stopped.
  env.server->Stop();
  DeductiveDatabase& db = *env.db;
  if (env.db->persistence() != nullptr) {
    // Every Apply bumps the version exactly once: a lost or doubled
    // tokened write shows as a count mismatch.
    phase.oracles.Check("tokened_writes_applied_exactly_once",
                        db.version() - env.base_version == phase.acked_writes,
                        std::to_string(db.version() - env.base_version) +
                            " commits for " +
                            std::to_string(phase.acked_writes) + " acks");
  }
  CheckFinalState(db, pop, gens, &phase.oracles);
  if (shape.materialize_unemp) {
    const deddb::SymbolId unemp = db.database().FindPredicate("Unemp").value();
    const deddb::FactStore& stored = db.database().materialized_store();
    const std::vector<uint8_t> la = FactColumn(db, pop, kLa);
    const std::vector<uint8_t> works = FactColumn(db, pop, kWorks);
    size_t derived = 0;
    bool equal = true;
    for (size_t i = 0; i < pop.size(); ++i) {
      const bool rederived = la[i] && !works[i];
      derived += rederived;
      equal &= stored.Contains(
                   unemp, deddb::Tuple{db.symbols().Intern(pop.names[i])}) ==
               rederived;
    }
    const deddb::Relation* relation = stored.Find(unemp);
    equal &= (relation == nullptr ? 0 : relation->size()) == derived;
    phase.oracles.Check("materialized_unemp_equals_rederivation", equal);
  }
  return phase;
}

void SubscriberLoop(Subscriber* subscriber, uint64_t base_version,
                    std::vector<int64_t>* applied_ns,
                    std::atomic<uint64_t>* reached, SpanLog* spans,
                    OracleTally* tally, uint64_t* gaps) {
  size_t next = 0;
  for (;;) {
    Result<Client::PushEvent> push = subscriber->client->AwaitPush();
    if (!push.ok()) break;  // the server stopped
    if (push->is_gap) {
      ++*gaps;
      continue;
    }
    deddb::sub::DeltaBatch batch;
    batch.version = push->delta.version;
    batch.inserts = std::move(push->delta.inserts);
    batch.deletes = std::move(push->delta.deletes);
    const int64_t start = NowNs();
    const Status applied = subscriber->view.Apply(batch);
    const int64_t end = NowNs();
    tally->Check("subview_apply_exact", applied.ok(), applied.ToString());
    if (spans != nullptr) spans->Record(batch.version, "sub.view_apply", start, end);
    // A (possibly coalesced) batch at version v delivers every write whose
    // commit version is at most v.
    const size_t upto = std::min<size_t>(batch.version - base_version,
                                         applied_ns->size());
    for (; next < upto; ++next) (*applied_ns)[next] = end;
    reached->store(batch.version, std::memory_order_release);
  }
}

/// Sorted names of the persons in `tuples` (unary), via `symbols`.
std::vector<std::string> Names(const std::vector<deddb::Tuple>& tuples,
                               const deddb::SymbolTable& symbols) {
  std::vector<std::string> out;
  for (const deddb::Tuple& t : tuples) {
    out.push_back(std::string(symbols.NameOf(t[0])));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Phase RunOpenLoop(Env& env, const Shape& shape, const Population& pop,
                  std::vector<Generator>& gens, double warmup_s,
                  double seconds, bool traced) {
  Phase phase;
  Generator& gen = gens[0];
  Client& writer = *env.clients[0];
  const int64_t period_ns = static_cast<int64_t>(1e9 / shape.writes_per_s);
  const int64_t start = NowNs() + 2'000'000;
  const int64_t measure_from = start + static_cast<int64_t>(warmup_s * 1e9);
  const int64_t end = measure_from + static_cast<int64_t>(seconds * 1e9);
  const size_t max_writes = static_cast<size_t>((end - start) / period_ns) + 1;

  std::vector<int64_t> sched(max_writes), sent(max_writes), acked(max_writes),
      at_replica(max_writes, 0);
  std::vector<uint8_t> relevant(max_writes, 0);
  std::vector<std::vector<int64_t>> at_subscriber(
      env.subscribers.size(), std::vector<int64_t>(max_writes, 0));
  std::vector<std::atomic<uint64_t>> reached(env.subscribers.size());
  std::vector<OracleTally> sub_tallies(env.subscribers.size());
  std::vector<uint64_t> sub_gaps(env.subscribers.size(), 0);
  std::vector<SpanLog> sub_spans(env.subscribers.size());
  for (size_t s = 0; s < env.subscribers.size(); ++s) {
    reached[s].store(env.subscribers[s]->view.version());
    env.threads.emplace_back(SubscriberLoop, env.subscribers[s].get(),
                             env.base_version, &at_subscriber[s], &reached[s],
                             traced ? &sub_spans[s] : nullptr, &sub_tallies[s],
                             &sub_gaps[s]);
  }
  SpanLog writer_spans;

  size_t writes = 0;      // sent
  size_t confirmed = 0;   // acknowledged, in order
  size_t replicated = 0;  // seen applied on the replica
  bool in_order = true;
  auto poll_replica = [&](int64_t now) {
    const uint64_t applied = env.replica->replica_status().applied_seq;
    while (replicated < confirmed &&
           env.base_seq + replicated + 1 <= applied) {
      at_replica[replicated++] = now;
    }
  };
  auto atom = [&writer](const char* pred, const std::string& name) {
    return Result<Atom>(writer.GroundAtom(pred, {name}));
  };
  const uint32_t filtered = *env.subscribers[1]->person;
  uint64_t last_relevant_version = env.subscribers[1]->view.version();

  for (; writes < max_writes; ++writes) {
    const int64_t due = start + static_cast<int64_t>(writes) * period_ns;
    if (due >= end) break;
    const Op op = gen.Next();
    Result<Transaction> txn = BuildTransaction(op, pop, atom);
    if (!txn.ok()) {
      phase.oracles.Check("writes_commit_in_order", false,
                          txn.status().ToString());
      break;
    }
    for (const Event& e : op.events) relevant[writes] |= e.person == filtered;
    // Wait for the slot, polling the replica; sleep coarsely, then spin.
    for (;;) {
      const int64_t now = NowNs();
      poll_replica(now);
      if (now >= due) break;
      if (due - now > 150'000) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      } else {
        std::this_thread::yield();
      }
    }
    sched[writes] = due;
    sent[writes] = NowNs();
    if (traced) {
      phase.records_behind.Add(
          static_cast<double>(env.replica->replica_status().lag()));
    }
    Result<deddb::server::ApplyReply> reply = writer.Apply(*txn);
    acked[writes] = NowNs();
    ++phase.attempted;
    if (!reply.ok()) {
      ++phase.failed;
      in_order = false;
      break;
    }
    const uint64_t expected_version = env.base_version + writes + 1;
    if (reply->version != expected_version) in_order = false;
    if (traced) {
      writer_spans.Record(reply->version, "client.apply", sent[writes],
                          acked[writes]);
    }
    if (relevant[writes]) last_relevant_version = reply->version;
    gen.Acknowledge(op);
    confirmed = writes + 1;
    poll_replica(acked[writes]);
  }
  phase.oracles.Check("writes_commit_in_order", in_order);

  // Drain: every acknowledged write must reach the replica and the views.
  const int64_t give_up = NowNs() + 10'000'000'000;
  bool drained = false;
  while (NowNs() < give_up) {
    poll_replica(NowNs());
    drained = replicated == confirmed &&
              reached[0].load(std::memory_order_acquire) >=
                  env.base_version + confirmed &&
              reached[1].load(std::memory_order_acquire) >=
                  last_relevant_version;
    if (drained) break;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  phase.oracles.Check("replica_and_views_caught_up", drained);

  env.replica->Stop();
  env.server->Stop();
  for (std::thread& t : env.threads) t.join();
  env.threads.clear();

  // Every latency is stamped with its write's slot; the open loop's
  // throughput counts acknowledgements.
  phase.from_ns = measure_from;
  phase.to_ns = end;
  for (size_t i = 0; i < confirmed; ++i) {
    if (sched[i] < measure_from) continue;
    const int64_t due = sched[i];
    ++phase.measured_ops;
    phase.open_loop_s = std::max(phase.open_loop_s, (acked[i] - measure_from) / 1e9);
    phase.completions.Add(0, acked[i]);
    phase.write.Add((acked[i] - due) / 1e3, due);
    phase.wire_write.Add((acked[i] - sent[i]) / 1e3, due);
    phase.late.Add((sent[i] - due) / 1e3, due);
    int64_t visible = std::max(at_subscriber[0][i], at_replica[i]);
    phase.push.Add((at_subscriber[0][i] - due) / 1e3, due);
    if (relevant[i]) {
      visible = std::max(visible, at_subscriber[1][i]);
      phase.push.Add((at_subscriber[1][i] - due) / 1e3, due);
    }
    phase.replica_lag.Add(
        std::max<int64_t>(0, at_replica[i] - acked[i]) / 1e3, due);
    phase.read.Add((visible - due) / 1e3, due);
  }
  phase.acked_writes = confirmed;
  for (size_t s = 0; s < env.subscribers.size(); ++s) {
    phase.oracles.Merge(sub_tallies[s]);
    phase.gaps += sub_gaps[s];
    if (traced) phase.spans.push_back(std::move(sub_spans[s]));
  }
  if (traced) phase.spans.push_back(std::move(writer_spans));
  phase.oracles.Check("no_gap_events", phase.gaps == 0);

  // Final state: the views and the replica against the primary.
  DeductiveDatabase& db = *env.db;
  CheckFinalState(db, pop, gens, &phase.oracles);
  const std::vector<uint8_t> la = FactColumn(db, pop, kLa);
  const std::vector<uint8_t> works = FactColumn(db, pop, kWorks);
  for (const auto& subscriber : env.subscribers) {
    std::vector<std::string> expected;
    for (uint32_t i = 0; i < pop.size(); ++i) {
      if (la[i] && !works[i] &&
          (!subscriber->person || *subscriber->person == i)) {
        expected.push_back(pop.names[i]);
      }
    }
    std::sort(expected.begin(), expected.end());
    phase.oracles.Check(
        "subview_equals_primary",
        Names(subscriber->view.tuples(), subscriber->client->symbols()) ==
            expected);
  }
  for (Pred pred : {kLa, kWorks, kBenefit, kSkilled}) {
    phase.oracles.Check("replica_base_facts_equal_primary",
                        FactColumn(*env.replica_db, pop, pred) ==
                            FactColumn(db, pop, pred),
                        PredName(pred));
  }
  return phase;
}

Phase RunPhase(Env& env, const RunOptions& opts, const Shape& shape,
               const Population& pop, double warmup_s, double seconds,
               bool traced) {
  std::vector<Generator> gens;
  for (size_t c = 0; c < shape.clients; ++c) {
    gens.emplace_back(opts.workload, shape, pop, c, opts.seed);
  }
  return opts.workload == Workload::kCdcFanout
             ? RunOpenLoop(env, shape, pop, gens, warmup_s, seconds, traced)
             : RunClosedLoop(env, shape, pop, gens, warmup_s, seconds, traced);
}

double HistogramMean(const deddb::obs::MetricsRegistry& m,
                     std::string_view name) {
  const auto h = m.histogram(name);
  return Ratio(static_cast<double>(h.sum), static_cast<double>(h.count));
}

/// Per-layer numbers read off the traced phase: the registry attached to
/// the server and the facade, and the benchmark's own timings.
void AddTracedLayers(const Env& env, const Phase& traced,
                     const Phase& untraced, Workload workload,
                     Report* layers) {
  const deddb::obs::MetricsRegistry& m = *env.metrics;
  const double writes = static_cast<double>(
      std::max<uint64_t>(1, traced.acked_writes + traced.rejected));
  layers->Add("server.queue_wait_us", HistogramMean(m, "server.queue_wait_us"),
              "us", m.histogram("server.queue_wait_us").count);
  layers->Add("server.write_exec_us", HistogramMean(m, "server.write_exec_us"),
              "us", m.histogram("server.write_exec_us").count);
  layers->Add("core.snapshots_per_write",
              m.counter("session.snapshots_created") / writes, "ratio");
  layers->Add("core.commit_wait_us",
              m.histogram("session.commit_wait_us").sum / writes, "us",
              m.histogram("session.commit_wait_us").count);
  if (env.db->persistence() != nullptr) {
    const double commits = m.counter("persist.commits_logged");
    layers->Add("persist.fsyncs_per_commit",
                Ratio(m.counter("persist.wal_fsyncs"), commits), "ratio");
    layers->Add("persist.wal_bytes_per_commit",
                Ratio(m.counter("persist.wal_bytes"), commits), "bytes");
  }
  layers->Add("sub.deltas_per_commit",
              Ratio(m.counter("sub.deltas_queued"),
                    m.counter("sub.commits_observed")),
              "ratio");
  layers->Add("sub.coalesced_ratio",
              Ratio(m.counter("sub.deltas_coalesced"),
                    m.counter("sub.deltas_queued")),
              "ratio");
  layers->Add("sub.gap_events", m.counter("sub.gap_events"), "count");
  layers->AddLatency("sub.push", traced.push, traced.from_ns, traced.to_ns);
  layers->AddLatency("repl.lag", traced.replica_lag, traced.from_ns,
                     traced.to_ns);
  layers->Add("repl.records_per_batch",
              Ratio(m.counter("repl.records_applied"),
                    m.counter("repl.batches_applied")),
              "ratio");
  layers->Add("repl.records_behind", traced.records_behind.Mean(), "count",
              traced.records_behind.count());
  layers->Add("bench.generator_late_p99_us",
              traced.late.WindowedPercentile(0.99, traced.from_ns,
                                             traced.to_ns),
              "us", traced.late.count());
  const double overhead =
      workload == Workload::kCdcFanout
          ? Ratio(traced.write_p50() - untraced.write_p50(),
                  untraced.write_p50())
          : Ratio(untraced.ops_per_s() - traced.ops_per_s(),
                  untraced.ops_per_s());
  layers->Add("bench.trace_overhead_pct", overhead * 100, "%");
}

/// The correctness checks each workload must run (a check that never ran
/// fails the run like one that failed).
void ExpectOracles(Workload workload, bool trace, OracleTally* tally) {
  tally->Expect("final_state_matches_model");
  switch (workload) {
    case Workload::kOltpWire:
      tally->Expect("read_unwritten_person_matches_seed");
      tally->Expect("read_own_person_matches_last_ack");
      tally->Expect("tokened_writes_applied_exactly_once");
      break;
    case Workload::kUpdatePipeline:
      tally->Expect("process_verdict_matches_intent");
      tally->Expect("translation_has_alternative");
      tally->Expect("materialized_unemp_equals_rederivation");
      break;
    case Workload::kCdcFanout:
      for (const char* name :
           {"writes_commit_in_order", "replica_and_views_caught_up",
            "subview_apply_exact", "no_gap_events", "subview_equals_primary",
            "replica_base_facts_equal_primary"}) {
        tally->Expect(name);
      }
      break;
  }
  if (trace) tally->Expect("replay_ran");
}

}  // namespace

RunResult RunWorkload(const RunOptions& opts) {
  RunResult result;
  ExpectOracles(opts.workload, opts.trace, &result.oracles);
  const Shape shape = ShapeOf(opts.workload, opts.smoke);
  const auto config = ConfigOf(shape, opts.seed);
  result.provenance =
      ProvenanceJson(opts.source_id, opts.seed, opts.work_dir, shape.persistent);
  auto setup_failed = [&](const Status& status) {
    result.oracles.Check("setup", false, status.ToString());
    return result;
  };
  Result<Population> made_pop = MakePopulation(config);
  if (!made_pop.ok()) return setup_failed(made_pop.status());
  const Population& pop = *made_pop;
  const Generator writer_model(opts.workload, shape, pop, 0, opts.seed);
  // A traced run splits --seconds between the untraced phase, the traced
  // phase and the replay.
  const double phase_s = opts.trace ? opts.seconds / 3 : opts.seconds;
  const double warmup_s = std::min(1.0, 0.2 * phase_s);

  // Untraced: set up several times and report the median, measuring on
  // the last set-up. Half the set-ups run before the measured phase and
  // half after it, so the median spans the whole run rather than one
  // moment of a shared machine.
  Samples setup_s;
  std::unique_ptr<Env> env;
  auto set_up = [&](bool traced) -> Status {
    env.reset();
    const int64_t start = NowNs();
    DEDDB_ASSIGN_OR_RETURN(env, Setup(opts, shape, traced, writer_model));
    setup_s.Add((NowNs() - start) / 1e9);
    return Status::Ok();
  };
  // At least three set-ups per side, more while they take under half a
  // second in all.
  auto set_up_repeatedly = [&]() -> Status {
    const int64_t start = NowNs();
    for (int k = 0; k < 3 || (k < 12 && NowNs() - start < 500'000'000); ++k) {
      DEDDB_RETURN_IF_ERROR(set_up(/*traced=*/false));
    }
    return Status::Ok();
  };
  const bool repeat_setup = !opts.trace && !opts.smoke;
  const Status first = repeat_setup ? set_up_repeatedly() : set_up(false);
  if (!first.ok()) return setup_failed(first);
  Phase untraced =
      RunPhase(*env, opts, shape, pop, warmup_s, phase_s, /*traced=*/false);
  if (repeat_setup) {
    const Status after = set_up_repeatedly();
    if (!after.ok()) return setup_failed(after);
  }
  env.reset();
  result.oracles.Merge(untraced.oracles);
  result.attempted = untraced.attempted;
  result.failed = untraced.failed;

  // The contract's end-to-end metrics. "read" and "write" name each
  // workload's read-class and write-class request (README.md).
  const double setup = setup_s.Percentile(Samples::kBestShare);
  result.e2e.Add("setup_s", setup, "s", setup_s.count());
  result.e2e.Add("ops_per_s", untraced.ops_per_s(), "1/s",
                 untraced.measured_ops);
  const int64_t from = untraced.from_ns, to = untraced.to_ns;
  result.e2e.AddLatency("read", untraced.read, from, to);
  result.e2e.AddLatency("write", untraced.write, from, to);

  // The same numbers under the names each workload's operations carry.
  Report& d = result.detail;
  d.Add("setup_s", setup, "s", setup_s.count());
  d.Add("ops_per_s", untraced.ops_per_s(), "1/s", untraced.measured_ops);
  switch (opts.workload) {
    case Workload::kOltpWire:
      d.AddLatency("read", untraced.read, from, to);
      d.AddLatency("write", untraced.write, from, to);
      break;
    case Workload::kUpdatePipeline:
      d.AddLatency("process", untraced.write, from, to);
      d.AddLatency("translate", untraced.read, from, to);
      d.Add("accepted_share",
            Ratio(untraced.accepted, untraced.accepted + untraced.rejected),
            "ratio");
      break;
    case Workload::kCdcFanout:
      d.AddLatency("write", untraced.write, from, to);
      d.AddLatency("push", untraced.push, from, to);
      d.AddLatency("replica_lag", untraced.replica_lag, from, to);
      d.AddLatency("visible", untraced.read, from, to);
      d.Add("generator_late_p99_us",
            untraced.late.WindowedPercentile(0.99, from, to), "us",
            untraced.late.count());
      break;
  }
  d.Add("failed_ops_ratio",
        Ratio(untraced.failed, std::max<uint64_t>(1, untraced.attempted)),
        "ratio");

  if (opts.trace) {
    const Status traced_setup = set_up(/*traced=*/true);
    if (!traced_setup.ok()) return setup_failed(traced_setup);
    Phase traced =
        RunPhase(*env, opts, shape, pop, warmup_s, phase_s, /*traced=*/true);
    result.oracles.Merge(traced.oracles);
    result.attempted += traced.attempted;
    result.failed += traced.failed;
    AddTracedLayers(*env, traced, untraced, opts.workload, &result.layers);
    result.registry_json = env->metrics->ToJson();
    for (SpanLog& log : traced.spans) result.spans.push_back(std::move(log));
    env.reset();

    result.spans.emplace_back();
    ReplayInput replay;
    replay.workload = opts.workload;
    replay.shape = shape;
    replay.pop = &pop;
    replay.seed = opts.seed;
    replay.budget_s = phase_s;
    replay.max_ops = opts.smoke ? 200 : 2000;
    replay.scratch_dir = opts.work_dir + "/replay-" +
                         std::to_string(::getpid());
    replay.spans = &result.spans.back();
    Status replayed = RunReplay(replay, &result.layers);
    result.oracles.Check("replay_ran", replayed.ok(), replayed.ToString());

    // The wire's share of the read-class request: traced wire latency
    // minus the same call made in-process by the replay.
    double in_process = 0;
    double wire = traced.read.WindowedPercentile(0.5, traced.from_ns,
                                                 traced.to_ns);
    switch (opts.workload) {
      case Workload::kOltpWire:
        in_process = result.layers.Get("eval.solve_us");
        break;
      case Workload::kUpdatePipeline:
        in_process = result.layers.Get("interp.downward_us");
        break;
      case Workload::kCdcFanout:
        wire = traced.wire_write.WindowedPercentile(0.5, traced.from_ns,
                                                    traced.to_ns);
        in_process = result.layers.Get("core.apply_us") +
                     result.layers.Get("persist.log_commit_us");
        break;
    }
    result.layers.Add("server.wire_overhead_us", wire - in_process, "us");
  }
  result.correct = result.oracles.AllPassed();
  return result;
}

}  // namespace perfbench
