#include "replay.h"

#include <filesystem>
#include <memory>

#include "core/deductive_database.h"
#include "core/update_processor.h"
#include "obs/metrics.h"
#include "persist/manager.h"
#include "server/protocol.h"
#include "sub/manager.h"
#include "sub/view.h"

namespace perfbench {

using deddb::Atom;
using deddb::DeductiveDatabase;
using deddb::Result;
using deddb::Status;
using deddb::Transaction;
namespace proto = deddb::server;

namespace {

size_t FrameBytes(std::string_view payload) {
  std::string frame;
  proto::AppendFrame(proto::FrameType::kQuery, 1, payload, &frame);
  return frame.size();
}

Result<std::unique_ptr<DeductiveDatabase>> Copy(
    const deddb::workload::EmploymentConfig& config) {
  DEDDB_ASSIGN_OR_RETURN(auto db,
                         deddb::workload::MakeEmploymentDatabase(config));
  if (config.materialize_unemp) {
    DEDDB_RETURN_IF_ERROR(db->InitializeMaterializedViews());
  }
  DEDDB_RETURN_IF_ERROR(db->Compiled().status());
  return db;
}

Result<Transaction> TransactionIn(DeductiveDatabase& db, const Op& op,
                                  const Population& pop) {
  return BuildTransaction(op, pop, [&db](const char* pred,
                                         const std::string& name) {
    return db.GroundAtom(pred, {name});
  });
}

/// Runs one workload stream against private copies, timing each layer.
class Replayer {
 public:
  Replayer(const ReplayInput& in) : in_(in), pop_(*in.pop) {}

  Status Run(Report* layers);

 private:
  Status Query(const Op& op);
  Status Translate(const Op& op);
  Status Write(const Op& op, Generator* gen);
  Status Repin();
  /// Client-side cost of one request: encode the request, decode the reply
  /// the server would send (encoded untimed, in the server's symbols).
  template <typename EncodeRequest, typename DecodeReply>
  void Codec(const std::string& reply_bytes, EncodeRequest encode,
             DecodeReply decode);

  const ReplayInput& in_;
  const Population& pop_;
  deddb::obs::MetricsRegistry metrics_;
  deddb::obs::MetricsRegistry wal_metrics_;
  std::unique_ptr<DeductiveDatabase> main_;    // follows the stream
  std::unique_ptr<DeductiveDatabase> shadow_;  // the other write path
  std::unique_ptr<DeductiveDatabase> taxed_;   // Apply with a CDC observer
  std::unique_ptr<deddb::Session> session_;
  std::unique_ptr<deddb::sub::SubscriptionManager> manager_;
  deddb::sub::SubView view_;
  std::unique_ptr<deddb::persist::PersistenceManager> wal_;
  deddb::SymbolTable client_symbols_;
  uint64_t trace_ = 0;

  Samples solve_, apply_, process_, upward_, downward_, begin_, codec_,
      bytes_, log_commit_, taxed_apply_, view_apply_, repl_apply_, compile_;
};

template <typename EncodeRequest, typename DecodeReply>
void Replayer::Codec(const std::string& reply_bytes, EncodeRequest encode,
                     DecodeReply decode) {
  const int64_t start = NowNs();
  const std::string request_bytes = encode();
  const bool decoded = decode(reply_bytes);
  const int64_t end = NowNs();
  if (decoded) codec_.Add((end - start) / 1e3);
  in_.spans->Record(trace_, "replay.codec", start, end);
  bytes_.Add(static_cast<double>(FrameBytes(request_bytes) +
                                 FrameBytes(reply_bytes)));
}

Status Replayer::Repin() {
  const int64_t start = NowNs();
  DEDDB_ASSIGN_OR_RETURN(session_, main_->BeginSession());
  const int64_t end = NowNs();
  begin_.Add((end - start) / 1e3);
  in_.spans->Record(trace_, "replay.begin_session", start, end);
  // Sessions start with observability stripped; count this one's work.
  session_->upward_options().eval.obs = {nullptr, &metrics_};
  session_->downward_options().eval.obs = {nullptr, &metrics_};
  return Status::Ok();
}

Status Replayer::Query(const Op& op) {
  const std::string& name = pop_.names[op.person];
  DEDDB_ASSIGN_OR_RETURN(Atom pattern, session_->GroundAtom("Unemp", {name}));
  const int64_t start = NowNs();
  DEDDB_ASSIGN_OR_RETURN(std::vector<deddb::Tuple> answers,
                         session_->Solve(pattern));
  const int64_t end = NowNs();
  solve_.Add((end - start) / 1e3);
  in_.spans->Record(trace_, "replay.solve", start, end);

  proto::QueryReply reply;
  reply.version = session_->version();
  reply.answers.push_back(std::move(answers));
  const std::string reply_bytes =
      proto::EncodeQueryReply(reply, main_->symbols());
  Codec(
      reply_bytes,
      [&] {
        proto::QueryRequest request;
        request.patterns.push_back(
            Atom(client_symbols_.Intern("Unemp"),
                 {deddb::Term::MakeConstant(client_symbols_.Intern(name))}));
        return proto::EncodeQueryRequest(request, client_symbols_);
      },
      [&](const std::string& bytes) {
        return proto::DecodeQueryReply(bytes, &client_symbols_).ok();
      });
  return Status::Ok();
}

Status Replayer::Translate(const Op& op) {
  const deddb::UpdateRequest request =
      BuildUpdateRequest(op, pop_, main_->symbols());
  const int64_t start = NowNs();
  DEDDB_ASSIGN_OR_RETURN(deddb::problems::DownwardResult result,
                         session_->TranslateViewUpdate(request));
  const int64_t end = NowNs();
  downward_.Add((end - start) / 1e3);
  in_.spans->Record(trace_, "replay.translate", start, end);
  if (result.translations.empty()) {
    return deddb::InternalError("replayed translation has no alternative");
  }

  proto::TranslateReply reply;
  reply.approximate = result.approximate;
  for (const auto& translation : result.translations) {
    reply.alternatives.push_back(translation.transaction);
  }
  const std::string reply_bytes =
      proto::EncodeTranslateReply(reply, main_->symbols());
  Codec(
      reply_bytes,
      [&] {
        proto::TranslateRequest wire;
        wire.request = BuildUpdateRequest(op, pop_, client_symbols_);
        return proto::EncodeTranslateRequest(wire, client_symbols_);
      },
      [&](const std::string& bytes) {
        return proto::DecodeTranslateReply(bytes, &client_symbols_).ok();
      });
  return Status::Ok();
}

Status Replayer::Write(const Op& op, Generator* gen) {
  DEDDB_ASSIGN_OR_RETURN(Transaction txn, TransactionIn(*main_, op, pop_));
  DEDDB_ASSIGN_OR_RETURN(Transaction shadow_txn,
                         TransactionIn(*shadow_, op, pop_));

  // The upward interpretation of the transaction, against the pinned state.
  int64_t start = NowNs();
  DEDDB_RETURN_IF_ERROR(session_->InducedEvents(txn).status());
  int64_t end = NowNs();
  upward_.Add((end - start) / 1e3);
  in_.spans->Record(trace_, "replay.induced_events", start, end);

  // The workload's own write path on main_, the other one on shadow_.
  bool committed = true;
  std::string reply_bytes;
  auto time_apply = [&](DeductiveDatabase& db, const Transaction& t) {
    const int64_t s = NowNs();
    Status st = db.Apply(t);
    const int64_t e = NowNs();
    apply_.Add((e - s) / 1e3);
    in_.spans->Record(trace_, "replay.apply", s, e);
    return st;
  };
  auto time_process =
      [&](DeductiveDatabase& db,
          const Transaction& t) -> Result<deddb::UpdateProcessor::TransactionReport> {
    deddb::UpdateProcessor processor(&db);
    const int64_t s = NowNs();
    auto report = processor.ProcessTransaction(t);
    const int64_t e = NowNs();
    process_.Add((e - s) / 1e3);
    in_.spans->Record(trace_, "replay.process", s, e);
    return report;
  };
  if (op.kind == OpKind::kProcess) {
    DEDDB_ASSIGN_OR_RETURN(auto report, time_process(*main_, txn));
    if (report.accepted != op.expect_accepted) {
      return deddb::InternalError("replayed verdict differs from intent");
    }
    committed = report.accepted;
    if (committed) DEDDB_RETURN_IF_ERROR(time_apply(*shadow_, shadow_txn));
    proto::ProcessReply reply{main_->version(), report.accepted, ""};
    reply_bytes = proto::EncodeProcessReply(reply);
  } else {
    DEDDB_RETURN_IF_ERROR(time_apply(*main_, txn));
    DEDDB_ASSIGN_OR_RETURN(auto report, time_process(*shadow_, shadow_txn));
    if (!report.accepted) {
      return deddb::InternalError("a constraint-preserving move was rejected");
    }
    reply_bytes = proto::EncodeApplyReply(proto::ApplyReply{main_->version()});
  }
  Codec(
      reply_bytes,
      [&] {
        auto client_txn = BuildTransaction(
            op, pop_, [this](const char* pred, const std::string& name) {
              return Result<Atom>(Atom(
                  client_symbols_.Intern(pred),
                  {deddb::Term::MakeConstant(client_symbols_.Intern(name))}));
            });
        if (op.kind == OpKind::kProcess) {
          proto::ProcessRequest request;
          request.transaction = std::move(*client_txn);
          return proto::EncodeProcessRequest(request, client_symbols_);
        }
        proto::ApplyRequest request;
        request.transaction = std::move(*client_txn);
        return proto::EncodeApplyRequest(request, client_symbols_);
      },
      [&](const std::string& bytes) {
        return op.kind == OpKind::kProcess
                   ? proto::DecodeProcessReply(bytes).ok()
                   : proto::DecodeApplyReply(bytes).ok();
      });
  if (!committed) return Status::Ok();
  gen->Acknowledge(op);
  DEDDB_RETURN_IF_ERROR(Repin());

  // The CDC writer tax: the same Apply with a subscription registered.
  DEDDB_ASSIGN_OR_RETURN(Transaction taxed_txn,
                         TransactionIn(*taxed_, op, pop_));
  start = NowNs();
  DEDDB_RETURN_IF_ERROR(taxed_->Apply(taxed_txn));
  end = NowNs();
  taxed_apply_.Add((end - start) / 1e3);
  in_.spans->Record(trace_, "replay.apply_observed", start, end);
  if (manager_->Stats().queued_batches > 0) {
    std::optional<deddb::sub::PushItem> item = manager_->WaitPop();
    if (item && !item->is_gap) {
      start = NowNs();
      DEDDB_RETURN_IF_ERROR(view_.Apply(item->batch));
      end = NowNs();
      view_apply_.Add((end - start) / 1e3);
      in_.spans->Record(trace_, "replay.view_apply", start, end);
    }
  }

  // The commit record, through a scratch log with the same flush policy.
  start = NowNs();
  DEDDB_ASSIGN_OR_RETURN(
      uint64_t seq,
      wal_->LogCommit(txn, deddb::persist::CommitOrigin::kDirect,
                      main_->symbols(), {nullptr, &wal_metrics_}));
  end = NowNs();
  log_commit_.Add((end - start) / 1e3);
  in_.spans->Record(trace_, "replay.log_commit", start, end);
  wal_->SettleCommit(seq);
  return Status::Ok();
}

Status Replayer::Run(Report* layers) {
  const auto config = ConfigOf(in_.shape, in_.seed);
  // Only main_ keeps the workload's materialized view: Apply does not
  // maintain one, and the observer must see an exact view.
  auto plain = config;
  plain.materialize_unemp = false;
  DEDDB_ASSIGN_OR_RETURN(main_, Copy(config));
  DEDDB_ASSIGN_OR_RETURN(shadow_, Copy(plain));
  DEDDB_ASSIGN_OR_RETURN(taxed_, Copy(plain));
  main_->set_observability({nullptr, &metrics_});

  // A derived standing query on the taxed copy, with its client-side view.
  manager_ = std::make_unique<deddb::sub::SubscriptionManager>();
  deddb::sub::SubscriptionSpec spec;
  DEDDB_ASSIGN_OR_RETURN(spec.predicate,
                         taxed_->database().FindPredicate("Unemp"));
  spec.filter = {std::nullopt};
  spec.derived = true;
  spec.policy = deddb::sub::OverflowPolicy::kCoalesce;
  const uint64_t sub_id = manager_->Register(spec, /*owner=*/1);
  taxed_->set_commit_observer(manager_.get());
  {
    DEDDB_ASSIGN_OR_RETURN(auto pinned, taxed_->BeginSession());
    DEDDB_ASSIGN_OR_RETURN(Atom all, pinned->MakeAtom(
                                         "Unemp", {pinned->Variable("x")}));
    DEDDB_ASSIGN_OR_RETURN(std::vector<deddb::Tuple> tuples,
                           pinned->Solve(all));
    view_.Reset(pinned->version(), std::move(tuples));
    manager_->Activate(sub_id, pinned->version());
  }

  std::filesystem::remove_all(in_.scratch_dir);
  std::filesystem::create_directories(in_.scratch_dir);
  DEDDB_ASSIGN_OR_RETURN(
      wal_, deddb::persist::PersistenceManager::Open(
                in_.scratch_dir,
                deddb::persist::PersistenceManager::Options{
                    .group_commit = true}));
  deddb::Database scratch;
  DEDDB_RETURN_IF_ERROR(wal_->RestoreSnapshotInto(&scratch));
  DEDDB_RETURN_IF_ERROR(wal_->ReadLogForRecovery(&scratch.symbols()).status());
  DEDDB_RETURN_IF_ERROR(wal_->OpenLogForAppend());

  DEDDB_RETURN_IF_ERROR(Repin());
  begin_ = Samples();  // only re-pins right after a commit count

  // The sampled stream, then supplements for request kinds the workload
  // does not send (so every layer has a number on every workload).
  Generator gen(in_.workload, in_.shape, pop_, 0, in_.seed);
  const int64_t deadline = NowNs() + static_cast<int64_t>(in_.budget_s * 1e9);
  size_t ops = 0;
  bool queried = false, translated = false;
  for (; ops < in_.max_ops && NowNs() < deadline; ++ops, ++trace_) {
    const Op op = gen.Next();
    switch (op.kind) {
      case OpKind::kQuery:
        queried = true;
        DEDDB_RETURN_IF_ERROR(Query(op));
        break;
      case OpKind::kTranslate:
        translated = true;
        DEDDB_RETURN_IF_ERROR(Translate(op));
        break;
      case OpKind::kApply:
      case OpKind::kProcess:
        DEDDB_RETURN_IF_ERROR(Write(op, &gen));
        break;
    }
  }
  const size_t supplement = std::max<size_t>(1, ops / 4);
  for (size_t i = 0; !queried && i < supplement; ++i, ++trace_) {
    DEDDB_RETURN_IF_ERROR(Query(gen.Query()));
  }
  for (size_t i = 0; !translated && i < supplement; ++i, ++trace_) {
    DEDDB_RETURN_IF_ERROR(Translate(gen.Translate()));
  }
  const double replayed_ops = static_cast<double>(ops);

  // Replica apply, per record the scratch log would ship.
  DEDDB_ASSIGN_OR_RETURN(auto batch,
                         wal_->ReadFeedRecords(0, 1u << 20, 1u << 30));
  DEDDB_ASSIGN_OR_RETURN(auto replica, Copy(plain));
  DEDDB_RETURN_IF_ERROR(replica->EnterReplicaMode());
  for (const auto& record : batch.records) {
    const int64_t start = NowNs();
    DEDDB_RETURN_IF_ERROR(replica->ApplyReplicated(record.payload).status());
    const int64_t end = NowNs();
    repl_apply_.Add((end - start) / 1e3);
    in_.spans->Record(record.seq, "replay.apply_replicated", start, end);
  }

  // Event compilation on fresh facades (schema only).
  auto schema_only = plain;
  schema_only.people = 0;
  for (int i = 0; i < 5; ++i) {
    DEDDB_ASSIGN_OR_RETURN(auto fresh,
                           deddb::workload::MakeEmploymentDatabase(schema_only));
    const int64_t start = NowNs();
    DEDDB_RETURN_IF_ERROR(fresh->Compiled().status());
    const int64_t end = NowNs();
    compile_.Add((end - start) / 1e3);
    in_.spans->Record(i, "replay.compile", start, end);
  }

  const deddb::obs::MetricsRegistry& m = metrics_;
  layers->Add("server.codec_us", codec_.Median(), "us", codec_.count());
  layers->Add("server.bytes_per_op", bytes_.Mean(), "bytes", bytes_.count());
  layers->Add("core.begin_session_us", begin_.Median(), "us", begin_.count());
  layers->Add("core.apply_us", apply_.Median(), "us", apply_.count());
  layers->Add("core.process_us", process_.Median(), "us", process_.count());
  layers->Add("eval.solve_us", solve_.Median(), "us", solve_.count());
  const double indexed = m.counter("planner.indexed_steps");
  layers->Add("eval.indexed_step_ratio",
              Ratio(indexed, indexed + m.counter("planner.scanned_steps")),
              "ratio");
  layers->Add("eval.rule_firings_per_op",
              Ratio(m.counter("eval.rule_firings"), replayed_ops), "count");
  layers->Add("interp.upward_us", upward_.Median(), "us", upward_.count());
  layers->Add("interp.upward_hit_ratio",
              Ratio(m.counter("upward.events_found"),
                    m.counter("upward.candidates_checked")),
              "ratio");
  layers->Add("interp.downward_us", downward_.Median(), "us",
              downward_.count());
  layers->Add("interp.downward_branches_per_disjunct",
              Ratio(m.counter("downward.branches_explored"),
                    m.histogram("downward.result_disjuncts").sum),
              "ratio");
  layers->Add("interp.dnf_conjuncts_per_disjunct",
              Ratio(m.counter("dnf.conjuncts_built"),
                    m.histogram("dnf.result_disjuncts").sum),
              "ratio");
  layers->Add("events.compile_us", compile_.Median(), "us", compile_.count());
  layers->Add("persist.log_commit_us", log_commit_.Median(), "us",
              log_commit_.count());
  if (!layers->Has("persist.fsyncs_per_commit")) {
    const double commits = wal_metrics_.counter("persist.commits_logged");
    layers->Add("persist.fsyncs_per_commit",
                Ratio(wal_metrics_.counter("persist.wal_fsyncs"), commits),
                "ratio");
    layers->Add("persist.wal_bytes_per_commit",
                Ratio(wal_metrics_.counter("persist.wal_bytes"), commits),
                "bytes");
  }
  layers->Add("sub.commit_tax_us", taxed_apply_.Median() - apply_.Median(),
              "us", taxed_apply_.count());
  layers->Add("sub.view_apply_us", view_apply_.Median(), "us",
              view_apply_.count());
  layers->Add("repl.apply_us", repl_apply_.Median(), "us",
              repl_apply_.count());

  taxed_->set_commit_observer(nullptr);
  manager_->Shutdown();
  return Status::Ok();
}

}  // namespace

Status RunReplay(const ReplayInput& in, Report* layers) {
  Status status;
  {
    Replayer replayer(in);
    status = replayer.Run(layers);
  }
  std::error_code ignored;
  std::filesystem::remove_all(in.scratch_dir, ignored);
  return status;
}

}  // namespace perfbench
