#include "core/deductive_database.h"

#include <chrono>

#include "core/update_processor.h"
#include "eval/index_advisor.h"
#include "obs/metrics.h"
#include "util/strings.h"

namespace deddb {

namespace {

// The events of `predicates` alone, out of a pass that computed more.
DerivedEvents EventsFor(const DerivedEvents& events,
                        const std::vector<SymbolId>& predicates) {
  DerivedEvents out;
  for (SymbolId pred : predicates) {
    if (const Relation* r = events.inserts.Find(pred)) {
      r->ForEach([&](const Tuple& t) { out.inserts.Add(pred, t); });
    }
    if (const Relation* r = events.deletes.Find(pred)) {
      r->ForEach([&](const Tuple& t) { out.deletes.Add(pred, t); });
    }
  }
  return out;
}

}  // namespace

DeductiveDatabase::DeductiveDatabase(EventCompilerOptions compiler_options)
    : compiler_options_(compiler_options) {}

// ---- Snapshot sessions ------------------------------------------------------

Result<std::unique_ptr<Session>> DeductiveDatabase::BeginSession() {
  const obs::ObsContext obs = observability();
  std::lock_guard<std::mutex> lock(commit_mu_);
  std::shared_ptr<const SessionState> state;
  if (snapshot_cache_ != nullptr && snapshot_cache_->version == version_) {
    state = snapshot_cache_;  // same committed state: share the snapshot
  } else {
    auto fresh = std::make_shared<SessionState>(session_registry_);
    fresh->version = version_;
    fresh->db = db_.CloneSnapshot();
    fresh->extra_domain_constants = extra_domain_constants_;
    if (compiled_ != nullptr) {
      // Shared, not copied: the clone's predicate table already carries the
      // variants this compilation registered.
      fresh->compiled = compiled_;
    } else {
      // Compile on the clone, pre-publication: variant registration mutates
      // the clone's predicate table, which no session shares yet (the live
      // table is the writer's). The owner's sinks stay out of it (a later
      // session would replay nothing).
      EventCompilerOptions options = compiler_options_;
      options.obs = {};
      EventCompiler compiler(fresh->db.get(), options);
      Result<CompiledEvents> compiled = compiler.Compile();
      if (compiled.ok()) {
        fresh->compiled =
            std::make_shared<const CompiledEvents>(std::move(*compiled));
      } else {
        // Not fatal: queries don't need event rules. Session methods that
        // do will report this status.
        fresh->compile_status = compiled.status();
      }
    }
    snapshot_cache_ = fresh;
    state = std::move(fresh);
    obs::MetricsRegistry::Add(obs.metrics, "session.snapshots_created");
  }
  // Sessions run on their own threads: give them the owner's evaluation
  // options minus the shared sinks and guard (both are single-consumer).
  UpwardOptions upward = upward_options_;
  upward.eval.obs = {};
  upward.eval.guard = nullptr;
  DownwardOptions downward = downward_options_;
  downward.eval.obs = {};
  downward.eval.guard = nullptr;
  auto session = std::unique_ptr<Session>(
      new Session(std::move(state), upward, downward));
  obs::MetricsRegistry::Add(obs.metrics, "session.begun");
  obs::MetricsRegistry::Set(
      obs.metrics, "session.active",
      static_cast<int64_t>(
          session_registry_->active.load(std::memory_order_relaxed)));
  obs::MetricsRegistry::Set(obs.metrics, "session.live_versions",
                            static_cast<int64_t>(live_session_versions()));
  return session;
}

uint64_t DeductiveDatabase::version() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return version_;
}

Result<std::unique_ptr<DeductiveDatabase>> DeductiveDatabase::OpenPersistent(
    const std::string& dir, PersistOptions persist_options,
    EventCompilerOptions compiler_options) {
  auto db = std::make_unique<DeductiveDatabase>(compiler_options);
  DEDDB_ASSIGN_OR_RETURN(
      std::unique_ptr<persist::PersistenceManager> manager,
      persist::PersistenceManager::Open(
          dir, persist::PersistenceManager::Options{
                   persist_options.group_commit}));
  DEDDB_RETURN_IF_ERROR(manager->RestoreSnapshotInto(&db->db_));
  // A decoded snapshot carries tuples but no index declarations; re-derive
  // them from the restored program before replaying the log.
  DeclareAdvisedIndexes(db->db_.program(), &db->db_.mutable_facts());
  DEDDB_ASSIGN_OR_RETURN(std::vector<persist::WalRecord> records,
                         manager->ReadLogForRecovery(&db->db_.symbols()));
  // Replay each surviving commit through the path that produced it, so the
  // recovered in-memory state (including materialized views) re-converges to
  // the state at the crash. persistence_ is still null here, which is what
  // keeps replayed commits from being logged a second time.
  for (const persist::WalRecord& record : records) {
    DEDDB_RETURN_IF_ERROR(db->ReplayWalRecord(record));
  }
  DEDDB_RETURN_IF_ERROR(manager->OpenLogForAppend());
  db->persistence_ = std::move(manager);
  return db;
}

Status DeductiveDatabase::Checkpoint() {
  if (persistence_ == nullptr) {
    return FailedPreconditionError(
        "Checkpoint() requires a database opened with OpenPersistent");
  }
  std::lock_guard<std::mutex> lock(commit_mu_);
  DEDDB_RETURN_IF_ERROR(commit_health_);
  return persistence_->Checkpoint(db_, observability());
}

Status DeductiveDatabase::Close() {
  if (persistence_ == nullptr) return Status::Ok();
  std::lock_guard<std::mutex> lock(commit_mu_);
  Status status = commit_health_.ok()
                      ? persistence_->Checkpoint(db_, observability())
                      : commit_health_;
  persistence_.reset();
  return status;
}

Status DeductiveDatabase::ReplayWalRecord(const persist::WalRecord& record) {
  // The record was only written after the original commit passed its gate,
  // so a failure or a rejection here means the log does not match the state.
  // Commit also re-arms the record's token: a client retrying across the
  // crash (or failing over to a replica) still gets a dedup hit.
  Result<CommitResult> replayed =
      Commit(record.transaction, record.origin, record.token);
  if (!replayed.ok()) {
    return CorruptionError(
        StrCat("replaying logged transaction ", record.seq,
               " failed (was the schema checkpointed before committing?): ",
               replayed.status().ToString()));
  }
  if (!replayed->accepted) {
    return CorruptionError(
        StrCat("logged transaction ", record.seq,
               " was rejected on replay; the log does not match the "
               "snapshot"));
  }
  return Status::Ok();
}

Status DeductiveDatabase::ReplicaRefusal() const {
  return FailedPreconditionError(
      "read-only replica: local mutation refused; write to the primary");
}

Status DeductiveDatabase::EnterReplicaMode() {
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (replica_mode_.load(std::memory_order_relaxed)) {
    return FailedPreconditionError("already in replica mode");
  }
  DEDDB_RETURN_IF_ERROR(commit_health_);
  if (persistence_ != nullptr) {
    // Seeded from a copied primary checkpoint: the replay cursor starts at
    // the recovered sequence. The manager is dropped without a checkpoint —
    // a replica never writes locally. Its commits carry the primary's
    // sequence numbers, which the applied cursor tracks; a local
    // PrepareCommit would number the replayed commits itself instead.
    replica_applied_seq_.store(persistence_->stats().last_seq,
                               std::memory_order_release);
    persistence_.reset();
  }
  replica_mode_.store(true, std::memory_order_release);
  return Status::Ok();
}

Result<uint64_t> DeductiveDatabase::ApplyReplicated(
    std::string_view wal_payload) {
  if (!replica_mode()) {
    return FailedPreconditionError(
        "ApplyReplicated requires EnterReplicaMode()");
  }
  // One applier at a time: the cursor check and advance bracket the replay,
  // which alone holds commit_mu_.
  std::lock_guard<std::mutex> apply_lock(replica_apply_mu_);
  DEDDB_ASSIGN_OR_RETURN(
      persist::WalRecord record,
      persist::DecodeWalRecordPayload(wal_payload, &db_.symbols()));
  if (record.type != persist::RecordType::kCommit) {
    return CorruptionError(StrCat(
        "the feed shipped a non-commit record (seq ", record.seq,
        "); aborted commits are filtered on the primary"));
  }
  const uint64_t applied = replica_applied_seq();
  if (record.seq <= applied) {
    return FailedPreconditionError(
        StrCat("replicated record ", record.seq,
               " is not ahead of the applied cursor ", applied,
               "; resume the feed from the cursor"));
  }
  DEDDB_RETURN_IF_ERROR(ReplayWalRecord(record));
  replica_applied_seq_.store(record.seq, std::memory_order_release);
  return version();
}

Result<SymbolId> DeductiveDatabase::DeclareBase(std::string_view name,
                                                size_t arity) {
  if (replica_mode()) return ReplicaRefusal();
  std::lock_guard<std::mutex> lock(commit_mu_);
  InvalidateCompiled();
  MarkMutatedLocked();
  NotifyBarrierLocked();
  return db_.DeclareBase(name, arity);
}

Result<SymbolId> DeductiveDatabase::DeclareDerived(std::string_view name,
                                                   size_t arity) {
  if (replica_mode()) return ReplicaRefusal();
  std::lock_guard<std::mutex> lock(commit_mu_);
  InvalidateCompiled();
  MarkMutatedLocked();
  NotifyBarrierLocked();
  return db_.DeclareDerived(name, arity, PredicateSemantics::kPlain);
}

Result<SymbolId> DeductiveDatabase::DeclareView(std::string_view name,
                                                size_t arity) {
  if (replica_mode()) return ReplicaRefusal();
  std::lock_guard<std::mutex> lock(commit_mu_);
  InvalidateCompiled();
  MarkMutatedLocked();
  NotifyBarrierLocked();
  return db_.DeclareDerived(name, arity, PredicateSemantics::kView);
}

Result<SymbolId> DeductiveDatabase::DeclareConstraint(std::string_view name,
                                                      size_t arity) {
  if (replica_mode()) return ReplicaRefusal();
  std::lock_guard<std::mutex> lock(commit_mu_);
  InvalidateCompiled();
  MarkMutatedLocked();
  NotifyBarrierLocked();
  return db_.DeclareDerived(name, arity, PredicateSemantics::kIc);
}

Result<SymbolId> DeductiveDatabase::DeclareCondition(std::string_view name,
                                                     size_t arity) {
  if (replica_mode()) return ReplicaRefusal();
  std::lock_guard<std::mutex> lock(commit_mu_);
  InvalidateCompiled();
  MarkMutatedLocked();
  NotifyBarrierLocked();
  return db_.DeclareDerived(name, arity, PredicateSemantics::kCondition);
}

Status DeductiveDatabase::AddRule(Rule rule) {
  if (replica_mode()) return ReplicaRefusal();
  std::lock_guard<std::mutex> lock(commit_mu_);
  InvalidateCompiled();
  MarkMutatedLocked();
  NotifyBarrierLocked();
  DEDDB_RETURN_IF_ERROR(db_.AddRule(std::move(rule)));
  // Keep the EDB's composite indexes in step with the program's join shapes;
  // declared masks survive COW commits and are maintained incrementally from
  // here on (never rebuilt on Apply).
  DeclareAdvisedIndexes(db_.program(), &db_.mutable_facts());
  return Status::Ok();
}

Status DeductiveDatabase::AddFact(const Atom& ground_atom) {
  if (replica_mode()) return ReplicaRefusal();
  std::lock_guard<std::mutex> lock(commit_mu_);
  InvalidateDomain();
  MarkMutatedLocked();
  NotifyBarrierLocked();
  return db_.AddFact(ground_atom);
}

Status DeductiveDatabase::RemoveFact(const Atom& ground_atom) {
  if (replica_mode()) return ReplicaRefusal();
  std::lock_guard<std::mutex> lock(commit_mu_);
  InvalidateDomain();
  MarkMutatedLocked();
  NotifyBarrierLocked();
  return db_.RemoveFact(ground_atom);
}

Status DeductiveDatabase::MaterializeView(SymbolId view) {
  if (replica_mode()) return ReplicaRefusal();
  std::lock_guard<std::mutex> lock(commit_mu_);
  MarkMutatedLocked();
  NotifyBarrierLocked();
  return db_.MaterializeView(view);
}

Term DeductiveDatabase::Constant(std::string_view name) {
  return Term::MakeConstant(db_.symbols().Intern(name));
}

Term DeductiveDatabase::Variable(std::string_view name) {
  return Term::MakeVariable(db_.symbols().InternVar(name));
}

Result<Atom> DeductiveDatabase::MakeAtom(std::string_view predicate,
                                         std::vector<Term> args) {
  return MakeAtomIn(db_, predicate, std::move(args));
}

Result<Atom> DeductiveDatabase::GroundAtom(
    std::string_view predicate, std::vector<std::string_view> constants) {
  std::vector<Term> args;
  args.reserve(constants.size());
  for (std::string_view c : constants) args.push_back(Constant(c));
  return MakeAtom(predicate, std::move(args));
}

Result<Transaction> DeductiveDatabase::MakeTransaction(
    std::vector<std::pair<Op, Atom>> events) {
  Transaction txn;
  for (const auto& [op, atom] : events) {
    DEDDB_ASSIGN_OR_RETURN(PredicateInfo info,
                           db_.predicates().Get(atom.predicate()));
    if (info.kind != PredicateKind::kBase) {
      return InvalidArgumentError(
          StrCat("transactions consist of base fact updates; '",
                 atom.ToString(db_.symbols()), "' is derived"));
    }
    if (op == Op::kInsert) {
      DEDDB_RETURN_IF_ERROR(txn.AddInsert(atom));
    } else {
      DEDDB_RETURN_IF_ERROR(txn.AddDelete(atom));
    }
  }
  return txn;
}

Status DeductiveDatabase::Apply(const Transaction& transaction) {
  return Apply(transaction, persist::CommitToken{});
}

Status DeductiveDatabase::Apply(const Transaction& transaction,
                                const persist::CommitToken& token) {
  if (replica_mode()) return ReplicaRefusal();
  return Commit(transaction, persist::CommitOrigin::kDirect, token).status();
}

DedupResult DeductiveDatabase::LookupCommitToken(
    const persist::CommitToken& token) const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return dedup_.Lookup(token);
}

Status DeductiveDatabase::commit_health() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return commit_health_;
}

Result<DeductiveDatabase::CommitResult> DeductiveDatabase::Commit(
    const Transaction& transaction, persist::CommitOrigin origin,
    const persist::CommitToken& token, bool apply) {
  const bool checked = origin == persist::CommitOrigin::kProcessor;
  const obs::ObsContext obs = observability();
  std::unique_lock<std::mutex> lock(commit_mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    // Contended: record how long this committer waited for the lock.
    // (Uncontended commits record nothing, keeping golden traces stable.)
    const auto start = std::chrono::steady_clock::now();
    lock.lock();
    const auto waited = std::chrono::steady_clock::now() - start;
    obs::MetricsRegistry::Add(obs.metrics, "session.commit_waits");
    obs::MetricsRegistry::Observe(
        obs.metrics, "session.commit_wait_us",
        std::chrono::duration_cast<std::chrono::microseconds>(waited)
            .count());
  }

  // 1. Gate: the sticky durability failure, the §5.3 precondition of a
  // checked commit, and event validity (eqs. 1-2).
  if (apply) DEDDB_RETURN_IF_ERROR(commit_health_);
  if (checked) {
    DEDDB_ASSIGN_OR_RETURN(bool consistent, IsConsistent());
    if (!consistent) {
      return FailedPreconditionError(
          "ProcessTransaction requires a consistent database; repair it "
          "first (RepairDatabase)");
    }
  }
  DEDDB_RETURN_IF_ERROR(transaction.Validate(db_.facts(), db_.predicates()));

  // 2. One upward pass (§5.3: the upward problems share their starting
  // point). `required` goals must be computed for the commit to proceed;
  // the observer's are best-effort. Induced events are a property of the
  // transition, so the pass runs against the OLD state, before any mutation.
  std::vector<SymbolId> goals;
  if (checked) {
    goals.push_back(db_.global_ic());
    goals.insert(goals.end(), db_.condition_predicates().begin(),
                 db_.condition_predicates().end());
  }
  for (SymbolId view : db_.view_predicates()) {
    if (db_.IsMaterialized(view)) goals.push_back(view);
  }
  const bool required = !goals.empty();
  const bool announce = apply && commit_observer_ != nullptr &&
                        commit_observer_->active();
  std::vector<SymbolId> wanted;
  if (announce) {
    wanted = commit_observer_->WantedDerived();
    goals.insert(goals.end(), wanted.begin(), wanted.end());
  }
  CommitResult result;
  bool observed = true;
  if (!goals.empty()) {
    Result<DerivedEvents> events = [&]() -> Result<DerivedEvents> {
      DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, CompiledLocked());
      // Only a checked commit answers to the requester's ResourceGuard: the
      // view store and a delta stream other clients depend on must not fail
      // because one writer ran with a small budget.
      UpwardOptions options = upward_options_;
      if (!checked) options.eval.guard = nullptr;
      UpwardInterpreter upward(&db_, compiled, options);
      return upward.InducedEventsFor(transaction, goals);
    }();
    if (events.ok()) {
      result.events = std::move(*events);
    } else if (required) {
      return events.status();
    } else {
      // Only the observer needed the pass (e.g. the event rules no longer
      // compile): commit anyway and demote the delta to a barrier.
      observed = false;
    }
  }
  if (checked) {
    result.accepted = !result.events.ContainsInsert(db_.global_ic(), {});
  }
  if (!result.accepted || !apply) return result;

  // 3. Stage the commit record. A failed staging leaves everything untouched.
  std::optional<persist::PersistenceManager::PreparedCommit> prepared;
  if (persistence_ != nullptr) {
    DEDDB_ASSIGN_OR_RETURN(
        prepared, persistence_->PrepareCommit(transaction, origin,
                                              db_.symbols(), obs, token));
  }

  // 4. Apply in memory — in place, O(|Δ|) — views first, then base facts.
  FactStore& store = db_.materialized_store();
  for (SymbolId view : db_.view_predicates()) {
    if (!db_.IsMaterialized(view)) continue;
    if (const Relation* gone = result.events.deletes.Find(view)) {
      gone->ForEach([&](const Tuple& t) {
        result.applied_deletes += store.Remove(view, t) ? 1 : 0;
      });
    }
    if (const Relation* added = result.events.inserts.Find(view)) {
      added->ForEach([&](const Tuple& t) {
        result.applied_inserts += store.Add(view, t) ? 1 : 0;
      });
    }
  }
  InvalidateDomain();
  FactStore& facts = db_.mutable_facts();
  transaction.deletes().ForEach(
      [&](SymbolId pred, const Tuple& t) { facts.Remove(pred, t); });
  transaction.inserts().ForEach(
      [&](SymbolId pred, const Tuple& t) { facts.Add(pred, t); });
  MarkMutatedLocked();
  // A checked transaction passed the incremental integrity check, so the
  // new state is known consistent without re-deriving Ic.
  if (checked) consistency_cache_ = true;
  // Record the token with the commit it names, before the lock drops: a
  // dedup lookup serialized after this commit must see it. If durability
  // then fails the facade is poisoned, so the optimistic entry can never
  // answer a request (writes stop being admitted) and the non-durable
  // record is not replayed on reopen.
  if (token.present()) dedup_.Record(token, version_);
  if (announce) {
    if (!observed) {
      commit_observer_->OnBarrier(version_);
    } else if (!required) {
      commit_observer_->OnCommit(version_, transaction, result.events);
    } else {
      commit_observer_->OnCommit(version_, transaction,
                                 EventsFor(result.events, wanted));
    }
  }
  if (!prepared.has_value()) return result;

  // 5. Durability, outside the lock so concurrent committers share fsyncs.
  lock.unlock();
  Status durable = persistence_->WaitCommitDurable(*prepared, obs);
  if (!durable.ok()) {
    // Applied in memory but not on disk: the memory state is ahead of the
    // log, so no further commit may be acknowledged. Poison the facade.
    std::lock_guard<std::mutex> relock(commit_mu_);
    commit_health_ = InternalError(
        StrCat("commit ", prepared->seq,
               " was applied in memory but its log record is not durable (",
               durable.ToString(), "); reopen the database to re-converge"));
    return commit_health_;
  }
  // Durable and irrevocable: expose the record to the replica feed.
  persistence_->SettleCommit(prepared->seq);
  return result;
}

Result<const CompiledEvents*> DeductiveDatabase::Compiled() {
  // Under the commit lock: compilation registers predicate variants (a
  // predicate-table mutation BeginSession's clone must not observe
  // half-done).
  std::lock_guard<std::mutex> lock(commit_mu_);
  return CompiledLocked();
}

Result<const CompiledEvents*> DeductiveDatabase::CompiledLocked() {
  if (compiled_ == nullptr) {
    // A failed compile stays uncached, so the next call retries.
    EventCompiler compiler(&db_, compiler_options_);
    DEDDB_ASSIGN_OR_RETURN(CompiledEvents compiled, compiler.Compile());
    compiled_ = std::make_shared<const CompiledEvents>(std::move(compiled));
  }
  return compiled_.get();
}

Result<const ActiveDomain*> DeductiveDatabase::Domain() {
  if (!domain_.has_value()) {
    domain_.emplace(db_);
    for (SymbolId c : extra_domain_constants_) domain_->AddExtra(c);
  }
  return &*domain_;
}

Status DeductiveDatabase::AddDomainConstant(std::string_view name) {
  std::lock_guard<std::mutex> lock(commit_mu_);
  SymbolId c = db_.symbols().Intern(name);
  extra_domain_constants_.push_back(c);
  if (domain_.has_value()) domain_->AddExtra(c);
  // Sessions snapshot the extras, so a new one retires the cached snapshot.
  MarkMutatedLocked();
  NotifyBarrierLocked();
  return Status::Ok();
}

// ---- Upward problems -------------------------------------------------------

Result<bool> DeductiveDatabase::IsConsistent() {
  if (consistency_cache_.has_value()) return *consistency_cache_;
  DEDDB_ASSIGN_OR_RETURN(bool violated,
                         problems::IcHolds(db_, upward_options_.eval));
  consistency_cache_ = !violated;
  return !violated;
}

Result<problems::IntegrityCheckResult> DeductiveDatabase::CheckIntegrity(
    const Transaction& transaction) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  return problems::CheckIntegrity(db_, *compiled, transaction,
                                  upward_options_);
}

Result<problems::ConsistencyRestorationResult>
DeductiveDatabase::CheckConsistencyRestored(const Transaction& transaction) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  return problems::CheckConsistencyRestored(db_, *compiled, transaction,
                                            upward_options_);
}

Result<problems::ConditionChanges> DeductiveDatabase::MonitorConditions(
    const Transaction& transaction, const std::vector<SymbolId>& conditions) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  return problems::MonitorConditions(db_, *compiled, transaction, conditions,
                                     upward_options_);
}

Status DeductiveDatabase::InitializeMaterializedViews() {
  if (replica_mode()) return ReplicaRefusal();
  std::lock_guard<std::mutex> lock(commit_mu_);
  MarkMutatedLocked();
  NotifyBarrierLocked();
  return problems::InitializeMaterializedViews(&db_, upward_options_.eval);
}

Result<problems::ViewMaintenanceResult>
DeductiveDatabase::MaintainMaterializedViews(const Transaction& transaction,
                                             bool apply) {
  if (apply && replica_mode()) return ReplicaRefusal();
  // Compiled() takes the (non-recursive) commit lock itself: resolve it
  // before locking for the view-store mutation.
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  std::lock_guard<std::mutex> lock(commit_mu_);
  if (apply) {
    MarkMutatedLocked();
    NotifyBarrierLocked();
  }
  return problems::MaintainMaterializedViews(&db_, *compiled, transaction,
                                             apply, upward_options_);
}

Result<DerivedEvents> DeductiveDatabase::InducedEvents(
    const Transaction& transaction) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  UpwardInterpreter upward(&db_, compiled, upward_options_);
  return upward.InducedEvents(transaction);
}

Result<DerivedEvents> DeductiveDatabase::SimulateRuleUpdate(
    const problems::RuleUpdate& update) {
  return problems::InducedEventsOfRuleUpdate(db_, update,
                                             upward_options_.eval);
}

Status DeductiveDatabase::ApplyRuleUpdate(const problems::RuleUpdate& update) {
  if (replica_mode()) return ReplicaRefusal();
  std::lock_guard<std::mutex> lock(commit_mu_);
  DEDDB_RETURN_IF_ERROR(problems::ApplyRuleUpdate(&db_, update));
  InvalidateCompiled();
  MarkMutatedLocked();
  NotifyBarrierLocked();
  DeclareAdvisedIndexes(db_.program(), &db_.mutable_facts());
  return Status::Ok();
}

// ---- Downward problems -----------------------------------------------------

Result<problems::DownwardResult> DeductiveDatabase::TranslateViewUpdate(
    const UpdateRequest& request) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(const ActiveDomain* domain, Domain());
  return problems::TranslateViewUpdate(db_, *compiled, *domain, request,
                                       downward_options_);
}

Result<bool> DeductiveDatabase::ValidateView(SymbolId view, bool insertion) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(const ActiveDomain* domain, Domain());
  return problems::ValidateView(db_, *compiled, *domain, view, insertion,
                                &db_.symbols(), downward_options_);
}

Result<problems::DownwardResult> DeductiveDatabase::PreventSideEffects(
    const Transaction& transaction, std::vector<RequestedEvent> unwanted) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(const ActiveDomain* domain, Domain());
  return problems::PreventSideEffects(db_, *compiled, *domain, transaction,
                                      std::move(unwanted),
                                      downward_options_);
}

Result<problems::DownwardResult> DeductiveDatabase::RepairDatabase() {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(const ActiveDomain* domain, Domain());
  return problems::RepairDatabase(db_, *compiled, *domain,
                                  downward_options_);
}

Result<bool> DeductiveDatabase::CheckSatisfiability() {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(const ActiveDomain* domain, Domain());
  return problems::CheckSatisfiability(db_, *compiled, *domain,
                                       downward_options_);
}

Result<problems::DownwardResult>
DeductiveDatabase::FindViolatingTransactions() {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(const ActiveDomain* domain, Domain());
  return problems::FindViolatingTransactions(db_, *compiled, *domain,
                                             downward_options_);
}

Result<problems::DownwardResult> DeductiveDatabase::MaintainIntegrity(
    const Transaction& transaction) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(const ActiveDomain* domain, Domain());
  return problems::MaintainIntegrity(db_, *compiled, *domain, transaction,
                                     downward_options_);
}

Result<problems::DownwardResult> DeductiveDatabase::MaintainInconsistency(
    const Transaction& transaction) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(const ActiveDomain* domain, Domain());
  return problems::MaintainInconsistency(db_, *compiled, *domain, transaction,
                                         downward_options_);
}

Result<problems::DownwardResult> DeductiveDatabase::EnforceCondition(
    RequestedEvent event) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(const ActiveDomain* domain, Domain());
  return problems::EnforceCondition(db_, *compiled, *domain, std::move(event),
                                    downward_options_);
}

Result<bool> DeductiveDatabase::ValidateCondition(SymbolId condition,
                                                  bool activation) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(const ActiveDomain* domain, Domain());
  return problems::ValidateCondition(db_, *compiled, *domain, condition,
                                     activation, &db_.symbols(),
                                     downward_options_);
}

Result<problems::DownwardResult>
DeductiveDatabase::PreventConditionActivation(
    const Transaction& transaction,
    std::vector<RequestedEvent> protected_events) {
  DEDDB_ASSIGN_OR_RETURN(const CompiledEvents* compiled, Compiled());
  DEDDB_ASSIGN_OR_RETURN(const ActiveDomain* domain, Domain());
  return problems::PreventConditionActivation(db_, *compiled, *domain,
                                              transaction,
                                              std::move(protected_events),
                                              downward_options_);
}

}  // namespace deddb
