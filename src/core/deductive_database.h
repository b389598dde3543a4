#ifndef DEDDB_CORE_DEDUCTIVE_DATABASE_H_
#define DEDDB_CORE_DEDUCTIVE_DATABASE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/commit_dedup.h"
#include "core/commit_observer.h"
#include "core/session.h"
#include "events/event_compiler.h"
#include "interp/domain.h"
#include "persist/manager.h"
#include "interp/downward.h"
#include "interp/upward.h"
#include "problems/condition_activation.h"
#include "problems/condition_monitoring.h"
#include "problems/integrity_checking.h"
#include "problems/integrity_maintenance.h"
#include "problems/repair.h"
#include "problems/rule_updates.h"
#include "problems/side_effects.h"
#include "problems/view_maintenance.h"
#include "problems/view_updating.h"
#include "storage/database.h"

namespace deddb {

/// Options for DeductiveDatabase::OpenPersistent. (Namespace scope: a
/// nested struct's member initializer cannot feed a default argument of the
/// enclosing class.)
struct PersistOptions {
  /// Batch concurrent commit fsyncs (leader-based group commit). Off, each
  /// commit pays its own fsync.
  bool group_commit = true;
};

/// The user-facing facade of the library: a deductive database plus the
/// event-rule framework, exposing every updating problem of the paper's
/// Table 4.1 through one uniform interface (the "update processing system"
/// of §1).
///
/// The event machinery (transition + event rules) is compiled lazily and
/// invalidated whenever the schema or the rules change; the active domain is
/// likewise cached and invalidated when facts change.
///
/// Concurrency (DESIGN.md §9): one writer thread drives every mutating
/// method; any number of reader threads hold Session handles from
/// BeginSession(), each pinning an immutable snapshot. All mutations run
/// under an internal commit lock, which is also what BeginSession takes, so
/// a session can never observe a torn mid-apply state.
class DeductiveDatabase {
 public:
  explicit DeductiveDatabase(EventCompilerOptions compiler_options =
                                 EventCompilerOptions{.simplify = true, .obs = {}});

  // ---- Durability (src/persist/, DESIGN.md §8) ----------------------------

  /// Opens a durable database rooted at directory `dir`: restores the latest
  /// snapshot, replays the write-ahead log (truncating a torn tail; a
  /// corrupt interior record fails with kCorruption), and takes over the log
  /// for new commits. A fresh directory yields an empty database.
  ///
  /// Durability contract: every transaction committed through Apply or
  /// UpdateProcessor has its log record staged before it is applied, and the
  /// commit is acknowledged only once that record is durable, so an
  /// acknowledged commit survives any crash. Schema and rules are durable
  /// only as of the last Checkpoint()/Close() — declare the schema, then
  /// checkpoint, then commit transactions.
  static Result<std::unique_ptr<DeductiveDatabase>> OpenPersistent(
      const std::string& dir, PersistOptions persist_options = {},
      EventCompilerOptions compiler_options =
          EventCompilerOptions{.simplify = true, .obs = {}});

  /// Durably snapshots the full state (schema, rules, facts, materialized
  /// views) and truncates the log. FailedPrecondition on a non-persistent
  /// database.
  Status Checkpoint();

  /// Checkpoints and detaches the persistence manager (no-op when not
  /// persistent). After Close() the database keeps working in memory only.
  Status Close();

  /// The persistence manager, or nullptr when the database is in-memory
  /// (also during OpenPersistent's replay, which is what keeps replayed
  /// commits from being re-logged).
  persist::PersistenceManager* persistence() { return persistence_.get(); }

  // ---- Replication (src/repl/, DESIGN.md §12) ------------------------------

  /// Switches this database into a read-only replica: every local mutator
  /// (schema, rules, facts, Apply, Process, rule updates) fails with
  /// kFailedPrecondition from here on, and ApplyReplicated becomes the only
  /// way state changes — shipped WAL records replayed through the same path
  /// recovery takes. On a database opened with OpenPersistent (a copied
  /// primary checkpoint), the persistence manager is detached first — a
  /// replica never logs locally, so replayed commits keep their primary
  /// sequence numbers — and the replay cursor starts at the recovered
  /// sequence; on an in-memory database (schema declared by the caller) it
  /// starts at zero. Irreversible for this object.
  Status EnterReplicaMode();
  bool replica_mode() const {
    return replica_mode_.load(std::memory_order_acquire);
  }

  /// Applies one shipped WAL commit payload (the EncodeCommitPayload bytes a
  /// ReplicaFeed delivers) through the recovery replay path: the commit path
  /// every local commit takes (view deltas re-derived, processor commits
  /// re-checked), tokens re-armed in the dedup table. Enforces a strictly increasing
  /// sequence (a duplicate or reordered record is kFailedPrecondition — the
  /// feed resumes from replica_applied_seq(), so it never legitimately
  /// re-delivers). Structural damage in the payload is kCorruption; a record
  /// the replica's state rejects (divergence) is kCorruption too. Returns
  /// the commit version after the apply. Serialized internally; safe to call
  /// concurrently with BeginSession.
  Result<uint64_t> ApplyReplicated(std::string_view wal_payload);

  /// Highest primary sequence number applied (the feed's resume cursor).
  uint64_t replica_applied_seq() const {
    return replica_applied_seq_.load(std::memory_order_acquire);
  }

  // ---- Snapshot sessions (src/core/session.h, DESIGN.md §9) ---------------

  /// Opens a snapshot-isolated read session pinned to the current committed
  /// state. The session can run queries and upward/downward interpretation
  /// concurrently with other sessions and with this facade's writer methods;
  /// it never sees later commits. Sessions begun at the same version share
  /// one snapshot (the clone is cached until the next mutation), and every
  /// snapshot shares the head's event compilation while the rule set stays
  /// the same. The facade must outlive the session.
  Result<std::unique_ptr<Session>> BeginSession();

  /// Number of live sessions (racy by nature; exact between joins).
  uint64_t active_sessions() const {
    return session_registry_->active.load(std::memory_order_relaxed);
  }

  /// Number of snapshot versions still held by a session or by the
  /// snapshot cache; a version leaves the count when its last holder lets go.
  uint64_t live_session_versions() const {
    return session_registry_->live_versions.load(std::memory_order_relaxed);
  }

  /// The current commit version: bumped by every mutation (schema, rules,
  /// facts, view store). Sessions report the version they pinned.
  uint64_t version() const;

  // ---- Schema & content ---------------------------------------------------

  Result<SymbolId> DeclareBase(std::string_view name, size_t arity);
  Result<SymbolId> DeclareDerived(std::string_view name, size_t arity);
  Result<SymbolId> DeclareView(std::string_view name, size_t arity);
  Result<SymbolId> DeclareConstraint(std::string_view name, size_t arity);
  Result<SymbolId> DeclareCondition(std::string_view name, size_t arity);

  Status AddRule(Rule rule);
  Status AddFact(const Atom& ground_atom);
  Status RemoveFact(const Atom& ground_atom);
  Status MaterializeView(SymbolId view);

  /// Term/atom building helpers.
  Term Constant(std::string_view name);
  Term Variable(std::string_view name);
  /// Atom over `predicate` with the given terms; the predicate must be
  /// declared with matching arity.
  Result<Atom> MakeAtom(std::string_view predicate, std::vector<Term> args);
  /// Ground atom from constant names (convenience for facts and requests).
  Result<Atom> GroundAtom(std::string_view predicate,
                          std::vector<std::string_view> constants);

  /// Builds a transaction from (op, atom) pairs; op is `kInsert`/`kDelete`.
  enum class Op { kInsert, kDelete };
  Result<Transaction> MakeTransaction(
      std::vector<std::pair<Op, Atom>> events);

  /// Validates (per eqs. 1-2) and applies a transaction to the base facts,
  /// keeping the materialized views right (their delta comes from the same
  /// upward pass that feeds the CDC observer). No integrity constraint is
  /// checked; UpdateProcessor::ProcessTransaction is the checked commit. On
  /// a persistent database the commit record is staged before the in-memory
  /// apply and Apply returns only once it is durable.
  Status Apply(const Transaction& transaction);

  /// Apply with an idempotency token: the commit is recorded in the dedup
  /// table (and, when persistent, the token rides in the WAL record, so
  /// recovery re-records it). The caller — the server's writer thread — is
  /// expected to consult LookupCommitToken first; Apply itself does not
  /// re-check, since the single-writer contract already serializes the
  /// lookup/apply pair.
  Status Apply(const Transaction& transaction,
               const persist::CommitToken& token);

  /// Classifies a tokened write against the committed-write memory:
  /// kDuplicate carries the version the original commit produced.
  DedupResult LookupCommitToken(const persist::CommitToken& token) const;

  /// The sticky durability failure, Ok while the database is healthy. Once
  /// set (a commit applied in memory whose log record never became durable),
  /// every later mutation fails with it; reads remain consistent. The
  /// server's degraded read-only mode keys off this.
  Status commit_health() const;

  // ---- Event machinery ----------------------------------------------------

  /// The compiled transition/event rules (recompiled after schema or rule
  /// changes; the pointer is valid until then).
  Result<const CompiledEvents*> Compiled();

  /// The active domain snapshot (rebuilt after fact changes). Extra
  /// constants registered here survive until the next invalidation.
  Result<const ActiveDomain*> Domain();
  Status AddDomainConstant(std::string_view name);

  // ---- Table 4.1: upward problems -----------------------------------------

  Result<bool> IsConsistent();
  Result<problems::IntegrityCheckResult> CheckIntegrity(
      const Transaction& transaction);
  Result<problems::ConsistencyRestorationResult> CheckConsistencyRestored(
      const Transaction& transaction);
  Result<problems::ConditionChanges> MonitorConditions(
      const Transaction& transaction,
      const std::vector<SymbolId>& conditions = {});
  Status InitializeMaterializedViews();
  Result<problems::ViewMaintenanceResult> MaintainMaterializedViews(
      const Transaction& transaction, bool apply = true);

  /// Raw upward interpretation (all induced derived events).
  Result<DerivedEvents> InducedEvents(const Transaction& transaction);

  // ---- Rule updates (§5.3 closing remark) ----------------------------------

  /// The derived-fact changes a rule update would induce, without applying
  /// it.
  Result<DerivedEvents> SimulateRuleUpdate(
      const problems::RuleUpdate& update);

  /// Applies a rule update (validating additions, removing exact matches)
  /// and invalidates the compiled event machinery.
  Status ApplyRuleUpdate(const problems::RuleUpdate& update);

  // ---- Table 4.1: downward problems ---------------------------------------

  Result<problems::DownwardResult> TranslateViewUpdate(
      const UpdateRequest& request);
  Result<bool> ValidateView(SymbolId view, bool insertion);
  Result<problems::DownwardResult> PreventSideEffects(
      const Transaction& transaction, std::vector<RequestedEvent> unwanted);
  Result<problems::DownwardResult> RepairDatabase();
  Result<bool> CheckSatisfiability();
  Result<problems::DownwardResult> FindViolatingTransactions();
  Result<problems::DownwardResult> MaintainIntegrity(
      const Transaction& transaction);
  Result<problems::DownwardResult> MaintainInconsistency(
      const Transaction& transaction);
  Result<problems::DownwardResult> EnforceCondition(RequestedEvent event);
  Result<bool> ValidateCondition(SymbolId condition, bool activation);
  Result<problems::DownwardResult> PreventConditionActivation(
      const Transaction& transaction,
      std::vector<RequestedEvent> protected_events);

  // ---- Access & configuration ---------------------------------------------

  Database& database() { return db_; }
  const Database& database() const { return db_; }
  SymbolTable& symbols() { return db_.symbols(); }
  const SymbolTable& symbols() const { return db_.symbols(); }

  UpwardOptions& upward_options() { return upward_options_; }
  DownwardOptions& downward_options() { return downward_options_; }

  /// Opts every evaluation this facade performs — upward and downward
  /// interpretation, integrity checks, view materialization, queries —
  /// into the parallel bottom-up evaluator with `n` worker threads
  /// (0 restores the serial engine). See EvaluationOptions::num_threads.
  void set_num_threads(size_t n) {
    upward_options_.eval.num_threads = n;
    downward_options_.eval.num_threads = n;
  }

  /// Installs a resource governor (deadline / budgets / cancellation) on
  /// every evaluation this facade performs — upward and downward
  /// interpretation, the problem specs, queries and the update processor.
  /// nullptr (the default) removes it. The guard must outlive its use; the
  /// caller re-arms it between requests with ResourceGuard::Restart().
  void set_resource_guard(const ResourceGuard* guard) {
    upward_options_.eval.guard = guard;
    downward_options_.eval.guard = guard;
  }
  const ResourceGuard* resource_guard() const {
    return upward_options_.eval.guard;
  }

  /// Attaches observability sinks (tracer and/or metrics registry) to every
  /// operation this facade performs — event compilation, upward and downward
  /// interpretation, the problem specs, queries and the update processor.
  /// Either pointer may be null; `{}` (the default) disables observability,
  /// whose cost then reduces to one pointer test per instrumentation site
  /// (same armed-but-idle discipline as set_resource_guard; measured by
  /// bench_trace_overhead). The sinks must outlive their use.
  void set_observability(obs::ObsContext obs) {
    compiler_options_.obs = obs;
    upward_options_.eval.obs = obs;
    downward_options_.eval.obs = obs;
  }
  obs::ObsContext observability() const { return upward_options_.eval.obs; }

  const EventCompilerOptions& compiler_options() const {
    return compiler_options_;
  }

  /// Thread-safe predicate lookup for request validation outside a pinned
  /// session: commits register predicate variants mid-flight (see
  /// Compiled()), so the raw table must not be read concurrently with them.
  Result<PredicateInfo> PredicateInfoFor(SymbolId predicate) const {
    std::lock_guard<std::mutex> lock(commit_mu_);
    return db_.predicates().Get(predicate);
  }

  /// Installs the CDC commit hook (core/commit_observer.h): every commit
  /// then carries its induced events to the observer under the writer, and
  /// every non-transactional mutation announces a barrier. Pass nullptr to
  /// detach. Takes the commit lock, so attach/detach serializes against
  /// in-flight commits; the observer must outlive its attachment and must
  /// never call back into this facade.
  void set_commit_observer(CommitObserver* observer) {
    std::lock_guard<std::mutex> lock(commit_mu_);
    commit_observer_ = observer;
  }

 private:
  /// What a commit's upward pass found; UpdateProcessor builds its report
  /// from it.
  struct CommitResult {
    /// False when a checked commit induced ιIc: nothing was logged or
    /// changed.
    bool accepted = true;
    /// The pass's induced events (empty when the pass had no goals).
    DerivedEvents events;
    /// Stored view tuples the commit actually inserted/removed.
    size_t applied_inserts = 0;
    size_t applied_deletes = 0;
  };

  /// The one commit path (DESIGN.md §9): Apply, UpdateProcessor, WAL
  /// recovery and ApplyReplicated all commit here. A kProcessor commit is
  /// *checked*: it requires a consistent database and is refused when it
  /// induces ιIc. One upward pass serves the materialized views, the CDC
  /// observer and, when checked, the constraints and conditions. Then, under
  /// commit_mu_, the commit stages its log record (persistent databases),
  /// applies the view delta and the base delta, records `token` and notifies
  /// the observer; the durability wait runs after the lock drops, so
  /// concurrent committers share fsyncs. `apply` false stops after the pass
  /// (UpdateProcessor's dry run). Replica-mode refusal is the callers' job:
  /// replay commits through here too.
  Result<CommitResult> Commit(const Transaction& transaction,
                              persist::CommitOrigin origin,
                              const persist::CommitToken& token,
                              bool apply = true);

  /// Replays one committed WAL record through Commit — the shared body of
  /// OpenPersistent's recovery loop and ApplyReplicated. Failures (a
  /// transaction the current state rejects) are kCorruption: the log/feed
  /// does not match the state it is being applied to.
  Status ReplayWalRecord(const persist::WalRecord& record);

  /// The typed refusal every local mutator returns in replica mode.
  Status ReplicaRefusal() const;

  /// Bumps the commit version and drops the cached snapshot. Call (with
  /// commit_mu_ held) after any mutation a session must not share.
  void MarkMutatedLocked() {
    ++version_;
    snapshot_cache_.reset();
  }

  /// Compiled() with commit_mu_ already held — the commit hook needs the
  /// event rules mid-commit and the lock is non-recursive.
  Result<const CompiledEvents*> CompiledLocked();

  /// Tells the CDC observer (if any) that the database changed without an
  /// incremental delta stream. commit_mu_ held, after MarkMutatedLocked().
  void NotifyBarrierLocked() {
    if (commit_observer_ != nullptr && commit_observer_->active()) {
      commit_observer_->OnBarrier(version_);
    }
  }

  void InvalidateCompiled() {
    compiled_.reset();
    consistency_cache_.reset();
  }
  void InvalidateDomain() {
    domain_.reset();
    consistency_cache_.reset();
  }

  friend class UpdateProcessor;  // commits through Commit()

  Database db_;
  std::unique_ptr<persist::PersistenceManager> persistence_;
  EventCompilerOptions compiler_options_;
  UpwardOptions upward_options_;
  DownwardOptions downward_options_;
  // The one compilation of the current rule set, shared by the commit path,
  // the facade's reads, UpdateProcessor and every session pinned under it.
  std::shared_ptr<const CompiledEvents> compiled_;
  std::optional<ActiveDomain> domain_;
  std::vector<SymbolId> extra_domain_constants_;
  // Cached result of IsConsistent(); invalidated by any fact or rule
  // change, refreshed by IsConsistent() and by every checked commit (an
  // accepted transaction keeps a consistent database consistent).
  std::optional<bool> consistency_cache_;

  // ---- Session machinery (DESIGN.md §9) -----------------------------------
  // Serializes mutations, snapshot acquisition, and lazy event compilation
  // (which registers predicate variants — a mutation of the predicate
  // table). Commit() holds it from the gate to the in-memory apply; the
  // fsync wait happens outside it, so concurrent committers batch (group
  // commit end-to-end).
  mutable std::mutex commit_mu_;
  uint64_t version_ = 0;
  // The snapshot for version_, if some session already paid for the clone.
  std::shared_ptr<const SessionState> snapshot_cache_;
  std::shared_ptr<SessionRegistry> session_registry_ =
      std::make_shared<SessionRegistry>();
  // Sticky failure set when a commit was applied in memory but its log
  // record did not become durable (Commit's durability wait): the memory
  // state is ahead of the log, so further commits/checkpoints must not
  // proceed — reopen the database to re-converge.
  Status commit_health_;
  // Committed tokened writes (exactly-once memory); commit_mu_ guards it.
  // Populated at commit time and, for persistent databases, re-populated
  // from WAL token extensions during OpenPersistent replay.
  CommitDedup dedup_;
  // CDC hook (DESIGN.md §11); invoked under commit_mu_, never owned here.
  CommitObserver* commit_observer_ = nullptr;

  // ---- Replica mode (DESIGN.md §12) ---------------------------------------
  // Atomic so mutators can gate without widening any lock's hold time and
  // status accessors stay lock-free for the serving path.
  std::atomic<bool> replica_mode_{false};
  std::atomic<uint64_t> replica_applied_seq_{0};
  // Serializes ApplyReplicated callers (the feed tail thread): the cursor
  // check, the replay and the cursor advance must be one step, and the
  // commit lock covers only the replay.
  std::mutex replica_apply_mu_;
};

}  // namespace deddb

#endif  // DEDDB_CORE_DEDUCTIVE_DATABASE_H_
