#ifndef DEDDB_CORE_SESSION_H_
#define DEDDB_CORE_SESSION_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "events/event_compiler.h"
#include "interp/domain.h"
#include "interp/downward.h"
#include "interp/old_state.h"
#include "interp/upward.h"
#include "problems/condition_monitoring.h"
#include "problems/integrity_checking.h"
#include "problems/repair.h"
#include "problems/view_updating.h"
#include "storage/database.h"
#include "storage/transaction.h"
#include "util/status.h"

namespace deddb {

class DeductiveDatabase;

/// Session-count bookkeeping shared by a DeductiveDatabase and the snapshot
/// states it builds, through which its Sessions reach it (the facade must
/// outlive its sessions, but sessions on other threads end at arbitrary
/// times, hence the atomics).
struct SessionRegistry {
  std::atomic<uint64_t> active{0};         // live Sessions
  std::atomic<uint64_t> live_versions{0};  // live SessionStates
};

/// The immutable state a Session pins: one versioned clone of the database
/// (schema, rules, EDB, materialized store — copy-on-write, so cheap), the
/// event compilation over that clone's rules, and the active-domain extras
/// as of the snapshot. Shared between every Session begun at the same
/// version and the owner's snapshot cache; freed when the last one lets go,
/// which is when it leaves the registry's live_versions count.
///
/// Everything here is written once, before publication, except the
/// lazily-built active domain, which is guarded by its once-flag (its
/// construction only reads the pinned clone).
struct SessionState {
  explicit SessionState(std::shared_ptr<SessionRegistry> owner);
  ~SessionState();

  uint64_t version = 0;
  std::unique_ptr<Database> db;  // never mutated after publication
  // The head's compilation when it had one (shared, never copied), else one
  // compiled on `db` at snapshot time.
  std::shared_ptr<const CompiledEvents> compiled;
  Status compile_status;  // why `compiled` is absent (e.g. recursive rules)
  std::vector<SymbolId> extra_domain_constants;

  mutable std::once_flag domain_once;
  mutable std::optional<ActiveDomain> domain;

  const std::shared_ptr<SessionRegistry> registry;
};

/// The atom over `predicate` with the given terms; the predicate must be
/// declared in `db` with matching arity. (The facade's and the session's
/// MakeAtom.)
Result<Atom> MakeAtomIn(const Database& db, std::string_view predicate,
                        std::vector<Term> args);

/// A snapshot-isolated read handle obtained from
/// DeductiveDatabase::BeginSession() (DESIGN.md §9).
///
/// Visibility contract: every read answers against exactly the state of the
/// commit prefix applied at BeginSession time — never a torn mid-commit
/// state (base facts and view store move together), and never anything
/// committed later. The handle stays valid (and keeps answering from its
/// pinned version) across any concurrent writer activity: commits (Apply,
/// UpdateProcessor), schema or rule changes, Checkpoint.
///
/// Thread model: any number of Sessions may run concurrently with each other
/// and with the single writer. One Session is NOT internally synchronized
/// for concurrent use of the *same* handle from several threads (its query
/// caches serialize internally, but options mutation is not); give each
/// reader thread its own Session.
class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The commit version this session pinned (monotone per facade).
  uint64_t version() const;

  /// The pinned point-in-time database (schema, rules, facts, views).
  const Database& database() const;

  // ---- Term/atom building (same helpers as the facade; the symbol table is
  // shared and thread-safe, so ids agree across versions) -------------------

  Term Constant(std::string_view name) const;
  Term Variable(std::string_view name) const;
  Result<Atom> MakeAtom(std::string_view predicate,
                        std::vector<Term> args) const;
  Result<Atom> GroundAtom(std::string_view predicate,
                          std::vector<std::string_view> constants) const;

  // ---- Reads against the pinned state ------------------------------------

  /// True if the ground atom holds (base lookup or derived query).
  Result<bool> Holds(const Atom& ground_atom) const;

  /// All ground instances of `pattern` (atom possibly with variables) that
  /// hold in the pinned state.
  Result<std::vector<Tuple>> Solve(const Atom& pattern) const;
  Result<std::vector<Tuple>> Query(const Atom& pattern) const {
    return Solve(pattern);
  }

  /// Integrity of the pinned state (paper §5.1.1 family).
  Result<bool> IsConsistent() const;
  Result<problems::IntegrityCheckResult> CheckIntegrity(
      const Transaction& transaction) const;
  Result<problems::ConsistencyRestorationResult> CheckConsistencyRestored(
      const Transaction& transaction) const;
  Result<problems::ConditionChanges> MonitorConditions(
      const Transaction& transaction,
      const std::vector<SymbolId>& conditions = {}) const;

  /// Raw upward interpretation of a hypothetical transaction against the
  /// pinned state (all induced derived events).
  Result<DerivedEvents> InducedEvents(const Transaction& transaction) const;

  /// Downward interpretation against the pinned state.
  Result<problems::DownwardResult> TranslateViewUpdate(
      const UpdateRequest& request) const;
  Result<bool> CheckSatisfiability() const;

  /// The pinned compilation, or the error recorded at snapshot time. Every
  /// session whose version shares the head's rule set gets the same object.
  Result<const CompiledEvents*> Compiled() const;

  /// Per-session evaluation options (budgets, thread count). Start as the
  /// owner's options with observability and resource guard stripped — a
  /// session runs on its own thread and must not write the owner's sinks.
  UpwardOptions& upward_options() { return upward_options_; }
  DownwardOptions& downward_options() { return downward_options_; }

  /// Installs a resource governor on every evaluation this session performs
  /// — queries, upward and downward interpretation; nullptr removes it.
  /// Unlike assigning upward_options().eval.guard directly, this also
  /// reaches the session's query engine (constructed with the session, so a
  /// later options change alone never reaches it) — the difference between
  /// Solve honoring a deadline with a typed kDeadlineExceeded /
  /// kBudgetExceeded / kCancelled status and silently running unguarded.
  /// The guard must outlive its use; Restart() it between requests.
  void set_resource_guard(const ResourceGuard* guard);

 private:
  friend class DeductiveDatabase;

  Session(std::shared_ptr<const SessionState> state,
          UpwardOptions upward, DownwardOptions downward);

  /// The pinned active domain (built on first use; construction is
  /// read-only and once-guarded, so concurrent sessions sharing the state
  /// are safe).
  const ActiveDomain& Domain() const;

  std::shared_ptr<const SessionState> state_;
  UpwardOptions upward_options_;
  DownwardOptions downward_options_;
  // Query engine over the pinned state (internally serialized; lazy).
  OldStateView view_;
};

}  // namespace deddb

#endif  // DEDDB_CORE_SESSION_H_
