#ifndef DEDDB_PERFBENCH_WORKLOADS_H_
#define DEDDB_PERFBENCH_WORKLOADS_H_

// The benchmark's workloads (README.md explains why each exists) and the
// seeded generator they share with the per-layer replay.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"
#include "interp/downward.h"
#include "storage/transaction.h"
#include "util/rng.h"
#include "workload/employment.h"

namespace perfbench {

enum class Workload { kOltpWire, kUpdatePipeline, kCdcFanout };

bool ParseWorkload(std::string_view name, Workload* out);
const char* WorkloadName(Workload workload);

/// Sizes and concurrency of one workload.
struct Shape {
  size_t people = 0;
  size_t clients = 0;  // closed-loop clients, or the one open-loop writer
  bool persistent = false;
  bool materialize_unemp = false;
  double writes_per_s = 0;  // open loop only
  size_t writer_pool = 0;   // open loop: persons the writer toggles
};

Shape ShapeOf(Workload workload, bool smoke);
deddb::workload::EmploymentConfig ConfigOf(const Shape& shape, uint64_t seed);

/// The seed state of the employment population: what the generator knows
/// without asking the system under test.
struct Population {
  std::vector<std::string> names;
  std::vector<uint8_t> la, works, benefit, skilled;

  size_t size() const { return names.size(); }
  bool Unemp(uint32_t i) const { return la[i] && !works[i]; }
};

deddb::Result<Population> MakePopulation(
    const deddb::workload::EmploymentConfig& config);

enum class OpKind { kQuery, kApply, kProcess, kTranslate };

/// Base predicates of the employment schema, in this order.
enum Pred : uint8_t { kLa, kWorks, kBenefit, kSkilled };
const char* PredName(Pred pred);

struct Event {
  Pred pred = kWorks;
  uint32_t person = 0;
  bool insert = true;
};

/// One generated request.
struct Op {
  OpKind kind = OpKind::kQuery;
  uint32_t person = 0;        // kQuery: the Unemp(person) point read
  std::vector<Event> events;  // kApply / kProcess
  bool expect_accepted = true;  // kProcess: false when a move violates Ic2
  uint32_t p1 = 0, p2 = 0;    // kTranslate: ins Unemp(p1), del Unemp(p2)
};

/// One client's seeded request stream, plus the model of the persons that
/// client writes. Persons are partitioned so no two clients write the same
/// person; some persons are never written at all.
class Generator {
 public:
  Generator(Workload workload, const Shape& shape, const Population& pop,
            size_t client, uint64_t seed);

  Op Next();

  /// Applies an acknowledged (and, for Process, accepted) write to the
  /// model.
  void Acknowledge(const Op& op);

  /// The client that writes `person`, or -1 when nobody does.
  int OwnerOf(uint32_t person) const { return owner_[person]; }
  /// The first person this client writes.
  uint32_t FirstOwned() const { return owned_.front(); }

  /// Unemp(person) as this client must observe it: its own person's last
  /// acknowledged state, or a never-written person's seed state; nullopt
  /// for persons another client writes.
  std::optional<bool> ExpectedUnemp(uint32_t person) const;

  /// The model's value of `pred(person)` (valid for own and never-written
  /// persons).
  bool Holds(Pred pred, uint32_t person) const;

  /// A request for two view events on never-written persons.
  Op Translate();
  /// A point read on a uniformly drawn person.
  Op Query();

 private:
  /// Constraint-preserving hire (unemployed) or fire (employed).
  void AddMove(uint32_t person, std::vector<Event>* events) const;
  /// A move that leaves Works and U_benefit both true (violates Ic2).
  void AddViolation(uint32_t person, std::vector<Event>* events) const;
  uint32_t PickOwned();

  Workload workload_;
  Shape shape_;
  const Population& pop_;
  size_t client_;
  deddb::Rng rng_;
  uint64_t index_ = 0;
  uint64_t transactions_ = 0;
  std::vector<uint32_t> owned_;
  std::vector<uint32_t> stable_unemp_, stable_employable_;
  std::vector<uint8_t> works_, benefit_, skilled_;
  std::vector<int8_t> owner_;
};

/// The transaction of a write op, with `atom(pred_name, person_name)`
/// building ground atoms in the caller's symbol space (a client's or a
/// facade's).
template <typename AtomFn>
deddb::Result<deddb::Transaction> BuildTransaction(const Op& op,
                                                   const Population& pop,
                                                   AtomFn atom) {
  deddb::Transaction txn;
  for (const Event& e : op.events) {
    DEDDB_ASSIGN_OR_RETURN(deddb::Atom a,
                           atom(PredName(e.pred), pop.names[e.person]));
    DEDDB_RETURN_IF_ERROR(e.insert ? txn.AddInsert(a) : txn.AddDelete(a));
  }
  return txn;
}

/// ins Unemp(p1), del Unemp(p2) in `symbols`' id space.
deddb::UpdateRequest BuildUpdateRequest(const Op& op, const Population& pop,
                                        deddb::SymbolTable& symbols);

/// Everything one invocation produces.
struct RunOptions {
  Workload workload = Workload::kOltpWire;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string work_dir;   // databases live here (inside the checkout)
  std::string source_id;  // git sha or source digest, for provenance
};

struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Report e2e;     // the contract's end-to-end metrics
  Report detail;  // every per-operation metric, with sample counts
  Report layers;  // per-layer metrics (traced runs)
  OracleTally oracles;
  std::string provenance;
  std::string registry_json;  // the traced phase's metrics registry
  std::vector<SpanLog> spans;
};

/// Runs the workload: set-up, measured load, oracles; with opts.trace also
/// the traced phase and the per-layer replay. Errors that stop the run
/// (set-up failures) are reported through RunResult::oracles.
RunResult RunWorkload(const RunOptions& opts);

}  // namespace perfbench

#endif  // DEDDB_PERFBENCH_WORKLOADS_H_
