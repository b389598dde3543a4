#ifndef DEDDB_PERFBENCH_REPLAY_H_
#define DEDDB_PERFBENCH_REPLAY_H_

// The per-layer replay: a sample of one client's seeded operation stream,
// run single-threaded straight into each layer's public functions on a
// private copy of the database, so each layer's own cost is measured
// without contention (README.md lists what each number should move).

#include <string>

#include "harness.h"
#include "util/status.h"
#include "workloads.h"

namespace perfbench {

struct ReplayInput {
  Workload workload = Workload::kOltpWire;
  Shape shape;
  const Population* pop = nullptr;
  uint64_t seed = 1;
  double budget_s = 1;      // wall-clock cap on the sampled stream
  size_t max_ops = 2000;    // sample size cap
  std::string scratch_dir;  // scratch WAL directory for persist timings
  SpanLog* spans = nullptr;
};

/// Adds the replay-measured per-layer metrics to `layers`.
deddb::Status RunReplay(const ReplayInput& in, Report* layers);

}  // namespace perfbench

#endif  // DEDDB_PERFBENCH_REPLAY_H_
