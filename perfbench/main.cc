// The deddb benchmark driver: runs one workload against a real
// server::Server over the in-process loopback transport, checks the outputs,
// and prints every metric by name and unit. The last line of standard
// output is one JSON object: {"correct","attempted","failed","metrics"}.
//
//   deddb_perfbench --workload <oltp_wire|update_pipeline|cdc_fanout>
//                   --seed <n> --seconds <s> --trace <0|1> [--smoke]
//                   [--results <dir>] [--work <dir>] [--source <id>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the untraced
// and traced phases from the same seed plus the per-layer replay, and
// reports the per-layer metrics. Exits 1 without a result line when any
// correctness oracle fails. README.md documents the workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/json.h"
#include "workloads.h"

namespace {

using perfbench::Report;

// The contract's metric lists, in BENCHMARK.json order.
const char* const kEndToEnd[] = {"setup_s",      "ops_per_s",
                                 "read_p50_us",  "read_p99_us",
                                 "write_p50_us", "write_p99_us"};

const char* const kPerLayer[] = {
    "server.codec_us",
    "server.bytes_per_op",
    "server.wire_overhead_us",
    "server.queue_wait_us",
    "server.write_exec_us",
    "core.begin_session_us",
    "core.snapshots_per_write",
    "core.commit_wait_us",
    "core.apply_us",
    "core.process_us",
    "eval.solve_us",
    "eval.indexed_step_ratio",
    "eval.rule_firings_per_op",
    "interp.upward_us",
    "interp.upward_hit_ratio",
    "interp.downward_us",
    "interp.downward_branches_per_disjunct",
    "interp.dnf_conjuncts_per_disjunct",
    "events.compile_us",
    "persist.log_commit_us",
    "persist.fsyncs_per_commit",
    "persist.wal_bytes_per_commit",
    "sub.commit_tax_us",
    "sub.view_apply_us",
    "sub.deltas_per_commit",
    "sub.coalesced_ratio",
    "sub.gap_events",
    "sub.push_p50_us",
    "sub.push_p99_us",
    "repl.apply_us",
    "repl.records_per_batch",
    "repl.records_behind",
    "repl.lag_p50_us",
    "repl.lag_p99_us",
    "bench.generator_late_p99_us",
    "bench.trace_overhead_pct",
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: deddb_perfbench --workload "
               "<oltp_wire|update_pipeline|cdc_fanout> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--results <dir>] "
               "[--work <dir>] [--source <id>]\n",
               message);
  return 2;
}

/// `names` picked out of `report`, in order; false if one is missing.
template <size_t N>
bool Select(const Report& report, const char* const (&names)[N],
            Report* out) {
  for (const char* name : names) {
    if (!report.Has(name)) {
      std::fprintf(stderr, "internal error: metric %s was not measured\n",
                   name);
      return false;
    }
    for (const Report::Metric& m : report.metrics()) {
      if (m.name == name) out->Add(m.name, m.value, m.unit, m.samples);
    }
  }
  return true;
}

void Print(const char* title, const Report& report) {
  std::printf("%s\n", title);
  for (const Report::Metric& m : report.metrics()) {
    std::printf("  %-40s %16s %-6s", m.name.c_str(),
                perfbench::FormatNumber(m.value).c_str(), m.unit.c_str());
    if (m.samples > 0) {
      std::printf(" (n=%llu)", static_cast<unsigned long long>(m.samples));
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  std::string workload;
  std::string results_dir = ".bench_results";
  opts.work_dir = ".bench_work";
  opts.source_id = "unknown";
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opts.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (arg == "--results") {
      results_dir = value;
    } else if (arg == "--work") {
      opts.work_dir = value;
    } else if (arg == "--source") {
      opts.source_id = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!perfbench::ParseWorkload(workload, &opts.workload)) {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  if (trace < 0) return Usage("--trace must be 0 or 1");
  if (!(opts.seconds > 0 && opts.seconds <= 120)) {
    return Usage("--seconds must be in (0, 120]");
  }
  opts.trace = trace == 1;
  std::filesystem::create_directories(opts.work_dir);
  std::filesystem::create_directories(results_dir);

  perfbench::RunResult result = perfbench::RunWorkload(opts);

  std::printf("deddb benchmark: workload=%s seed=%llu seconds=%s trace=%d%s\n",
              workload.c_str(), static_cast<unsigned long long>(opts.seed),
              perfbench::FormatNumber(opts.seconds).c_str(), trace,
              opts.smoke ? " (smoke)" : "");
  std::printf("provenance %s\n", result.provenance.c_str());
  Print("end-to-end (per operation):", result.detail);
  if (opts.trace) Print("per-layer:", result.layers);
  std::printf("%s", result.oracles.Summary().c_str());

  const std::string stem = results_dir + "/" + workload + "-seed" +
                           std::to_string(opts.seed) + "-trace" +
                           std::to_string(trace);
  {
    std::ofstream out(stem + ".json");
    out << "{\"workload\":" << deddb::obs::JsonQuote(workload)
        << ",\"seed\":" << opts.seed
        << ",\"seconds\":" << perfbench::FormatNumber(opts.seconds)
        << ",\"trace\":" << trace << ",\"smoke\":" << (opts.smoke ? 1 : 0)
        << ",\"provenance\":" << result.provenance
        << ",\"correct\":" << (result.correct ? "true" : "false")
        << ",\"attempted\":" << result.attempted
        << ",\"failed\":" << result.failed
        << ",\"end_to_end\":" << result.e2e.ToJson(true)
        << ",\"detail\":" << result.detail.ToJson(true)
        << ",\"per_layer\":" << result.layers.ToJson(true)
        << ",\"oracles\":" << result.oracles.ToJson() << ",\"registry\":"
        << (result.registry_json.empty() ? "{}" : result.registry_json)
        << "}\n";
  }
  if (!result.spans.empty()) {
    std::vector<const perfbench::SpanLog*> logs;
    for (const perfbench::SpanLog& log : result.spans) logs.push_back(&log);
    perfbench::WriteSpans(stem + ".spans.jsonl", logs);
  }
  std::printf("results: %s.json\n", stem.c_str());

  if (!result.correct) {
    std::fflush(stdout);
    std::fprintf(stderr, "correctness oracle failed; no result reported\n");
    return 1;
  }
  Report contract;
  const bool complete = opts.trace ? Select(result.layers, kPerLayer, &contract)
                                   : Select(result.e2e, kEndToEnd, &contract);
  if (!complete) return 1;
  std::printf(
      "{\"correct\":true,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      contract.ToJson(false).c_str());
  return 0;
}
