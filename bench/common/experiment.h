#ifndef TURBOFLUX_BENCH_COMMON_EXPERIMENT_H_
#define TURBOFLUX_BENCH_COMMON_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "turboflux/harness/engine.h"
#include "turboflux/harness/metrics.h"
#include "turboflux/query/query_graph.h"
#include "turboflux/workload/query_gen.h"
#include "turboflux/workload/stream_builder.h"

namespace turboflux {
namespace bench {

/// Engines evaluated in the paper, plus the SymBi sibling engine
/// (DESIGN.md §3.13).
enum class EngineKind { kTurboFlux, kSymBi, kSjTree, kGraphflow,
                        kIncIsoMat };

const char* EngineName(EngineKind kind);

std::unique_ptr<ContinuousEngine> MakeEngine(EngineKind kind,
                                             MatchSemantics semantics);

/// Scaled-down stand-ins for the paper's datasets (Section 5.1). `scale`
/// multiplies the default size (1.0 = the default laptop-size dataset);
/// the paper's 0.1M/1M/10M-user LSBench series maps to scale 1/10/100 of
/// which the benches use 0.5/1/2 by default to stay fast.
workload::Dataset MakeLsBenchDataset(double scale, double stream_fraction,
                                     double deletion_rate, uint64_t seed);
workload::Dataset MakeNetflowDataset(double scale, double stream_fraction,
                                     double deletion_rate, uint64_t seed);

/// Truncates the dataset's stream to at most `ops` operations, rebuilding
/// the final graph and the insertion list so query generation stays
/// consistent with what actually streams.
void TruncateStream(workload::Dataset& dataset, size_t ops);

/// Result of one engine over one query set.
struct QuerySetResult {
  Aggregate aggregate;
  std::vector<double> per_query_seconds;  // -1 for timeout/unsupported
};

struct ExperimentOptions {
  int64_t timeout_ms = 2000;
  MatchSemantics semantics = MatchSemantics::kHomomorphism;
  /// When non-empty, every run collects an observability snapshot and the
  /// process-wide per-engine accumulation is rewritten to this JSON file
  /// after each query set — the machine-readable perf-trajectory artifact
  /// reproduce_all.sh collects (DESIGN.md §3.8).
  std::string stats_json;
};

/// Fills `stats_json` from the implicit `--stats_json` flag (and the
/// STATS_DIR environment, via reproduce_all.sh).
void ApplyStreamingFlags(const Flags& flags, ExperimentOptions& options);

/// Runs `engine_kind` over every query; prints nothing.
QuerySetResult RunQuerySet(EngineKind engine_kind,
                           const workload::Dataset& dataset,
                           const std::vector<QueryGraph>& queries,
                           const ExperimentOptions& options);

/// Per-query positive-match counts (selectivity), via TurboFlux.
std::vector<uint64_t> QuerySelectivities(const workload::Dataset& dataset,
                                         const std::vector<QueryGraph>&
                                             queries,
                                         int64_t timeout_ms);

/// Prints the standard figure table: one row per (x-value, engine) with
/// avg cost(M(Δg,q)), avg intermediate size, timeouts, and the TurboFlux
/// speedup factor.
class FigureReport {
 public:
  explicit FigureReport(std::string x_label);

  void AddRow(const std::string& x_value, EngineKind kind,
              const QuerySetResult& result);
  /// Prints the table plus "TurboFlux outperforms X by N times" lines
  /// computed pairwise on commonly-completed queries.
  void Print() const;

 private:
  struct Row {
    std::string x;
    EngineKind kind;
    QuerySetResult result;
  };
  std::string x_label_;
  std::vector<Row> rows_;
};

/// Prints per-query scatter pairs (Figures 6c/6d, 7c/7d).
void PrintScatter(const std::string& title,
                  const std::vector<double>& turboflux_seconds,
                  const std::vector<double>& other_seconds,
                  const std::string& other_name);

}  // namespace bench
}  // namespace turboflux

#endif  // TURBOFLUX_BENCH_COMMON_EXPERIMENT_H_
