#ifndef TURBOFLUX_BENCH_E2E_LIBRARY_RUN_H_
#define TURBOFLUX_BENCH_E2E_LIBRARY_RUN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"
#include "turboflux/common/status.h"
#include "turboflux/graph/graph.h"
#include "turboflux/graph/update_stream.h"
#include "turboflux/query/query_graph.h"

namespace turboflux {
namespace e2e {

/// The library path (README "Workloads"): each query gets a fresh
/// TurboFluxEngine with one thread, Init on g0, then the whole stream one
/// ApplyUpdate at a time, every call timed. A pass runs every query once;
/// passes repeat until `seconds` have passed, and at least three run.
struct LibraryPlan {
  const Graph* g0 = nullptr;
  const std::vector<QueryGraph>* queries = nullptr;
  const UpdateStream* stream = nullptr;
  double seconds = 10;
};

/// A query's matches: reported by Init, then positive and negative over
/// the stream.
struct QueryCounts {
  uint64_t initial = 0;
  uint64_t positive = 0;
  uint64_t negative = 0;
  bool operator==(const QueryCounts&) const = default;
};

/// Per-pass measurements; `counts` are the same in every pass.
struct LibraryResult {
  std::vector<QueryCounts> counts;
  std::vector<double> setup_s;  ///< sum of Init over the queries
  std::vector<double> ops_s;    ///< query·ops ÷ seconds inside ApplyUpdate
  std::vector<double> p50_ms;   ///< ApplyUpdate latency over every call
  std::vector<double> p99_ms;
  double peak_rss_mb = 0;  ///< VmHWM over the first pass
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< ops of queries that hit the per-query deadline
};

/// Runs the passes. Fails when a pass reports other counts than the first.
[[nodiscard]] Status RunLibraryPasses(const LibraryPlan& plan,
                                      LibraryResult* out);

/// The oracle: each query's Init count must equal StaticMatcher's count on
/// g0, and initial + positive - negative its count on g0 with the stream
/// applied.
[[nodiscard]] Status VerifyLibraryCounts(const LibraryPlan& plan,
                                         const std::vector<QueryCounts>& counts);

/// The traced run: one pass with a span around every Init and ApplyUpdate
/// call and around MeasureGraphUpdateSeconds, written as a Chrome trace.
/// Fills `counts` and appends the engine's per-layer metrics to `layers`.
[[nodiscard]] Status TracedLibraryPass(const LibraryPlan& plan,
                                       const std::string& chrome_trace_path,
                                       std::vector<QueryCounts>* counts,
                                       std::vector<Metric>* layers);

}  // namespace e2e
}  // namespace turboflux

#endif  // TURBOFLUX_BENCH_E2E_LIBRARY_RUN_H_
