#ifndef TURBOFLUX_BENCH_E2E_REPLAY_H_
#define TURBOFLUX_BENCH_E2E_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"
#include "turboflux/common/status.h"
#include "turboflux/multi/query_set.h"
#include "turboflux/serve/admission.h"
#include "turboflux/serve/match_log.h"

namespace turboflux {
namespace e2e {

/// What a finished tfx_serve run left behind, and how it was configured.
struct ServedRun {
  std::string g0_path;
  std::vector<std::string> query_paths;  ///< in registration order
  multi::QuerySetOptions set_options;
  std::vector<serve::PendingOp> wal;
  std::vector<serve::MatchRecord> matches;
};

/// The chaos suite's oracle: replays the WAL order through a fresh
/// in-process QuerySet holding the same graph and query files, and
/// requires its match stream to equal the server's record for record
/// (which is byte equality of MatchLog::CanonicalMatchStream).
[[nodiscard]] Status VerifyAgainstOracle(const ServedRun& run);

/// The traced run (README "Per-layer metrics and tracing"): replays the
/// measured run in-process through the public calls the server's ingest
/// loop makes, timing each call as a span. The replay batches and commits
/// as tfx_serve does with its default serve::ServeOptions.
struct ReplayPlan {
  const ServedRun* run = nullptr;
  const std::vector<std::string>* frames = nullptr;  ///< submitted payloads
  size_t phase2_first_op = 0;  ///< WAL index of the first phase-2 op
  double max_ops_s = 0;        ///< the measured phase-2 throughput
  std::string work_dir;        ///< replay WAL, match log and snapshots
  std::string match_log_path;  ///< the server's final log
  std::string chrome_trace_path;
};

/// Runs the replay, writes the Chrome trace and appends the per-layer
/// metrics it yields to `layers`.
[[nodiscard]] Status TracedReplay(const ReplayPlan& plan,
                                  std::vector<Metric>* layers);

}  // namespace e2e
}  // namespace turboflux

#endif  // TURBOFLUX_BENCH_E2E_REPLAY_H_
