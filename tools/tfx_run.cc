// tfx_run: command-line continuous subgraph matching.
//
// Loads a data graph, a query, and an update stream from text files (see
// graph_io.h / query_io.h for the format), runs a chosen engine, and
// either prints every match or just the summary statistics.
//
//   tfx_run --graph=g0.txt --query=q.txt --stream=dg.txt
//           [--engine=turboflux|symbi|sjtree|graphflow|incisomat]
//           [--semantics=hom|iso] [--timeout_ms=N] [--print_matches]
//           [--lenient]
//           [--checkpoint-every=N] [--checkpoint-path=F] [--restore-from=F]
//           [--stats[=json|csv]] [--stats-every=N]
//
// Multi-query mode (DESIGN.md §3.10): --queries=DIR instead of --query=Q
// registers every query file in DIR (sorted by filename) in one
// multi::QuerySet over a single shared graph, routes each stream update
// to only the queries it can affect, and reports per-query match counts
// to stderr. --threads=N evaluates routed queries in parallel and
// --batch=K feeds the stream to the set in windows of K ops (both are
// multi-query only; output is identical to the sequential run); --stats
// prints the set's counters including per-query cost attribution.
// Matches printed by --print_matches are prefixed with the query id.
//
// --lenient skips (and counts to stderr) malformed graph/stream records
// instead of aborting on the first one.
//
// --stats collects the engine's hot-path counters and the run's latency
// histograms (DESIGN.md §3.8) and prints one JSON (or CSV) document to
// stdout after the run; --stats-every=N additionally streams an
// intermediate JSON snapshot line to stderr every N processed ops.
//
// The checkpoint flags (turboflux and symbi) switch to the crash-
// consistent resilient runner (DESIGN.md §3.7): --checkpoint-every=N
// snapshots engine
// state every N consumed ops, --checkpoint-path=F persists each snapshot
// to F (atomically overwritten), and --restore-from=F resumes a previous
// run from its snapshot, replaying only the unconsumed stream suffix.
//
// Exit status: 0 on success, 1 on timeout/engine failure, 2 on usage/file
// errors.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "turboflux/baseline/graphflow.h"
#include "turboflux/baseline/inc_iso_mat.h"
#include "turboflux/baseline/sj_tree.h"
#include "turboflux/core/recovery.h"
#include "turboflux/core/turboflux.h"
#include "turboflux/graph/graph_io.h"
#include "turboflux/harness/runner.h"
#include "turboflux/multi/query_set.h"
#include "turboflux/obs/stats.h"
#include "turboflux/query/query_io.h"
#include "turboflux/symbi/symbi.h"

namespace turboflux {
namespace {

class PrintSink : public MatchSink {
 public:
  explicit PrintSink(bool print) : print_(print) {}

  void OnMatch(bool positive, const Mapping& m) override {
    if (print_) {
      std::printf("%s %s\n", positive ? "+" : "-",
                  MappingToString(m).c_str());
    }
  }

 private:
  bool print_;
};

/// Tagged sink for multi-query mode: prints "q<ID> +/- mapping" lines.
class QuerySetPrintSink : public multi::QuerySet::Sink {
 public:
  explicit QuerySetPrintSink(bool print) : print_(print) {}

  void OnMatch(multi::QueryId query, bool positive,
               const Mapping& m) override {
    if (print_) {
      std::printf("q%u %s %s\n", query, positive ? "+" : "-",
                  MappingToString(m).c_str());
    }
  }

 private:
  bool print_;
};

/// Multi-query mode: every query file in `queries_dir` (sorted by
/// filename) registered in one QuerySet over the shared graph.
int RunQuerySet(const std::string& queries_dir, const Graph& g0,
                const UpdateStream& stream, MatchSemantics semantics,
                int64_t timeout_ms, int64_t threads, int64_t batch,
                bool print_matches, const std::string& stats_mode) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(queries_dir, ec)) {
    if (entry.is_regular_file()) files.push_back(entry.path().string());
  }
  if (ec) {
    std::fprintf(stderr, "cannot list query directory %s: %s\n",
                 queries_dir.c_str(), ec.message().c_str());
    return 2;
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "no query files in %s\n", queries_dir.c_str());
    return 2;
  }

  multi::QuerySetOptions options;
  options.engine.semantics = semantics;
  options.threads = threads > 1 ? static_cast<size_t>(threads) : 1;
  multi::QuerySet set(options);
  set.Bind(g0);

  QuerySetPrintSink sink(print_matches);
  Deadline deadline = timeout_ms > 0 ? Deadline::AfterMillis(timeout_ms)
                                     : Deadline::Infinite();

  Stopwatch init_watch;
  std::vector<std::pair<multi::QueryId, std::string>> registered;
  for (const std::string& path : files) {
    std::optional<QueryGraph> q = ReadQueryFromFile(path);
    if (!q || q->VertexCount() == 0 || q->EdgeCount() == 0 ||
        !q->IsConnected()) {
      std::fprintf(stderr, "skipping %s: not a connected query\n",
                   path.c_str());
      continue;
    }
    multi::QueryId id = 0;
    Status st = set.Register(*q, sink, deadline, &id);
    if (!st.ok()) {
      std::fprintf(stderr, "cannot register %s: %s\n", path.c_str(),
                   st.ToString().c_str());
      return st.code() == StatusCode::kDeadlineExceeded ? 1 : 2;
    }
    registered.emplace_back(id, fs::path(path).filename().string());
  }
  if (registered.empty()) {
    std::fprintf(stderr, "no usable query files in %s\n",
                 queries_dir.c_str());
    return 2;
  }
  double init_seconds = init_watch.ElapsedSeconds();

  Stopwatch stream_watch;
  Status run = Status::Ok();
  const size_t window = batch > 1 ? static_cast<size_t>(batch) : 1;
  for (size_t i = 0; run.ok() && i < stream.size(); i += window) {
    const size_t n = std::min(window, stream.size() - i);
    run = set.ApplyBatch(std::span<const UpdateOp>(stream.data() + i, n),
                         sink, deadline);
  }
  double stream_seconds = stream_watch.ElapsedSeconds();

  if (!stats_mode.empty()) {
    obs::StatsSnapshot snapshot;
    set.AppendStats(snapshot);
    std::printf("%s\n", stats_mode == "csv" ? snapshot.ToCsv().c_str()
                                            : snapshot.ToJson().c_str());
  }

  uint64_t positive = 0, negative = 0;
  for (const auto& [id, name] : registered) {
    multi::QuerySet::QueryCosts costs = set.Costs(id);
    positive += costs.matches_positive;
    negative += costs.matches_negative;
    std::fprintf(stderr,
                 "query q%u file=%s routed=%llu positive=%llu "
                 "negative=%llu\n",
                 id, name.c_str(),
                 static_cast<unsigned long long>(costs.routed_ops),
                 static_cast<unsigned long long>(costs.matches_positive),
                 static_cast<unsigned long long>(costs.matches_negative));
  }
  std::fprintf(
      stderr,
      "engine=queryset queries=%zu runtimes=%zu init=%.3fs stream=%.3fs "
      "ops=%llu routed=%llu consulted=%llu positive=%llu negative=%llu "
      "intermediate=%zu%s\n",
      set.QueryCount(), set.RuntimeCount(), init_seconds, stream_seconds,
      static_cast<unsigned long long>(set.applied_ops()),
      static_cast<unsigned long long>(set.RoutedEvals()),
      static_cast<unsigned long long>(set.ConsultedEvals()),
      static_cast<unsigned long long>(positive),
      static_cast<unsigned long long>(negative), set.IntermediateSize(),
      run.ok() ? "" : " FAILED");
  if (!run.ok()) {
    std::fprintf(stderr, "query-set run failed: %s\n",
                 run.ToString().c_str());
    return 1;
  }
  return 0;
}

std::string GetFlag(int argc, char** argv, const std::string& key,
                    const std::string& fallback) {
  std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
    if (std::string(argv[i]) == "--" + key) return "1";
  }
  return fallback;
}

int Main(int argc, char** argv) {
  std::string graph_path = GetFlag(argc, argv, "graph", "");
  std::string query_path = GetFlag(argc, argv, "query", "");
  std::string queries_dir = GetFlag(argc, argv, "queries", "");
  std::string stream_path = GetFlag(argc, argv, "stream", "");
  std::string engine_name = GetFlag(argc, argv, "engine", "turboflux");
  std::string semantics_name = GetFlag(argc, argv, "semantics", "hom");
  int64_t timeout_ms = std::atoll(
      GetFlag(argc, argv, "timeout_ms", "0").c_str());
  bool print_matches = GetFlag(argc, argv, "print_matches", "0") == "1";
  int64_t threads = std::atoll(GetFlag(argc, argv, "threads", "1").c_str());
  int64_t batch = std::atoll(GetFlag(argc, argv, "batch", "1").c_str());
  bool lenient = GetFlag(argc, argv, "lenient", "0") == "1";
  int64_t checkpoint_every =
      std::atoll(GetFlag(argc, argv, "checkpoint-every", "0").c_str());
  std::string checkpoint_path = GetFlag(argc, argv, "checkpoint-path", "");
  std::string restore_from = GetFlag(argc, argv, "restore-from", "");
  bool resilient = checkpoint_every > 0 || !checkpoint_path.empty() ||
                   !restore_from.empty();
  std::string stats_mode = GetFlag(argc, argv, "stats", "");
  if (stats_mode == "1") stats_mode = "json";  // bare --stats
  int64_t stats_every =
      std::atoll(GetFlag(argc, argv, "stats-every", "0").c_str());
  if (!stats_mode.empty() && stats_mode != "json" && stats_mode != "csv") {
    std::fprintf(stderr, "--stats takes json or csv, got %s\n",
                 stats_mode.c_str());
    return 2;
  }

  if (graph_path.empty() || stream_path.empty() ||
      (query_path.empty() == queries_dir.empty())) {
    std::fprintf(stderr,
                 "usage: tfx_run --graph=G (--query=Q | --queries=DIR) "
                 "--stream=S "
                 "[--engine=turboflux|symbi|sjtree|graphflow|incisomat] "
                 "[--semantics=hom|iso] [--timeout_ms=N] "
                 "[--print_matches] [--threads=N --batch=K with --queries] "
                 "[--lenient] "
                 "[--checkpoint-every=N] [--checkpoint-path=F] "
                 "[--restore-from=F] [--stats[=json|csv]] "
                 "[--stats-every=N]\n");
    return 2;
  }
  if (queries_dir.empty() && (!GetFlag(argc, argv, "threads", "").empty() ||
                              !GetFlag(argc, argv, "batch", "").empty())) {
    std::fprintf(stderr,
                 "--threads/--batch are only supported with --queries\n");
    return 2;
  }
  if (resilient && engine_name != "turboflux" && engine_name != "symbi") {
    std::fprintf(stderr,
                 "--checkpoint-every/--checkpoint-path/--restore-from are "
                 "only supported by --engine=turboflux or --engine=symbi\n");
    return 2;
  }
  if (!queries_dir.empty() && (resilient || engine_name != "turboflux")) {
    std::fprintf(stderr,
                 "--queries only supports --engine=turboflux without "
                 "checkpoint flags\n");
    return 2;
  }

  IoOptions io_options;
  io_options.lenient = lenient;
  IoStats graph_stats, stream_stats;
  Graph g0;
  Status io = ReadGraphFromFile(graph_path, &g0, io_options, &graph_stats);
  if (!io.ok()) {
    std::fprintf(stderr, "cannot read graph %s: %s\n", graph_path.c_str(),
                 io.ToString().c_str());
    return 2;
  }
  std::optional<QueryGraph> q;
  if (queries_dir.empty()) {
    q = ReadQueryFromFile(query_path);
    if (!q || q->VertexCount() == 0 || q->EdgeCount() == 0 ||
        !q->IsConnected()) {
      std::fprintf(stderr, "cannot read a connected query from %s\n",
                   query_path.c_str());
      return 2;
    }
  }
  UpdateStream stream;
  // In lenient mode, additionally screen stream endpoints against the
  // loaded graph so out-of-range ops are dropped at the door.
  if (lenient) io_options.max_vertices = g0.VertexCount();
  io = ReadStreamFromFile(stream_path, &stream, io_options, &stream_stats);
  if (!io.ok()) {
    std::fprintf(stderr, "cannot read stream %s: %s\n", stream_path.c_str(),
                 io.ToString().c_str());
    return 2;
  }
  if (graph_stats.skipped + stream_stats.skipped > 0) {
    std::fprintf(stderr,
                 "lenient: skipped %zu graph and %zu stream records "
                 "(first bad lines %zu / %zu)\n",
                 graph_stats.skipped, stream_stats.skipped,
                 graph_stats.first_bad_line, stream_stats.first_bad_line);
  }

  MatchSemantics semantics = semantics_name == "iso"
                                 ? MatchSemantics::kIsomorphism
                                 : MatchSemantics::kHomomorphism;

  if (!queries_dir.empty()) {
    return RunQuerySet(queries_dir, g0, stream, semantics, timeout_ms,
                       threads, batch, print_matches, stats_mode);
  }

  if (resilient) {
    std::unique_ptr<EngineInterface> resilient_engine;
    if (engine_name == "symbi") {
      symbi::SymBiOptions options;
      options.semantics = semantics;
      resilient_engine = std::make_unique<symbi::SymBiEngine>(options);
    } else {
      TurboFluxOptions options;
      options.semantics = semantics;
      resilient_engine = std::make_unique<TurboFluxEngine>(options);
    }

    PrintSink printer(print_matches);
    CountingSink counter;
    TeeSink sink(&printer, &counter);

    ResilientOptions ro;
    ro.timeout_ms = timeout_ms;
    ro.checkpoint_every =
        checkpoint_every > 0 ? static_cast<size_t>(checkpoint_every) : 0;
    ro.checkpoint_path = checkpoint_path;
    ro.restore_from = restore_from;
    ro.collect_stats = !stats_mode.empty();
    ResilientResult rr =
        RunResilient(*resilient_engine, *q, g0, stream, sink, ro);
    if (rr.stats) {
      std::printf("%s\n", stats_mode == "csv" ? rr.stats->ToCsv().c_str()
                                              : rr.stats->ToJson().c_str());
    }

    std::fprintf(stderr,
                 "engine=%s-resilient stream=%.3fs ops=%llu "
                 "initial=%llu positive=%llu negative=%llu recoveries=%zu "
                 "quarantined=%zu checkpoints=%zu%s\n",
                 engine_name.c_str(), rr.seconds,
                 static_cast<unsigned long long>(rr.ops_consumed),
                 static_cast<unsigned long long>(rr.initial_matches),
                 static_cast<unsigned long long>(counter.positive()),
                 static_cast<unsigned long long>(counter.negative()),
                 rr.recoveries, rr.quarantined, rr.checkpoints,
                 rr.ok ? "" : " FAILED");
    if (!rr.ok) {
      std::fprintf(stderr, "resilient run failed: %s\n",
                   rr.status.ToString().c_str());
      return rr.status.code() == StatusCode::kIoError ? 2 : 1;
    }
    return 0;
  }

  std::unique_ptr<ContinuousEngine> engine;
  if (engine_name == "turboflux") {
    TurboFluxOptions options;
    options.semantics = semantics;
    engine = std::make_unique<TurboFluxEngine>(options);
  } else if (engine_name == "symbi") {
    symbi::SymBiOptions options;
    options.semantics = semantics;
    engine = std::make_unique<symbi::SymBiEngine>(options);
  } else if (engine_name == "sjtree") {
    SjTreeOptions options;
    options.semantics = semantics;
    engine = std::make_unique<SjTreeEngine>(options);
  } else if (engine_name == "graphflow") {
    GraphflowOptions options;
    options.semantics = semantics;
    engine = std::make_unique<GraphflowEngine>(options);
  } else if (engine_name == "incisomat") {
    IncIsoMatOptions options;
    options.semantics = semantics;
    engine = std::make_unique<IncIsoMatEngine>(options);
  } else {
    std::fprintf(stderr, "unknown engine %s\n", engine_name.c_str());
    return 2;
  }

  PrintSink sink(print_matches);
  RunOptions run_options;
  run_options.timeout_ms = timeout_ms;
  run_options.subtract_graph_update_cost = false;
  run_options.collect_stats = !stats_mode.empty();
  run_options.stats_every = stats_every;
  run_options.stats_sink = &std::cerr;
  RunResult r =
      RunContinuous(*engine, *q, g0, stream, sink, run_options);
  if (r.stats) {
    std::printf("%s\n", stats_mode == "csv" ? r.stats->ToCsv().c_str()
                                            : r.stats->ToJson().c_str());
  }

  std::fprintf(stderr,
               "engine=%s init=%.3fs stream=%.3fs ops=%llu initial=%llu "
               "positive=%llu negative=%llu intermediate=%zu%s%s\n",
               engine->name().c_str(), r.init_seconds, r.raw_stream_seconds,
               static_cast<unsigned long long>(r.processed_ops),
               static_cast<unsigned long long>(r.initial_matches),
               static_cast<unsigned long long>(r.positive_matches),
               static_cast<unsigned long long>(r.negative_matches),
               r.final_intermediate, r.timed_out ? " TIMEOUT" : "",
               r.unsupported ? " UNSUPPORTED" : "");
  return r.timed_out || r.unsupported ? 1 : 0;
}

}  // namespace
}  // namespace turboflux

int main(int argc, char** argv) { return turboflux::Main(argc, argv); }
