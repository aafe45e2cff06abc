#include "common/experiment.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>

#include "turboflux/baseline/graphflow.h"
#include "turboflux/baseline/inc_iso_mat.h"
#include "turboflux/baseline/sj_tree.h"
#include "turboflux/core/turboflux.h"
#include "turboflux/harness/runner.h"
#include "turboflux/symbi/symbi.h"
#include "turboflux/harness/table.h"
#include "turboflux/workload/lsbench.h"
#include "turboflux/workload/netflow.h"

namespace turboflux {
namespace bench {

const char* EngineName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kTurboFlux:
      return "TurboFlux";
    case EngineKind::kSymBi:
      return "SymBi";
    case EngineKind::kSjTree:
      return "SJ-Tree";
    case EngineKind::kGraphflow:
      return "Graphflow";
    case EngineKind::kIncIsoMat:
      return "IncIsoMat";
  }
  return "?";
}

std::unique_ptr<ContinuousEngine> MakeEngine(EngineKind kind,
                                             MatchSemantics semantics) {
  switch (kind) {
    case EngineKind::kTurboFlux: {
      TurboFluxOptions options;
      options.semantics = semantics;
      return std::make_unique<TurboFluxEngine>(options);
    }
    case EngineKind::kSymBi: {
      symbi::SymBiOptions options;
      options.semantics = semantics;
      return std::make_unique<symbi::SymBiEngine>(options);
    }
    case EngineKind::kSjTree: {
      SjTreeOptions options;
      options.semantics = semantics;
      // Memory fuse: cap the notorious blow-up rather than OOM-ing the
      // host; hitting the cap counts as a timeout (the paper's SJ-Tree
      // runs hit a 2h wall instead).
      options.max_tuples = 20u * 1000 * 1000;
      return std::make_unique<SjTreeEngine>(options);
    }
    case EngineKind::kGraphflow: {
      GraphflowOptions options;
      options.semantics = semantics;
      return std::make_unique<GraphflowEngine>(options);
    }
    case EngineKind::kIncIsoMat: {
      IncIsoMatOptions options;
      options.semantics = semantics;
      return std::make_unique<IncIsoMatEngine>(options);
    }
  }
  return nullptr;
}

void ApplyStreamingFlags(const Flags& flags, ExperimentOptions& options) {
  options.stats_json = flags.StatsJson();
}

namespace {

// Process-wide per-engine accumulation for the --stats_json artifact.
// Counters sum and histograms bucket-merge across every run the binary
// executes, so the final file reflects the whole figure, not just the last
// query set.
std::map<std::string, obs::StatsSnapshot>& GlobalEngineStats() {
  static std::map<std::string, obs::StatsSnapshot> stats;
  return stats;
}

// Rewrites the artifact wholesale (latest accumulation wins), so a crash
// mid-figure still leaves a parseable file from the last completed set.
void WriteStatsArtifact(const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  f << "{\n  \"engines\": {";
  bool first = true;
  for (const auto& [name, snap] : GlobalEngineStats()) {
    f << (first ? "\n" : ",\n") << "    \"" << name
      << "\": " << snap.ToJson();
    first = false;
  }
  f << "\n  }\n}\n";
  if (!f.flush()) {
    std::fprintf(stderr, "warning: cannot write stats artifact %s\n",
                 path.c_str());
  }
}

}  // namespace

workload::Dataset MakeLsBenchDataset(double scale, double stream_fraction,
                                     double deletion_rate, uint64_t seed) {
  workload::LsBenchConfig config;
  config.num_users = static_cast<uint64_t>(1000 * scale);
  config.seed = seed;
  workload::StreamConfig sc;
  sc.stream_fraction = stream_fraction;
  sc.deletion_rate = deletion_rate;
  sc.seed = seed + 1;
  return workload::BuildDataset(workload::GenerateLsBench(config), sc);
}

workload::Dataset MakeNetflowDataset(double scale, double stream_fraction,
                                     double deletion_rate, uint64_t seed) {
  // Backbone traces are sparse: many hosts, few flows per host (the
  // paper's Netflow has ~18M triples over an anonymized IP universe).
  workload::NetflowConfig config;
  config.num_hosts = static_cast<uint64_t>(8000 * scale);
  config.num_flows = static_cast<uint64_t>(40000 * scale);
  config.seed = seed;
  workload::StreamConfig sc;
  sc.stream_fraction = stream_fraction;
  sc.deletion_rate = deletion_rate;
  sc.seed = seed + 1;
  return workload::BuildDataset(workload::GenerateNetflow(config), sc);
}

void TruncateStream(workload::Dataset& dataset, size_t ops) {
  if (dataset.stream.size() <= ops) return;
  dataset.stream.resize(ops);
  dataset.final_graph = dataset.initial;
  dataset.stream_insertions.clear();
  for (const UpdateOp& op : dataset.stream) {
    if (ApplyUpdate(dataset.final_graph, op) && op.IsInsert()) {
      dataset.stream_insertions.push_back(op);
    }
  }
}

QuerySetResult RunQuerySet(EngineKind engine_kind,
                           const workload::Dataset& dataset,
                           const std::vector<QueryGraph>& queries,
                           const ExperimentOptions& options) {
  QuerySetResult out;
  out.aggregate = Aggregate0(EngineName(engine_kind));
  for (const QueryGraph& q : queries) {
    std::unique_ptr<ContinuousEngine> engine =
        MakeEngine(engine_kind, options.semantics);
    CountingSink sink;
    RunOptions run_options;
    run_options.timeout_ms = options.timeout_ms;
    run_options.collect_stats = !options.stats_json.empty();
    RunResult r = RunContinuous(*engine, q, dataset.initial, dataset.stream,
                                sink, run_options);
    Accumulate(out.aggregate, r);
    out.per_query_seconds.push_back(
        r.timed_out || r.unsupported ? -1.0 : r.stream_seconds);
    if (r.stats) {
      GlobalEngineStats()[EngineName(engine_kind)].MergeFrom(*r.stats);
    }
  }
  if (!options.stats_json.empty()) WriteStatsArtifact(options.stats_json);
  return out;
}

std::vector<uint64_t> QuerySelectivities(const workload::Dataset& dataset,
                                         const std::vector<QueryGraph>&
                                             queries,
                                         int64_t timeout_ms) {
  std::vector<uint64_t> out;
  for (const QueryGraph& q : queries) {
    TurboFluxEngine engine;
    CountingSink sink;
    RunOptions run_options;
    run_options.timeout_ms = timeout_ms;
    run_options.subtract_graph_update_cost = false;
    RunResult r = RunContinuous(engine, q, dataset.initial, dataset.stream,
                                sink, run_options);
    out.push_back(r.timed_out ? 0 : r.positive_matches);
  }
  return out;
}

FigureReport::FigureReport(std::string x_label)
    : x_label_(std::move(x_label)) {}

void FigureReport::AddRow(const std::string& x_value, EngineKind kind,
                          const QuerySetResult& result) {
  rows_.push_back({x_value, kind, result});
}

void FigureReport::Print() const {
  Table table({x_label_, "engine", "avg cost(M(dg,q))", "avg int. size",
               "completed", "timeout", "pos", "neg"});
  for (const Row& row : rows_) {
    const Aggregate& a = row.result.aggregate;
    table.AddRow(
        {row.x, EngineName(row.kind),
         a.completed > 0 ? Table::FormatSeconds(a.mean_stream_seconds)
                         : "n/a",
         a.completed > 0 ? Table::FormatCount(a.mean_peak_intermediate)
                         : "n/a",
         std::to_string(a.completed),
         std::to_string(a.timed_out + a.unsupported),
         Table::FormatCount(static_cast<double>(a.total_positive)),
         Table::FormatCount(static_cast<double>(a.total_negative))});
  }
  table.Print(std::cout);

  // Pairwise speedups vs TurboFlux per x value, over queries both
  // completed (timed-out queries are excluded, as in the paper).
  for (const Row& row : rows_) {
    if (row.kind == EngineKind::kTurboFlux) continue;
    const Row* tf = nullptr;
    for (const Row& cand : rows_) {
      if (cand.kind == EngineKind::kTurboFlux && cand.x == row.x) tf = &cand;
    }
    if (tf == nullptr) continue;
    std::vector<double> other, mine;
    size_t n = std::min(row.result.per_query_seconds.size(),
                        tf->result.per_query_seconds.size());
    for (size_t i = 0; i < n; ++i) {
      double a = row.result.per_query_seconds[i];
      double b = tf->result.per_query_seconds[i];
      if (a < 0 || b < 0) continue;
      other.push_back(a);
      mine.push_back(b);
    }
    double geo = MeanRatio(other, mine);
    double sum_other = 0, sum_mine = 0;
    for (double s : other) sum_other += s;
    for (double s : mine) sum_mine += s;
    // The paper's headline factors are ratios of the *average* costs
    // (Figure 6a etc.); the geometric mean of per-query ratios is shown
    // alongside as a skew-robust view.
    if (geo > 0 && sum_mine > 0) {
      std::printf("  [%s=%s] TurboFlux outperforms %s by %.2fx "
                  "(avg-cost ratio; geo mean %.2fx over %zu common "
                  "queries)\n",
                  x_label_.c_str(), row.x.c_str(), EngineName(row.kind),
                  sum_other / sum_mine, geo, mine.size());
    }
  }
  std::printf("\n");
}

void PrintScatter(const std::string& title,
                  const std::vector<double>& turboflux_seconds,
                  const std::vector<double>& other_seconds,
                  const std::string& other_name) {
  std::printf("# scatter: %s (columns: query, TurboFlux_sec, %s_sec)\n",
              title.c_str(), other_name.c_str());
  size_t n = std::min(turboflux_seconds.size(), other_seconds.size());
  size_t above = 0, total = 0;
  for (size_t i = 0; i < n; ++i) {
    if (turboflux_seconds[i] < 0 || other_seconds[i] < 0) continue;
    std::printf("  q%-4zu %12.6f %12.6f\n", i, turboflux_seconds[i],
                other_seconds[i]);
    ++total;
    if (other_seconds[i] >= turboflux_seconds[i]) ++above;
  }
  std::printf("  -> TurboFlux at least as fast on %zu/%zu queries\n\n",
              above, total);
}

}  // namespace bench
}  // namespace turboflux
