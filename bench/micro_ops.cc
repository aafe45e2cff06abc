// Micro-benchmarks (google-benchmark) of the core primitives:
//
//  * dynamic graph edge insert/probe/delete;
//  * DCG state transitions;
//  * BuildDCG over growing data graphs — Lemma 4.1 predicts
//    O(|E(g)| * |V(q)|), i.e. roughly linear per-edge time as |E| grows;
//  * one InsertEdgeAndEval step on a warm LSBench-like engine.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/experiment.h"
#include "turboflux/common/rng.h"
#include "turboflux/core/turboflux.h"
#include "turboflux/graph/node_graph.h"
#include "turboflux/obs/stats.h"
#include "turboflux/workload/query_gen.h"

namespace turboflux {
namespace bench {

namespace {

void BM_GraphAddRemoveEdge(benchmark::State& state) {
  Graph g;
  for (int i = 0; i < 1000; ++i) g.AddVertex(LabelSet{0});
  Rng rng(1);
  for (auto _ : state) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(1000));
    VertexId b = static_cast<VertexId>(rng.NextBounded(1000));
    if (g.AddEdge(a, 0, b)) {
      benchmark::DoNotOptimize(g.EdgeCount());
      g.RemoveEdge(a, 0, b);
    }
  }
}
BENCHMARK(BM_GraphAddRemoveEdge);

void BM_GraphHasEdge(benchmark::State& state) {
  Graph g;
  for (int i = 0; i < 1000; ++i) g.AddVertex(LabelSet{0});
  Rng rng(2);
  for (int i = 0; i < 20000; ++i) {
    g.AddEdge(static_cast<VertexId>(rng.NextBounded(1000)), 0,
              static_cast<VertexId>(rng.NextBounded(1000)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        g.HasEdge(static_cast<VertexId>(rng.NextBounded(1000)), 0,
                  static_cast<VertexId>(rng.NextBounded(1000))));
  }
}
BENCHMARK(BM_GraphHasEdge);

// Layout A/B twins of the two Graph primitives above, on the preserved
// node-based layout (legacy::NodeGraph) — same op sequences, so
// BM_Graph* / BM_NodeGraph* pairs isolate the §3.11 layout effect.
void BM_NodeGraphAddRemoveEdge(benchmark::State& state) {
  legacy::NodeGraph g;
  for (int i = 0; i < 1000; ++i) g.AddVertex(LabelSet{0});
  Rng rng(1);
  for (auto _ : state) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(1000));
    VertexId b = static_cast<VertexId>(rng.NextBounded(1000));
    if (g.AddEdge(a, 0, b)) {
      benchmark::DoNotOptimize(g.EdgeCount());
      g.RemoveEdge(a, 0, b);
    }
  }
}
BENCHMARK(BM_NodeGraphAddRemoveEdge);

void BM_NodeGraphHasEdge(benchmark::State& state) {
  legacy::NodeGraph g;
  for (int i = 0; i < 1000; ++i) g.AddVertex(LabelSet{0});
  Rng rng(2);
  for (int i = 0; i < 20000; ++i) {
    g.AddEdge(static_cast<VertexId>(rng.NextBounded(1000)), 0,
              static_cast<VertexId>(rng.NextBounded(1000)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        g.HasEdge(static_cast<VertexId>(rng.NextBounded(1000)), 0,
                  static_cast<VertexId>(rng.NextBounded(1000))));
  }
}
BENCHMARK(BM_NodeGraphHasEdge);

// One DCG edge lifecycle: N->I->E->I->N plus the bitmap updates.
void BM_DcgTransitionCycle(benchmark::State& state) {
  QueryGraph q;
  QVertexId u0 = q.AddVertex(LabelSet{0});
  QVertexId u1 = q.AddVertex(LabelSet{1});
  q.AddEdge(u0, 0, u1);
  QueryStats stats;
  stats.edge_matches.assign(1, 1);
  stats.vertex_matches.assign(2, 1);
  QueryTree tree = QueryTree::Build(q, u0, stats);
  Dcg dcg;
  dcg.Reset(16, tree);
  for (auto _ : state) {
    dcg.SetState(0, 1, 1, DcgState::kImplicit);
    dcg.SetState(0, 1, 1, DcgState::kExplicit);
    dcg.SetState(0, 1, 1, DcgState::kImplicit);
    dcg.SetState(0, 1, 1, DcgState::kNull);
    benchmark::DoNotOptimize(dcg.EdgeCount());
  }
}
BENCHMARK(BM_DcgTransitionCycle);

// Lemma 4.1: full-DCG construction over a data graph of |E| edges; the
// reported items_per_second should stay roughly flat as |E| grows.
void BM_BuildDcgScaling(benchmark::State& state) {
  double scale = static_cast<double>(state.range(0)) / 100.0;
  workload::Dataset ds = MakeLsBenchDataset(scale, 0.10, 0.0, 11);
  workload::QueryGenConfig qc;
  qc.shape = workload::QueryShape::kTree;
  qc.num_edges = 6;
  qc.count = 1;
  qc.seed = 5;
  std::vector<QueryGraph> queries = workload::GenerateQueries(ds, qc);
  if (queries.empty()) {
    state.SkipWithError("no query generated");
    return;
  }
  for (auto _ : state) {
    TurboFluxEngine engine;
    CountingSink sink;
    engine.Init(queries[0], ds.initial, sink, Deadline::Infinite());
    benchmark::DoNotOptimize(engine.dcg().EdgeCount());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ds.initial.EdgeCount()));
  state.counters["edges"] = static_cast<double>(ds.initial.EdgeCount());
}
BENCHMARK(BM_BuildDcgScaling)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

// Steady-state insertion cost on a warm engine.
void BM_InsertEdgeAndEval(benchmark::State& state) {
  workload::Dataset ds = MakeLsBenchDataset(0.5, 0.10, 0.0, 13);
  workload::QueryGenConfig qc;
  qc.shape = workload::QueryShape::kTree;
  qc.num_edges = 6;
  qc.count = 1;
  qc.seed = 17;
  std::vector<QueryGraph> queries = workload::GenerateQueries(ds, qc);
  if (queries.empty() || ds.stream.empty()) {
    state.SkipWithError("no query/stream generated");
    return;
  }
  // The benchmark loop may need more iterations than the stream has
  // ops, so cycle: apply every insertion, then delete them all in
  // reverse, and repeat — every iteration is a real state change.
  UpdateStream ops;
  for (const UpdateOp& op : ds.stream) {
    if (op.IsInsert()) ops.push_back(op);
  }
  size_t inserts = ops.size();
  for (size_t i = inserts; i > 0; --i) {
    const UpdateOp& op = ops[i - 1];
    ops.push_back(UpdateOp::Delete(op.from, op.label, op.to));
  }
  TurboFluxEngine engine;
  CountingSink sink;
  engine.Init(queries[0], ds.initial, sink, Deadline::Infinite());
  size_t i = 0;
  for (auto _ : state) {
    (void)engine.ApplyUpdate(ops[i], sink, Deadline::Infinite());
    i = (i + 1) % ops.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_InsertEdgeAndEval);

}  // namespace

// --- Pinned single-op latency config (`--pinned_json=FILE`) ---
//
// A deterministic, benchmark-library-free measurement of single-op
// ApplyUpdate latency on a warm engine, across three dataset scales and
// insert/delete/mixed op mixes. Every latency is recorded twice: into a
// PR 3 log2-bucket HistogramData (what the CI perf-smoke gate compares,
// with its at-most-2x bucket over-estimate) and as an exact nanosecond
// sample (what BENCH_<n>.json layout comparisons report, since a log2
// bucket cannot resolve a 1.5x layout win). The workload, query, seeds,
// and op caps are pinned so two builds of this file measure the same op
// sequence; scripts/perf_smoke.py compares the output against the
// committed BENCH_7.json baseline.

namespace {

struct PinnedMixResult {
  double scale = 0;
  std::string mix;
  std::string engine = "turboflux";
  obs::HistogramData hist;
  std::vector<uint64_t> samples;  // exact ns per op, measurement order
};

/// The lowercase names scripts/perf_smoke.py keys rows by (its default
/// for rows without an "engine" field is "turboflux").
const char* PinnedEngineName(EngineKind kind) {
  return kind == EngineKind::kSymBi ? "symbi" : "turboflux";
}

uint64_t ExactPercentile(std::vector<uint64_t> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double rank = p * static_cast<double>(samples.size() - 1);
  return samples[static_cast<size_t>(rank + 0.5)];
}

void MeasureOps(ContinuousEngine& engine, const std::vector<UpdateOp>& ops,
                double scale, const char* mix, const char* engine_name,
                std::vector<PinnedMixResult>& out) {
  PinnedMixResult r;
  r.scale = scale;
  r.mix = mix;
  r.engine = engine_name;
  r.samples.reserve(ops.size());
  CountingSink sink;
  for (const UpdateOp& op : ops) {
    Stopwatch watch;
    (void)engine.ApplyUpdate(op, sink, Deadline::Infinite());
    double seconds = watch.ElapsedSeconds();
    uint64_t ns =
        seconds <= 0.0 ? 0 : static_cast<uint64_t>(seconds * 1e9);
    r.hist.Record(ns);
    r.samples.push_back(ns);
  }
  out.push_back(std::move(r));
}

// One engine per (scale, mix) tuple so every mix starts from the same
// warm state regardless of which mixes ran before it.
void RunPinnedScale(EngineKind kind, double scale,
                    std::vector<PinnedMixResult>& out) {
  const char* engine_name = PinnedEngineName(kind);
  constexpr size_t kOpsCap = 2000;
  workload::QueryGenConfig qc;
  qc.shape = workload::QueryShape::kTree;
  qc.num_edges = 6;
  qc.count = 1;
  qc.seed = 17;

  // Insert mix: the stream's first kOpsCap insertions; delete mix: the
  // same edges removed in reverse (so every delete hits a present edge).
  workload::Dataset ds = MakeLsBenchDataset(scale, 0.20, 0.0, 13);
  std::vector<QueryGraph> queries = workload::GenerateQueries(ds, qc);
  if (queries.empty()) return;
  std::vector<UpdateOp> inserts;
  for (const UpdateOp& op : ds.stream) {
    if (op.IsInsert()) inserts.push_back(op);
    if (inserts.size() >= kOpsCap) break;
  }
  std::vector<UpdateOp> deletes;
  for (size_t i = inserts.size(); i > 0; --i) {
    const UpdateOp& op = inserts[i - 1];
    deletes.push_back(UpdateOp::Delete(op.from, op.label, op.to));
  }
  {
    std::unique_ptr<ContinuousEngine> engine =
        MakeEngine(kind, MatchSemantics::kHomomorphism);
    CountingSink sink;
    engine->Init(queries[0], ds.initial, sink, Deadline::Infinite());
    MeasureOps(*engine, inserts, scale, "insert", engine_name, out);
    MeasureOps(*engine, deletes, scale, "delete", engine_name, out);
  }

  // Mixed mix: a 30%-deletion stream over the same dataset seed.
  workload::Dataset mixed = MakeLsBenchDataset(scale, 0.20, 0.30, 13);
  std::vector<QueryGraph> mqueries = workload::GenerateQueries(mixed, qc);
  if (mqueries.empty()) return;
  std::vector<UpdateOp> mops;
  for (const UpdateOp& op : mixed.stream) {
    mops.push_back(op);
    if (mops.size() >= kOpsCap) break;
  }
  std::unique_ptr<ContinuousEngine> engine =
      MakeEngine(kind, MatchSemantics::kHomomorphism);
  CountingSink sink;
  engine->Init(mqueries[0], mixed.initial, sink, Deadline::Infinite());
  MeasureOps(*engine, mops, scale, "mixed", engine_name, out);
}

void AppendJsonNumber(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

int RunPinnedConfig(const std::string& path, const std::string& layout,
                    const std::string& engines) {
  std::vector<EngineKind> kinds;
  if (engines.find("turboflux") != std::string::npos) {
    kinds.push_back(EngineKind::kTurboFlux);
  }
  if (engines.find("symbi") != std::string::npos) {
    kinds.push_back(EngineKind::kSymBi);
  }
  if (kinds.empty()) {
    std::fprintf(stderr,
                 "micro_ops: --engines takes a comma list of "
                 "turboflux,symbi; got %s\n",
                 engines.c_str());
    return 1;
  }
  std::vector<PinnedMixResult> results;
  const double scales[] = {0.25, 0.5, 1.0};
  for (EngineKind kind : kinds) {
    for (double s : scales) RunPinnedScale(kind, s, results);
  }

  std::string json = "{\n  \"bench\": \"micro_ops_pinned\",\n";
  json += "  \"layout\": \"" + layout + "\",\n";
  json +=
      "  \"config\": {\"dataset\": \"lsbench\", \"scales\": [0.25, 0.5, "
      "1.0], \"stream_fraction\": 0.2, \"dataset_seed\": 13, "
      "\"query_edges\": 6, \"query_seed\": 17, \"ops_cap\": 2000},\n";
  json += "  \"engine_ops\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const PinnedMixResult& r = results[i];
    json += "    {\"scale\": ";
    AppendJsonNumber(json, r.scale);
    json += ", \"mix\": \"" + r.mix + "\"";
    json += ", \"engine\": \"" + r.engine + "\"";
    json += ", \"ops\": " + std::to_string(r.samples.size());
    json += ", \"hist_p50_ns\": " + std::to_string(r.hist.Percentile(0.50));
    json += ", \"hist_p99_ns\": " + std::to_string(r.hist.Percentile(0.99));
    json += ", \"p50_ns\": " + std::to_string(ExactPercentile(r.samples, 0.50));
    json += ", \"p90_ns\": " + std::to_string(ExactPercentile(r.samples, 0.90));
    json += ", \"p99_ns\": " + std::to_string(ExactPercentile(r.samples, 0.99));
    json += ", \"mean_ns\": ";
    AppendJsonNumber(json, r.hist.Mean());
    json += "}";
    json += i + 1 < results.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  std::ofstream out(path, std::ios::binary);
  out << json;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "micro_ops: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("%s", json.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace turboflux

// BENCHMARK_MAIN rejects unrecognized flags, so strip this binary's own
// flags before handing argv to google-benchmark.
int main(int argc, char** argv) {
  std::string pinned_json;
  std::string layout_name = "current";
  std::string pinned_engines = "turboflux";
  std::vector<char*> filtered;
  filtered.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--pinned_json=", 14) == 0) {
      pinned_json = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--layout_name=", 14) == 0) {
      layout_name = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--engines=", 10) == 0) {
      pinned_engines = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--stats_json=", 13) == 0) {
      // Fleet-wide flag from reproduce_all.sh; microbenchmarks measure
      // wall time only, so the stats artifact does not apply here.
    } else {
      filtered.push_back(argv[i]);
    }
  }
  if (!pinned_json.empty()) {
    return turboflux::bench::RunPinnedConfig(pinned_json, layout_name,
                                             pinned_engines);
  }
  int fargc = static_cast<int>(filtered.size());
  benchmark::Initialize(&fargc, filtered.data());
  if (benchmark::ReportUnrecognizedArguments(fargc, filtered.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
