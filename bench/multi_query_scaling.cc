// Multi-query serving scalability (DESIGN.md §3.10): per-update cost of
// serving N standing queries over one LSBench stream, naive fan-out (one
// independent TurboFluxEngine — and thus one private graph copy — per
// query, every query evaluated on every update) vs the multi::QuerySet
// serving layer (one shared graph, per-update routing, signature
// sharing).
//
//   multi_query_scaling [--counts=1,10,100,1000] [--ops=N] [--scale=F]
//                       [--num_edges=K] [--overlap=F] [--dup=F] [--skew=F]
//                       [--churn_every=K] [--out=BENCH_6.json]
//                       [--threads=N] [--batch=K] [--stats_json=F]
//
// For every query count the bench checks per-query match totals are
// IDENTICAL between the two serving layers (the differential suite pins
// the full match streams; this is the cheap end-to-end guard), then
// reports per-op seconds and the consulted-evals counters — the naive
// layer consults every query on every op, the QuerySet only those its
// label route reaches (routed evals) and its vertex index keeps
// (consulted evals), which is where the sublinear scaling comes from.
//
// The largest count additionally runs a registration-churn scenario:
// half the queries start registered and the rest rotate in (one
// Register + one Deregister every --churn_every ops) while the stream
// runs, timing online registration against a live graph.
//
// --out writes the machine-readable artifact (canonical committed copy:
// BENCH_6.json at the repo root).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/experiment.h"
#include "common/flags.h"
#include "turboflux/core/turboflux.h"
#include "turboflux/multi/query_set.h"

namespace turboflux {
namespace bench {
namespace {

struct PerQueryCounts {
  std::vector<std::pair<uint64_t, uint64_t>> counts;  // (positive, negative)

  void Note(uint32_t id, bool positive) {
    if (id >= counts.size()) counts.resize(id + 1, {0, 0});
    if (positive) {
      ++counts[id].first;
    } else {
      ++counts[id].second;
    }
  }
};

/// Adapter routing one engine's untagged matches to a shared per-query
/// tally — the glue that lets N independent engines stand in for the
/// naive one-engine-per-query baseline.
class TaggedSink : public MatchSink {
 public:
  TaggedSink(uint32_t id, PerQueryCounts* counts)
      : id_(id), counts_(counts) {}
  void OnMatch(bool positive, const Mapping&) override {
    counts_->Note(id_, positive);
  }

 private:
  uint32_t id_;
  PerQueryCounts* counts_;
};

class SetSink : public multi::QuerySet::Sink {
 public:
  void OnMatch(multi::QueryId query, bool positive, const Mapping&) override {
    counts.Note(query, positive);
  }
  PerQueryCounts counts;
};

struct PointResult {
  size_t queries = 0;
  size_t runtimes = 0;
  size_t routing_keys = 0;
  size_t ops = 0;
  double naive_init_seconds = 0;
  double naive_stream_seconds = 0;
  uint64_t naive_consulted = 0;
  double set_register_seconds = 0;
  double set_stream_seconds = 0;
  uint64_t set_routed = 0;
  uint64_t set_consulted = 0;
  bool totals_equal = false;
  bool ok = false;
};

/// QuerySet evaluation settings: cross-query worker threads and the
/// update window handed to QuerySet::ApplyBatch.
struct SetRunOptions {
  size_t threads = 1;
  size_t batch = 1;
  std::string stats_json;
};

PointResult RunPoint(const workload::Dataset& dataset,
                     const std::vector<QueryGraph>& queries,
                     const SetRunOptions& options) {
  PointResult r;
  r.queries = queries.size();
  r.ops = dataset.stream.size();
  Deadline deadline = Deadline::Infinite();

  // Naive fan-out baseline: one independent engine (private graph copy)
  // per query; every engine evaluates every update.
  PerQueryCounts naive_counts;
  {
    std::vector<std::unique_ptr<TurboFluxEngine>> engines;
    std::vector<TaggedSink> sinks;
    engines.reserve(queries.size());
    sinks.reserve(queries.size());
    for (uint32_t i = 0; i < queries.size(); ++i) {
      engines.push_back(std::make_unique<TurboFluxEngine>());
      sinks.emplace_back(i, &naive_counts);
    }
    Stopwatch init;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!engines[i]->Init(queries[i], dataset.initial, sinks[i], deadline)) {
        return r;
      }
    }
    r.naive_init_seconds = init.ElapsedSeconds();
    Stopwatch stream;
    for (const UpdateOp& op : dataset.stream) {
      for (size_t i = 0; i < engines.size(); ++i) {
        if (!engines[i]->ApplyUpdate(op, sinks[i], deadline)) return r;
      }
    }
    r.naive_stream_seconds = stream.ElapsedSeconds();
    // The naive layer evaluates every registered query on every op.
    r.naive_consulted =
        static_cast<uint64_t>(queries.size()) * dataset.stream.size();
  }

  // QuerySet serving layer.
  SetSink set_sink;
  {
    multi::QuerySetOptions set_options;
    set_options.threads = options.threads;
    multi::QuerySet set(set_options);
    set.Bind(dataset.initial);
    Stopwatch reg;
    for (const QueryGraph& q : queries) {
      multi::QueryId id = 0;
      if (!set.Register(q, set_sink, deadline, &id).ok()) return r;
    }
    r.set_register_seconds = reg.ElapsedSeconds();
    const size_t window = options.batch;
    Stopwatch stream;
    for (size_t i = 0; i < dataset.stream.size(); i += window) {
      const size_t n = std::min(window, dataset.stream.size() - i);
      Status st = set.ApplyBatch(
          std::span<const UpdateOp>(dataset.stream.data() + i, n), set_sink,
          deadline);
      if (!st.ok()) return r;
    }
    r.set_stream_seconds = stream.ElapsedSeconds();
    r.set_routed = set.RoutedEvals();
    r.set_consulted = set.ConsultedEvals();
    r.runtimes = set.RuntimeCount();
    obs::StatsSnapshot snap;
    set.AppendStats(snap);
    r.routing_keys = static_cast<size_t>(snap.Value("queryset.routing_keys"));
    // --stats_json: the largest point overwrites, so the artifact carries
    // the full per-query cost attribution of the biggest fleet.
    if (!options.stats_json.empty()) {
      std::ofstream f(options.stats_json, std::ios::trunc);
      f << snap.ToJson() << "\n";
    }
  }

  // End-to-end guard: per-query totals must agree exactly.
  size_t n = std::max(naive_counts.counts.size(),
                      set_sink.counts.counts.size());
  naive_counts.counts.resize(n, {0, 0});
  set_sink.counts.counts.resize(n, {0, 0});
  r.totals_equal = naive_counts.counts == set_sink.counts.counts;
  r.ok = true;
  return r;
}

struct ChurnResult {
  size_t ops = 0;
  size_t registrations = 0;
  size_t deregistrations = 0;
  double stream_seconds = 0;
  double register_seconds = 0;
  bool ok = false;
};

/// Half the queries start registered; the rest rotate in one at a time
/// (register the next pending, deregister the oldest live) every
/// `churn_every` ops, against the live mid-stream graph.
ChurnResult RunChurn(const workload::Dataset& dataset,
                     const std::vector<QueryGraph>& queries,
                     size_t churn_every, const SetRunOptions& options) {
  ChurnResult r;
  r.ops = dataset.stream.size();
  if (queries.empty() || churn_every == 0) return r;
  Deadline deadline = Deadline::Infinite();

  multi::QuerySetOptions set_options;
  set_options.threads = options.threads;
  multi::QuerySet set(set_options);
  set.Bind(dataset.initial);
  SetSink sink;

  std::vector<multi::QueryId> live;
  size_t next = 0;
  const size_t initial = std::max<size_t>(1, queries.size() / 2);
  for (; next < initial; ++next) {
    multi::QueryId id = 0;
    if (!set.Register(queries[next], sink, deadline, &id).ok()) return r;
    live.push_back(id);
  }

  // Mid-stream churn time is timed separately so the reported stream
  // seconds cover only update application.
  double churn_seconds = 0;
  Stopwatch stream;
  for (size_t i = 0; i < dataset.stream.size(); ++i) {
    Status st = set.ApplyUpdate(dataset.stream[i], sink, deadline);
    if (st.code() == StatusCode::kDeadlineExceeded) return r;
    if ((i + 1) % churn_every == 0) {
      Stopwatch w;
      multi::QueryId id = 0;
      if (!set.Register(queries[next % queries.size()], sink, deadline, &id)
               .ok()) {
        return r;
      }
      ++next;
      live.push_back(id);
      if (live.size() > 1) {
        if (!set.Deregister(live.front()).ok()) return r;
        live.erase(live.begin());
        ++r.deregistrations;
      }
      churn_seconds += w.ElapsedSeconds();
      ++r.registrations;
    }
  }
  r.stream_seconds = stream.ElapsedSeconds() - churn_seconds;
  r.register_seconds = churn_seconds;
  r.ok = true;
  return r;
}

double PerOp(double seconds, size_t ops) {
  return ops == 0 ? 0.0 : seconds / static_cast<double>(ops);
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv,
              {"counts", "ops", "scale", "num_edges", "overlap", "dup",
               "skew", "keep_full", "churn_every", "out", "seed", "threads",
               "batch"});
  std::vector<int64_t> counts =
      flags.GetIntList("counts", {1, 10, 100, 1000});
  const size_t ops = static_cast<size_t>(flags.GetInt("ops", 400));
  const double scale = flags.GetDouble("scale", 0.5);
  const size_t num_edges = static_cast<size_t>(flags.GetInt("num_edges", 4));
  const double overlap = flags.GetDouble("overlap", 0.5);
  const double dup = flags.GetDouble("dup", 0.2);
  const double skew = flags.GetDouble("skew", 0.0);
  const size_t churn_every =
      static_cast<size_t>(flags.GetInt("churn_every", 25));
  const std::string out_path = flags.GetString("out", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));

  SetRunOptions options;
  options.threads =
      static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("threads", 1)));
  options.batch =
      static_cast<size_t>(std::max<int64_t>(1, flags.GetInt("batch", 1)));
  options.stats_json = flags.StatsJson();

  workload::Dataset dataset =
      MakeLsBenchDataset(scale, /*stream_fraction=*/0.3,
                         /*deletion_rate=*/0.15, seed);
  TruncateStream(dataset, ops);
  std::printf("dataset: |V|=%zu stream=%zu ops\n",
              dataset.initial.VertexCount(), dataset.stream.size());

  const size_t max_count = static_cast<size_t>(
      *std::max_element(counts.begin(), counts.end()));
  workload::QuerySetGenConfig gen;
  gen.base.shape = workload::QueryShape::kTree;
  gen.base.num_edges = num_edges;
  gen.base.count = max_count;
  gen.base.seed = seed + 17;
  // Standing query fleets skew selective (alert patterns, not analytics);
  // mostly-full label sets keep per-query match volume realistic.
  gen.base.keep_full_labels = flags.GetDouble("keep_full", 0.85);
  gen.prefix_overlap = overlap;
  gen.duplicate_fraction = dup;
  gen.label_skew = skew;
  std::vector<QueryGraph> all_queries =
      workload::GenerateQuerySet(dataset, gen);
  std::printf("generated %zu/%zu queries (overlap=%.2f dup=%.2f "
              "skew=%.2f)\n\n",
              all_queries.size(), max_count, overlap, dup, skew);
  if (all_queries.empty()) {
    std::fprintf(stderr, "query generation produced nothing; dataset too "
                         "small for the recipe\n");
    return 1;
  }

  std::vector<PointResult> points;
  for (int64_t count : counts) {
    size_t n = std::min(static_cast<size_t>(count), all_queries.size());
    std::vector<QueryGraph> queries(all_queries.begin(),
                                    all_queries.begin() + n);
    PointResult p = RunPoint(dataset, queries, options);
    points.push_back(p);
    if (!p.ok) {
      std::printf("N=%zu FAILED\n", n);
      continue;
    }
    std::printf(
        "N=%-5zu runtimes=%-5zu naive: %8.2f us/op (consulted %8llu)  "
        "queryset: %8.2f us/op (routed %8llu, consulted %8llu)  "
        "consult-ratio %.2fx  totals %s\n",
        p.queries, p.runtimes, PerOp(p.naive_stream_seconds, p.ops) * 1e6,
        static_cast<unsigned long long>(p.naive_consulted),
        PerOp(p.set_stream_seconds, p.ops) * 1e6,
        static_cast<unsigned long long>(p.set_routed),
        static_cast<unsigned long long>(p.set_consulted),
        p.set_consulted > 0 ? static_cast<double>(p.naive_consulted) /
                                  static_cast<double>(p.set_consulted)
                            : 0.0,
        p.totals_equal ? "EQUAL" : "MISMATCH");
  }

  ChurnResult churn = RunChurn(dataset, all_queries, churn_every, options);
  if (churn.ok) {
    std::printf(
        "\nchurn: %zu ops, %zu mid-stream registrations "
        "(%zu deregistrations), stream %.3fs, avg online register %.3f ms\n",
        churn.ops, churn.registrations, churn.deregistrations,
        churn.stream_seconds,
        churn.registrations > 0
            ? churn.register_seconds * 1e3 /
                  static_cast<double>(churn.registrations)
            : 0.0);
  }

  bool all_equal = true;
  bool all_ok = true;
  for (const PointResult& p : points) {
    all_equal = all_equal && p.totals_equal;
    all_ok = all_ok && p.ok;
  }

  if (!out_path.empty()) {
    std::ofstream f(out_path, std::ios::trunc);
    f << "{\n  \"bench\": \"multi_query_scaling\",\n";
    f << "  \"dataset\": {\"workload\": \"lsbench\", \"scale\": " << scale
      << ", \"ops\": " << dataset.stream.size() << "},\n";
    f << "  \"generator\": {\"num_edges\": " << num_edges
      << ", \"prefix_overlap\": " << overlap
      << ", \"duplicate_fraction\": " << dup << ", \"label_skew\": " << skew
      << ", \"generated\": " << all_queries.size() << "},\n";
    f << "  \"threads\": " << options.threads << ",\n";
    f << "  \"points\": [";
    for (size_t i = 0; i < points.size(); ++i) {
      const PointResult& p = points[i];
      f << (i == 0 ? "\n" : ",\n");
      f << "    {\"queries\": " << p.queries
        << ", \"runtimes\": " << p.runtimes
        << ", \"routing_keys\": " << p.routing_keys << ",\n"
        << "     \"naive_per_op_seconds\": "
        << PerOp(p.naive_stream_seconds, p.ops)
        << ", \"naive_consulted_evals\": " << p.naive_consulted << ",\n"
        << "     \"queryset_per_op_seconds\": "
        << PerOp(p.set_stream_seconds, p.ops)
        << ", \"queryset_routed_evals\": " << p.set_routed
        << ", \"queryset_consulted_evals\": " << p.set_consulted << ",\n"
        << "     \"naive_init_seconds\": " << p.naive_init_seconds
        << ", \"queryset_register_seconds\": " << p.set_register_seconds
        << ",\n     \"match_totals_equal\": "
        << (p.totals_equal ? "true" : "false")
        << ", \"ok\": " << (p.ok ? "true" : "false") << "}";
    }
    f << "\n  ],\n";
    f << "  \"churn\": {\"ok\": " << (churn.ok ? "true" : "false")
      << ", \"ops\": " << churn.ops
      << ", \"registrations\": " << churn.registrations
      << ", \"deregistrations\": " << churn.deregistrations
      << ", \"stream_seconds\": " << churn.stream_seconds
      << ", \"register_seconds\": " << churn.register_seconds << "}\n";
    f << "}\n";
    if (!f.flush()) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", out_path.c_str());
  }

  return all_ok && all_equal ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace turboflux

int main(int argc, char** argv) {
  return turboflux::bench::Main(argc, argv);
}
