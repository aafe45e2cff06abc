#include "replay.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>

#include "turboflux/graph/graph_io.h"
#include "turboflux/harness/runner.h"
#include "turboflux/query/query_io.h"
#include "turboflux/serve/protocol.h"
#include "turboflux/serve/server.h"
#include "turboflux/serve/wal.h"

namespace turboflux {
namespace e2e {

namespace {

namespace fs = std::filesystem;

constexpr size_t kNone = std::numeric_limits<size_t>::max();

Status LoadInputs(const ServedRun& run, Graph* g0,
                  std::vector<QueryGraph>* queries) {
  Status st = ReadGraphFromFile(run.g0_path, g0);
  if (!st.ok()) return st;
  for (const std::string& path : run.query_paths) {
    std::optional<QueryGraph> q = ReadQueryFromFile(path);
    if (!q) return Status::Corruption("cannot read query " + path);
    queries->push_back(std::move(*q));
  }
  return Status::Ok();
}

/// Compares each QuerySet callback with the next committed server record.
class CompareSink : public multi::QuerySet::Sink {
 public:
  explicit CompareSink(const std::vector<serve::MatchRecord>& want)
      : want_(want) {}

  void OnMatch(multi::QueryId query, bool positive,
               const Mapping& m) override {
    if (mismatch_ == kNone &&
        (next_ >= want_.size() || want_[next_].op_index != op_index ||
         want_[next_].query != query ||
         want_[next_].positive != (positive ? 1 : 0) ||
         want_[next_].mapping != m)) {
      mismatch_ = next_;
    }
    ++next_;
  }

  uint64_t op_index = 0;
  size_t produced() const { return next_; }
  size_t mismatch() const { return mismatch_; }

 private:
  const std::vector<serve::MatchRecord>& want_;
  size_t next_ = 0;
  size_t mismatch_ = kNone;
};

/// Tags callbacks with the op index, as the server's own sink does.
class RecordSink : public multi::QuerySet::Sink {
 public:
  void OnMatch(multi::QueryId query, bool positive,
               const Mapping& m) override {
    serve::MatchRecord rec;
    rec.op_index = op_index;
    rec.query = query;
    rec.positive = positive ? 1 : 0;
    rec.mapping = m;
    records.push_back(std::move(rec));
  }

  uint64_t op_index = 0;
  std::vector<serve::MatchRecord> records;
};

/// Sum of every runtime's engine counter `name` ("search_states", ...).
uint64_t EngineCounterSum(const multi::QuerySet& set, const std::string& name) {
  obs::StatsSnapshot snap;
  set.AppendStats(snap);
  const std::string suffix = ".engine." + name;
  uint64_t sum = 0;
  for (const auto& [key, value] : snap.counters) {
    if (key.size() > suffix.size() &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
      sum += value;
    }
  }
  return sum;
}

}  // namespace

Status VerifyAgainstOracle(const ServedRun& run) {
  Graph g0;
  std::vector<QueryGraph> queries;
  Status st = LoadInputs(run, &g0, &queries);
  if (!st.ok()) return st;
  multi::QuerySetOptions options = run.set_options;
  options.threads = 1;  // evaluation threads never change the output
  multi::QuerySet set(options);
  set.Bind(g0);
  CompareSink sink(run.matches);
  for (const QueryGraph& q : queries) {
    sink.op_index = set.applied_ops();
    multi::QueryId id = 0;
    st = set.Register(q, sink, Deadline::Infinite(), &id);
    if (!st.ok()) return st;
  }
  for (const serve::PendingOp& rec : run.wal) {
    sink.op_index = set.applied_ops();
    st = set.ApplyUpdate(rec.op, sink, Deadline::Infinite());
    if (st.code() == StatusCode::kDeadlineExceeded) return st;
  }
  if (sink.mismatch() != kNone) {
    return Status::Corruption("match record " +
                              std::to_string(sink.mismatch()) +
                              " differs from the oracle");
  }
  if (sink.produced() != run.matches.size()) {
    return Status::Corruption(
        "the oracle produced " + std::to_string(sink.produced()) +
        " match records, the server committed " +
        std::to_string(run.matches.size()));
  }
  return Status::Ok();
}

Status TracedReplay(const ReplayPlan& plan, std::vector<Metric>* layers) {
  const ServedRun& run = *plan.run;
  Graph g0;
  std::vector<QueryGraph> queries;
  Status st = LoadInputs(run, &g0, &queries);
  if (!st.ok()) return st;
  UpdateStream ops;
  for (const serve::PendingOp& rec : run.wal) ops.push_back(rec.op);

  std::error_code ec;
  fs::create_directories(plan.work_dir, ec);
  const std::string log_path = plan.work_dir + "/matches.log";
  const std::string snapshot_path = plan.work_dir + "/snapshot.tfxq";
  serve::OpJournal wal;
  st = wal.Open(plan.work_dir + "/ops.wal", 0, 0);
  if (!st.ok()) return st;
  serve::MatchLog log;
  st = log.Open(log_path, 0);
  if (!st.ok()) return st;

  multi::QuerySet set(run.set_options);
  set.Bind(g0);
  RecordSink sink;
  Tracer tracer;
  std::vector<double> snapshot_bytes;
  size_t peak_dcg_edges = set.IntermediateSize();

  // Server::Commit's order: the match log first, then the snapshot is
  // written to a temp file and renamed over the last one.
  auto commit = [&](const char* log_span, const char* snapshot_span,
                    uint64_t request, std::vector<double>* sizes) {
    {
      ScopedSpan span(tracer, log_span, request);
      Status c = log.AppendCommit(sink.records, set.applied_ops(), nullptr);
      if (!c.ok()) return c;
    }
    sink.records.clear();
    ScopedSpan span(tracer, snapshot_span, request);
    const std::string tmp = snapshot_path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      Status c = set.Checkpoint(out);
      if (!c.ok()) return c;
      if (!out.flush()) return Status::IoError("snapshot write failed");
      if (sizes != nullptr) sizes->push_back(static_cast<double>(out.tellp()));
    }
    std::error_code rename_ec;
    fs::rename(tmp, snapshot_path, rename_ec);
    if (rename_ec) return Status::IoError("snapshot rename failed");
    peak_dcg_edges = std::max(peak_dcg_edges, set.IntermediateSize());
    return Status::Ok();
  };

  const int64_t replay_start = NowNs();
  {
    ScopedSpan root(tracer, "replay.register");
    for (size_t i = 0; i < queries.size() && st.ok(); ++i) {
      sink.op_index = set.applied_ops();
      multi::QueryId id = 0;
      {
        ScopedSpan span(tracer, "multi.register", i);
        st = set.Register(queries[i], sink, Deadline::Infinite(), &id);
      }
      if (st.ok()) {
        st = commit("serve.register_log_commit", "multi.register_snapshot", i,
                    nullptr);
      }
    }
  }
  if (!st.ok()) return st;
  const uint64_t log_bytes_registered = fs::file_size(log_path, ec);
  const char* kCounters[] = {"search_states", "search_seeds",
                             "matches_positive", "matches_negative",
                             "dcg.transitions"};
  std::map<std::string, uint64_t> counters_before;
  for (const char* c : kCounters) counters_before[c] = EngineCounterSum(set, c);
  const uint64_t consulted_before = set.ConsultedEvals();

  {
    ScopedSpan root(tracer, "replay.parse");
    for (size_t f = 0; f < plan.frames->size() && st.ok(); ++f) {
      ScopedSpan span(tracer, "serve.parse", f);
      serve::Request request;
      st = serve::ParseRequest((*plan.frames)[f], &request);
    }
  }
  if (!st.ok()) return st;

  const serve::ServeOptions server_defaults;
  {
    ScopedSpan root(tracer, "replay.stream");
    size_t since_commit = 0;
    for (size_t b = 0; b < run.wal.size() && st.ok();
         b += server_defaults.batch_window) {
      const size_t e =
          std::min(run.wal.size(), b + server_defaults.batch_window);
      {
        ScopedSpan span(tracer, "serve.wal_append", b);
        for (size_t i = b; i < e && st.ok(); ++i) {
          st = wal.Append(run.wal[i], nullptr);
        }
      }
      if (st.ok()) {
        ScopedSpan span(tracer, "serve.wal_flush", b);
        st = wal.Flush();
      }
      for (size_t i = b; i < e && st.ok(); ++i) {
        {
          ScopedSpan span(tracer, "multi.apply", i);
          sink.op_index = set.applied_ops();
          Status apply = set.ApplyUpdate(run.wal[i].op, sink,
                                         Deadline::Infinite());
          if (apply.code() == StatusCode::kDeadlineExceeded) st = apply;
        }
        if (st.ok() &&
            ++since_commit == server_defaults.checkpoint_every_ops) {
          ScopedSpan span(tracer, "serve.commit", i);
          st = commit("serve.matchlog_commit", "multi.snapshot", i,
                      &snapshot_bytes);
          since_commit = 0;
        }
      }
    }
    if (st.ok() && since_commit > 0) {
      ScopedSpan span(tracer, "serve.commit", run.wal.size() - 1);
      st = commit("serve.matchlog_commit", "multi.snapshot",
                  run.wal.size() - 1, &snapshot_bytes);
    }
  }
  if (!st.ok()) return st;
  const uint64_t log_bytes_stream =
      fs::file_size(log_path, ec) - log_bytes_registered;
  wal.Close();
  log.Close();
  {
    ScopedSpan span(tracer, "serve.matches_load");
    std::vector<serve::MatchRecord> records;
    uint64_t watermark = 0;
    uint64_t bytes = 0;
    st = serve::MatchLog::Load(plan.match_log_path, &records, &watermark,
                               &bytes);
  }
  if (!st.ok()) return st;
  double mutate_s = 0;
  {
    ScopedSpan span(tracer, "graph.mutate");
    mutate_s = MeasureGraphUpdateSeconds(g0, ops);
  }
  const double replay_ns = static_cast<double>(NowNs() - replay_start);

  // Per-name totals of duration and self time; apply durations for the
  // percentiles; and the serial ingest work behind phase-2 ops.
  struct Total {
    size_t count = 0;
    double ns = 0;
  };
  std::map<std::string, Total> totals;
  std::vector<double> apply_us;
  double phase2_self_ns = 0;
  const std::vector<int64_t> self = tracer.SelfNs();
  const std::vector<Tracer::Span>& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    const std::string name = s.name;
    Total& t = totals[name];
    ++t.count;
    t.ns += static_cast<double>(s.end_ns - s.start_ns);
    if (name == "multi.apply") {
      apply_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
    const bool ingest = name == "serve.wal_append" ||
                        name == "serve.wal_flush" || name == "multi.apply" ||
                        name == "serve.commit" ||
                        name == "serve.matchlog_commit" ||
                        name == "multi.snapshot";
    if (ingest && s.request >= plan.phase2_first_op) {
      phase2_self_ns += static_cast<double>(self[i]);
    }
  }
  auto mean = [&](const char* name) {
    const Total& t = totals[name];
    return t.count == 0 ? 0.0 : t.ns / static_cast<double>(t.count);
  };
  const double n = static_cast<double>(std::max<size_t>(1, run.wal.size()));
  const double n2 = static_cast<double>(
      std::max<size_t>(1, run.wal.size() - std::min(run.wal.size(),
                                                    plan.phase2_first_op)));
  auto per_op = [&](const char* counter) {
    return static_cast<double>(EngineCounterSum(set, counter) -
                               counters_before[counter]) / n;
  };
  double snapshot_mean_bytes = 0;
  for (double b : snapshot_bytes) snapshot_mean_bytes += b;
  if (!snapshot_bytes.empty()) snapshot_mean_bytes /= snapshot_bytes.size();

  const std::vector<Metric> metrics = {
      {"serve.parse_us_per_frame", mean("serve.parse") / 1e3, "us"},
      {"serve.wal_append_ns_per_op", totals["serve.wal_append"].ns / n, "ns"},
      {"serve.wal_flush_us", mean("serve.wal_flush") / 1e3, "us"},
      {"multi.apply_us_p50", Quantile(apply_us, 0.50), "us"},
      {"multi.apply_us_p99", Quantile(apply_us, 0.99), "us"},
      {"serve.matchlog_commit_ms", mean("serve.matchlog_commit") / 1e6, "ms"},
      {"serve.matchlog_bytes_per_op", static_cast<double>(log_bytes_stream) / n,
       "B/op"},
      {"multi.snapshot_ms", mean("multi.snapshot") / 1e6, "ms"},
      {"multi.snapshot_mb", snapshot_mean_bytes / 1e6, "MB"},
      {"multi.register_ms", mean("multi.register") / 1e6, "ms"},
      {"multi.register_snapshot_ms", mean("multi.register_snapshot") / 1e6,
       "ms"},
      // Register runs the engine's Init against the shared graph.
      {"core.init_s_per_query", mean("multi.register") / 1e9, "s"},
      {"serve.matches_load_ms", mean("serve.matches_load") / 1e6, "ms"},
      {"replay.accounted_frac", phase2_self_ns / n2 / 1e9 * plan.max_ops_s,
       "fraction"},
      {"graph.mutate_ns_per_op", mutate_s * 1e9 / n, "ns"},
      {"core.eval_ns_per_op",
       (totals["multi.apply"].ns - mutate_s * 1e9) / n, "ns"},
      {"core.search_states_per_op", per_op("search_states"), "states/op"},
      {"core.search_seeds_per_op", per_op("search_seeds"), "seeds/op"},
      {"core.matches_per_op",
       per_op("matches_positive") + per_op("matches_negative"), "matches/op"},
      {"core.dcg_transitions_per_op", per_op("dcg.transitions"),
       "transitions/op"},
      {"multi.consulted_per_op",
       static_cast<double>(set.ConsultedEvals() - consulted_before) / n,
       "evals/op"},
      {"core.peak_dcg_edges", static_cast<double>(peak_dcg_edges), "edges"},
      {"trace.overhead_frac",
       SpanCostNs() * static_cast<double>(spans.size()) / replay_ns,
       "fraction"},
  };
  layers->insert(layers->end(), metrics.begin(), metrics.end());
  if (!tracer.WriteChromeTrace(plan.chrome_trace_path)) {
    return Status::IoError("cannot write " + plan.chrome_trace_path);
  }
  return Status::Ok();
}

}  // namespace e2e
}  // namespace turboflux
