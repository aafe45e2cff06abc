// tfx_bench: the end-to-end benchmark of TurboFlux's serving path and
// engine (README.md in this directory; BENCHMARK.json at the repository
// root lists its workloads and metrics).
//
//   tfx_bench --workload=NAME --seed=N --seconds=S --trace=0|1
//             [--work_dir=DIR] [--trace_dir=DIR] [--out=FILE]
//             [--serve=PATH] [--pins=FILE] [--git_sha=SHA]
//   tfx_bench --smoke [--workload=NAME]
//
// Generates the workload's inputs from the seed. A serve-* workload starts
// tfx_serve on them a few times (set-up time is the median), drives the
// last server over loopback TCP through an open-loop phase, a closed-loop
// phase and a read phase, stops it with SIGTERM, and checks every
// committed match against an in-process oracle. netflow-cyclic runs each
// query through its own TurboFluxEngine, timing every call, and checks the
// match counts against StaticMatcher. --trace=1 adds a traced replay with a
// span around each call into a layer and prints the per-layer metrics.
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics. Exit status: 0 correct, 1 a failed op or a wrong result,
// 2 usage, 3 inputs that differ from the pinned digest.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/experiment.h"
#include "common/flags.h"
#include "library_run.h"
#include "measure.h"
#include "replay.h"
#include "serve_session.h"
#include "turboflux/common/rng.h"
#include "turboflux/common/serialize.h"
#include "turboflux/graph/graph_io.h"
#include "turboflux/multi/query_set.h"
#include "turboflux/query/query_io.h"
#include "turboflux/serve/wal.h"
#include "turboflux/workload/netflow.h"
#include "turboflux/workload/query_gen.h"
#include "turboflux/workload/traffic.h"

namespace turboflux {
namespace e2e {
namespace {

namespace fs = std::filesystem;

// The whole run, set-up included, must end well inside three minutes.
constexpr unsigned kWatchdogSeconds = 175;
// Set-up is timed at least kMinSetups times, and cheap set-ups are repeated
// until they add up to kSetupBudgetSeconds, so the median stays steady.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 9;
constexpr double kSetupBudgetSeconds = 5;
// The netflow flows and its cyclic queries come from this fixed recipe
// seed; the run's seed picks which flows expire when (MakeInputs).
constexpr uint64_t kNetflowRecipeSeed = 7;

/// One workload: its inputs, and for serve-* its server configuration and
/// traffic. Why each exists is recorded in BENCHMARK.json and README.md.
struct Workload {
  const char* name;
  /// Netflow flows and cyclic queries through the library path, else
  /// LSBench and trees through tfx_serve.
  bool netflow;
  double scale;
  double stream_fraction;
  double deletion_rate;
  size_t queries;
  size_t query_edges;
  double prefix_overlap;
  double duplicate_fraction;
  uint64_t max_matches;  ///< per query over g0 and the stream
  size_t stream_ops;     ///< the stream is cut to this many ops; 0: whole
  // tfx_serve workloads only.
  size_t server_threads;
  size_t producers;
  double open_rate;  ///< phase-1 ops/s
  workload::ArrivalShape arrival;
  size_t open_frame;
  size_t closed_frame;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"serve-fleet", false, 3, 0.5, 0.25, 200, 6, 0.5, 0.2, 1000, 0, 2, 2,
       3000, workload::ArrivalShape::kUniform, 64, 64},
      // A commit stalls ingest for ~13 ms every 512 ops. At 5k ops/s that is
      // an eighth of the time, a quarter on a host at half speed, so the
      // median ack stays off the stall.
      {"serve-ingest", false, 4, 0.95, 0.95, 10, 4, 0, 0, 300, 0, 1, 3, 5000,
       workload::ArrivalShape::kPowerLaw, 8, 1},
      // A sliding window over half the flows: one expiry per new flow keeps
      // the graph's density, and every query streams the window's first
      // ops.
      {"netflow-cyclic", true, 6, 0.5, 1.0, 8, 6, 0, 0, 5000, 30000, 0, 0, 0,
       workload::ArrivalShape::kUniform, 0, 0},
  };
  return kWorkloads;
}

/// The toy-size variant --smoke runs: every phase and the oracle, on at
/// most 2k ops and 10 queries.
Workload Smoke(Workload w) {
  w.scale = w.netflow ? 0.25 : 0.3;
  w.queries = std::min<size_t>(w.queries, 10);
  w.open_rate = 1000;
  w.max_matches = ~uint64_t{0};
  w.stream_ops = 2000;
  return w;
}

struct Inputs {
  Graph g0;
  UpdateStream stream;
  std::vector<QueryGraph> queries;
};

/// Counts matches per query and lists the queries whose count just
/// passed `cap`.
class PerQuerySink : public multi::QuerySet::Sink {
 public:
  void OnMatch(multi::QueryId query, bool, const Mapping&) override {
    if (query >= counts.size()) counts.resize(query + 1);
    if (counts[query]++ == cap) over.push_back(query);
  }
  uint64_t cap = 0;
  std::vector<uint64_t> counts;
  std::vector<multi::QueryId> over;
};

/// Keeps the first `keep` candidates that report at most `max_matches`
/// matches over g0 and the stream. Match counts are heavy tailed: one
/// explosive query in a few hundred decides the match volume, and with it
/// the match log, the server's memory and its throughput, differently for
/// every seed. A query is dropped from the pass as soon as it passes the
/// cap, which keeps the pass cheap. Fails when fewer than `keep` qualify.
Status SelectQueries(const workload::Dataset& d,
                     const std::vector<QueryGraph>& candidates, size_t keep,
                     uint64_t max_matches, std::vector<QueryGraph>* out) {
  multi::QuerySet set;
  set.Bind(d.initial);
  PerQuerySink sink;
  sink.cap = max_matches;
  for (const QueryGraph& q : candidates) {
    multi::QueryId id = 0;
    Status st = set.Register(q, sink, Deadline::Infinite(), &id);
    if (!st.ok()) return st;
  }
  std::vector<bool> dropped(candidates.size());
  auto drop = [&] {
    for (multi::QueryId id : sink.over) {
      (void)set.Deregister(id);
      dropped[id] = true;
    }
    sink.over.clear();
  };
  drop();
  for (const UpdateOp& op : d.stream) {
    (void)set.ApplyUpdate(op, sink, Deadline::Infinite());
    drop();
  }
  for (size_t i = 0; i < candidates.size() && out->size() < keep; ++i) {
    if (!dropped[i]) out->push_back(candidates[i]);
  }
  if (out->size() < keep) {
    return Status::FailedPrecondition(
        std::to_string(out->size()) + " of " +
        std::to_string(candidates.size()) + " candidate queries report at " +
        "most " + std::to_string(max_matches) + " matches; " +
        std::to_string(keep) + " are needed");
  }
  return Status::Ok();
}

Status MakeInputs(const Workload& w, uint64_t seed, Inputs* in) {
  const size_t duplicates = static_cast<size_t>(
      static_cast<double>(w.queries) * w.duplicate_fraction + 0.5);
  const size_t distinct = w.queries - duplicates;
  workload::Dataset d;
  Status st;
  if (w.netflow) {
    // The flows and the queries are fixed, so every seed runs the same
    // traffic mix; the seed decides which live flow each expiry (deletion)
    // removes.
    workload::NetflowConfig flows;
    flows.num_hosts = static_cast<uint64_t>(8000 * w.scale);
    flows.num_flows = static_cast<uint64_t>(40000 * w.scale);
    flows.seed = kNetflowRecipeSeed;
    const workload::TemporalGraph temporal = workload::GenerateNetflow(flows);
    workload::StreamConfig split;
    split.stream_fraction = w.stream_fraction;
    split.deletion_rate = w.deletion_rate;
    split.seed = kNetflowRecipeSeed;
    workload::Dataset recipe = workload::BuildDataset(temporal, split);
    if (w.stream_ops > 0) bench::TruncateStream(recipe, w.stream_ops);
    workload::QueryGenConfig qc;
    qc.shape = workload::QueryShape::kGraph;
    qc.num_edges = w.query_edges;
    qc.count = 2 * distinct;
    qc.seed = kNetflowRecipeSeed + w.query_edges;
    st = SelectQueries(recipe, workload::GenerateQueries(recipe, qc),
                       distinct, w.max_matches, &in->queries);
    split.seed = seed;
    d = workload::BuildDataset(temporal, split);
    if (w.stream_ops > 0) bench::TruncateStream(d, w.stream_ops);
  } else {
    d = bench::MakeLsBenchDataset(w.scale, w.stream_fraction,
                                  w.deletion_rate, seed);
    if (w.stream_ops > 0) bench::TruncateStream(d, w.stream_ops);
    workload::QuerySetGenConfig gen;
    gen.base.shape = workload::QueryShape::kTree;
    gen.base.num_edges = w.query_edges;
    gen.base.count = 2 * distinct;
    gen.base.seed = seed + 17;
    gen.base.keep_full_labels = 1.0;
    gen.prefix_overlap = w.prefix_overlap;
    st = SelectQueries(d, workload::GenerateQuerySet(d, gen), distinct,
                       w.max_matches, &in->queries);
  }
  if (!st.ok()) return st;
  // Byte-identical copies of kept queries, as GenerateQuerySet appends
  // them: they exercise the QuerySet's shared-runtime path.
  Rng rng(seed + 23);
  for (size_t i = 0; i < duplicates; ++i) {
    in->queries.push_back(in->queries[rng.NextBounded(distinct)]);
  }
  in->g0 = std::move(d.initial);
  in->stream = std::move(d.stream);
  return Status::Ok();
}

/// Where the inputs were written, and their CRC32 over the bytes written.
struct InputFiles {
  std::string g0;
  std::string stream;
  std::string query_dir;
  std::vector<std::string> queries;
  std::string digest;
};

Status WriteInputs(const Inputs& in, const std::string& dir, InputFiles* out) {
  out->g0 = dir + "/g0.txt";
  out->stream = dir + "/stream.txt";
  out->query_dir = dir + "/queries";
  std::error_code ec;
  fs::create_directories(out->query_dir, ec);
  if (ec) return Status::IoError("cannot create " + out->query_dir);
  std::vector<std::string> files = {out->g0, out->stream};
  bool ok = WriteGraphToFile(in.g0, out->g0) &&
            WriteStreamToFile(in.stream, out->stream);
  for (size_t i = 0; i < in.queries.size() && ok; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "/q%04zu.txt", i);
    out->queries.push_back(out->query_dir + name);
    files.push_back(out->queries.back());
    ok = WriteQueryToFile(in.queries[i], out->queries.back());
  }
  if (!ok) return Status::IoError("cannot write the inputs under " + dir);
  std::string bytes;
  for (const std::string& f : files) {
    std::ifstream file(f, std::ios::binary);
    std::ostringstream os;
    os << file.rdbuf();
    bytes += os.str();
  }
  char hex[16];
  std::snprintf(hex, sizeof(hex), "%08x", bin::Crc32(bytes));
  out->digest = hex;
  return Status::Ok();
}

/// A pins.txt line: "<workload> <seed> <digest> [match counts...]".
struct Pin {
  bool found = false;
  std::string digest;
  std::vector<uint64_t> counts;
};

Pin FindPin(const std::string& path, const std::string& workload,
            uint64_t seed) {
  Pin pin;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    uint64_t pin_seed = 0;
    if (!(fields >> name) || name[0] == '#') continue;
    if (!(fields >> pin_seed >> pin.digest)) continue;
    if (name != workload || pin_seed != seed) continue;
    pin.found = true;
    uint64_t count = 0;
    while (fields >> count) pin.counts.push_back(count);
    return pin;
  }
  return Pin{};
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

struct Outcome {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string digest;
  size_t queries = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> layers;
  std::string error;
  int exit_code = 1;
};

struct Options {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool kill_server_in_phase2 = false;
  std::string work_dir;
  std::string trace_dir;
  std::string serve_path;
  std::string pins_path;
};

std::string TracePath(const Workload& w, const Options& opt) {
  return opt.trace_dir + "/" + w.name + "-seed" + std::to_string(opt.seed) +
         ".trace.json";
}

/// The commit advances HEALTH showed while phase-2 producers were sending.
std::vector<HealthSample> Phase2Commits(const LoadResult& load) {
  std::vector<HealthSample> out;
  for (size_t i = 1; i < load.polls.size(); ++i) {
    const HealthSample& s = load.polls[i];
    if (s.t_ns >= load.phase2_start_ns && s.t_ns <= load.phase2_end_ns &&
        s.committed != load.polls[i - 1].committed) {
      out.push_back(s);
    }
  }
  return out;
}

/// Phase-2 throughput over whole commit cycles: from the first to the last
/// commit advance while the producers were still sending, so neither the
/// ramp-up nor the idle tail after the last op counts.
double MaxOpsPerSecond(const std::vector<HealthSample>& commits) {
  if (commits.size() < 2) return 0;
  return static_cast<double>(commits.back().committed -
                             commits.front().committed) /
         (static_cast<double>(commits.back().t_ns - commits.front().t_ns) /
          1e9);
}

/// netflow-cyclic: the passes give the end-to-end metrics, the traced pass
/// the per-layer ones. On the library path an op is acknowledged and its
/// matches are delivered when ApplyUpdate returns, so the ack and match
/// latencies are both that call's latency.
Status RunLibrary(const Workload& w, const Options& opt, const Inputs& in,
                  const Pin& pin, Outcome* out) {
  LibraryPlan plan;
  plan.g0 = &in.g0;
  plan.queries = &in.queries;
  plan.stream = &in.stream;
  plan.seconds = opt.seconds;
  LibraryResult result;
  Status st = RunLibraryPasses(plan, &result);
  out->attempted = result.attempted;
  out->failed = result.failed;
  if (!st.ok()) return st;
  const double p50 = Median(result.p50_ms);
  const double p99 = Median(result.p99_ms);
  out->metrics = {
      {"setup_s", Median(result.setup_s), "s"},
      {"max_ops_s", Median(result.ops_s), "ops/s"},
      {"ack_p50_ms", p50, "ms"},
      {"match_p50_ms", p50, "ms"},
      {"match_p99_ms", p99, "ms"},
      {"peak_rss_mb", result.peak_rss_mb, "MB"},
  };
  if (opt.trace) {
    std::vector<QueryCounts> traced;
    st = TracedLibraryPass(plan, TracePath(w, opt), &traced, &out->layers);
    if (!st.ok()) return st;
    if (traced != result.counts) {
      return Status::Corruption("the traced pass reported other counts");
    }
  }
  st = VerifyLibraryCounts(plan, result.counts);
  if (!st.ok()) return st;
  std::vector<uint64_t> flat;
  for (const QueryCounts& c : result.counts) {
    flat.insert(flat.end(), {c.initial, c.positive, c.negative});
  }
  if (!pin.counts.empty() && pin.counts != flat) {
    std::string got;
    for (uint64_t c : flat) got += " " + std::to_string(c);
    return Status::Corruption("match counts differ from pins.txt:" + got);
  }
  return Status::Ok();
}

/// serve-*: set-up, phases 1-3 against tfx_serve, the oracle, and with
/// --trace=1 the in-process replay.
Status RunServed(const Workload& w, const Options& opt, const Inputs& in,
                 const InputFiles& files, Outcome* out) {
  // Set-up: spawn → "listening" on a fresh data dir, repeated; the last
  // server is the one measured.
  const double phase1_seconds = opt.seconds / 2;
  const double phase2_seconds = opt.seconds / 2;
  std::vector<double> setups;
  double setup_total = 0;
  std::unique_ptr<ServeProcess> server;
  std::string data_dir;
  Status st;
  for (size_t k = 0; k < kMaxSetups; ++k) {
    data_dir = opt.work_dir + "/data" + std::to_string(k);
    server = std::make_unique<ServeProcess>();
    st = server->Launch(
        {opt.serve_path, "--data_dir=" + data_dir, "--graph=" + files.g0,
         "--queries=" + files.query_dir, "--port=0",
         "--threads=" + std::to_string(w.server_threads)},
        120);
    if (!st.ok()) return st;
    setups.push_back(server->setup_seconds());
    setup_total += server->setup_seconds();
    if (setups.size() >= kMinSetups && setup_total >= kSetupBudgetSeconds) {
      break;
    }
    if (k + 1 == kMaxSetups) break;
    if (server->Stop(SIGTERM, 60) != 0) {
      return Status::FailedPrecondition(
          "tfx_serve did not exit 0 after set-up: " + server->log());
    }
    std::error_code ec;
    fs::remove_all(data_dir, ec);
  }

  workload::ArrivalConfig arrival;
  arrival.shape = w.arrival;
  arrival.mean_gap_us = static_cast<uint64_t>(1e6 / w.open_rate);
  // Finite-variance tail: at alpha <= 2 a seed's few longest gaps decide
  // the match-latency tail (a partial commit waits on the timer).
  arrival.alpha = 2.5;
  arrival.seed = opt.seed;
  std::vector<uint64_t> due_us =
      workload::GenerateArrivalTimes(in.stream.size(), arrival);
  LoadPlan plan;
  plan.stream = &in.stream;
  plan.n1 = static_cast<size_t>(
      std::lower_bound(due_us.begin(), due_us.end(),
                       static_cast<uint64_t>(phase1_seconds * 1e6)) -
      due_us.begin());
  due_us.resize(plan.n1);
  plan.due_us = std::move(due_us);
  plan.open_frame = w.open_frame;
  plan.phase2_seconds = phase2_seconds;
  plan.closed_frame = w.closed_frame;
  plan.producers = w.producers;
  plan.match_log_path = data_dir + "/matches.log";
  plan.record_frames = opt.trace;
  plan.kill_server_in_phase2 = opt.kill_server_in_phase2;

  LoadResult load;
  st = RunLoad(plan, *server, &load);
  out->attempted = load.attempted;
  out->failed = load.failed;
  if (!st.ok()) return Status::Error(st.code(), "load: " + st.message());
  // Peak memory of serving the stream; the reads below load the whole
  // match log per call and would add a spike that depends on its size.
  const double rss_mb = server->PeakRssMb();
  st = ReadPages(plan, *server, &load);
  if (!st.ok()) return Status::Error(st.code(), "read: " + st.message());
  if (const int code = server->Stop(SIGTERM, 60); code != 0) {
    return Status::FailedPrecondition("tfx_serve exited " +
                                      std::to_string(code) +
                                      " after SIGTERM: " + server->log());
  }

  // Verify: the WAL holds exactly the acked ops, and the committed match
  // stream equals the oracle's.
  ServedRun run;
  run.g0_path = files.g0;
  run.query_paths = files.queries;
  run.set_options.threads = w.server_threads;
  uint64_t bytes = 0;
  uint64_t watermark = 0;
  st = serve::OpJournal::Load(data_dir + "/ops.wal", &run.wal, &bytes);
  if (st.ok()) {
    st = serve::MatchLog::Load(plan.match_log_path, &run.matches, &watermark,
                               &bytes);
  }
  std::vector<uint64_t> wal_index(plan.n1, 0);
  for (size_t i = 0; i < run.wal.size() && st.ok(); ++i) {
    const serve::PendingOp& rec = run.wal[i];
    const size_t p = rec.channel - 1;
    if (p >= load.owned.size() || rec.seq == 0 ||
        rec.seq > load.owned[p].size() ||
        !(in.stream[load.owned[p][rec.seq - 1]] == rec.op)) {
      st = Status::Corruption("WAL record " + std::to_string(i) +
                              " is not an op that was sent");
      break;
    }
    const size_t index = load.owned[p][rec.seq - 1];
    if (index < plan.n1) wal_index[index] = i;
  }
  const uint64_t acked = load.attempted - load.failed;
  if (st.ok() && run.wal.size() != acked) {
    st = Status::Corruption("WAL holds " + std::to_string(run.wal.size()) +
                            " ops, " + std::to_string(acked) + " were acked");
  }
  if (st.ok()) st = VerifyAgainstOracle(run);
  if (!st.ok()) return Status::Error(st.code(), "verify: " + st.message());

  // Latency of phase-1 ops due in the middle 80% of the phase: the first
  // tenth warms the server up, and in the last tenth the final partial
  // commit waits on the commit timer because traffic stops.
  const uint64_t edge_us = static_cast<uint64_t>(phase1_seconds * 1e5);
  const uint64_t phase1_us = static_cast<uint64_t>(phase1_seconds * 1e6);
  std::vector<double> ack_ms;
  std::vector<double> match_ms;
  for (size_t i = 0; i < plan.n1; ++i) {
    if (plan.due_us[i] < edge_us ||
        plan.due_us[i] + edge_us >= phase1_us) {
      continue;
    }
    ack_ms.push_back(static_cast<double>(load.ack_ns[i] - load.due_ns[i]) /
                     1e6);
    auto it = std::upper_bound(
        load.polls.begin(), load.polls.end(), wal_index[i],
        [](uint64_t v, const HealthSample& s) { return v < s.committed; });
    if (it != load.polls.end()) {
      match_ms.push_back(static_cast<double>(it->t_ns - load.due_ns[i]) /
                         1e6);
    }
  }
  const std::vector<HealthSample> phase2_commits = Phase2Commits(load);
  const double max_ops_s = MaxOpsPerSecond(phase2_commits);
  out->metrics = {
      {"setup_s", Median(setups), "s"},
      {"max_ops_s", max_ops_s, "ops/s"},
      {"ack_p50_ms", Quantile(ack_ms, 0.50), "ms"},
      {"match_p50_ms", Quantile(match_ms, 0.50), "ms"},
      {"match_p99_ms", Quantile(match_ms, 0.99), "ms"},
      {"peak_rss_mb", rss_mb, "MB"},
  };

  std::vector<double> depths;
  std::vector<double> commit_gaps;
  uint8_t tier_max = 0;
  int64_t last_advance = 0;
  for (size_t i = 0; i < load.polls.size(); ++i) {
    const HealthSample& s = load.polls[i];
    depths.push_back(static_cast<double>(s.depth));
    tier_max = std::max(tier_max, s.tier);
    if (i > 0 && s.committed != load.polls[i - 1].committed) {
      if (last_advance != 0) {
        commit_gaps.push_back(static_cast<double>(s.t_ns - last_advance) /
                              1e6);
      }
      last_advance = s.t_ns;
    }
  }
  out->layers = {
      // The ack tail is the commit stall plus the burst queued behind it,
      // which grows faster than the host slows: too unsteady to gate on
      // (README "Run-to-run spread").
      {"serve.ack_p99_ms", Quantile(ack_ms, 0.99), "ms"},
      {"loadgen.late_p99_ms", Quantile(load.late_ms, 0.99), "ms"},
      {"loadgen.ops_per_frame",
       static_cast<double>(plan.n1) /
           static_cast<double>(std::max<size_t>(1, load.phase1_frames)),
       "ops"},
      {"serve.ping_rtt_us", Median(load.ping_us), "us"},
      {"serve.queue_depth_p99", Quantile(depths, 0.99), "ops"},
      {"serve.retries", static_cast<double>(load.retries), "count"},
      {"serve.tier_max", static_cast<double>(tier_max), "tier"},
      {"serve.commit_interval_ms", Median(commit_gaps), "ms"},
      {"serve.read_page_ms", Median(load.read_ms), "ms"},
  };
  if (!opt.trace) return Status::Ok();
  ReplayPlan replay;
  replay.run = &run;
  replay.frames = &load.frames;
  replay.phase2_first_op = plan.n1;
  replay.max_ops_s = max_ops_s;
  replay.work_dir = opt.work_dir + "/replay";
  replay.match_log_path = plan.match_log_path;
  replay.chrome_trace_path = TracePath(w, opt);
  st = TracedReplay(replay, &out->layers);
  if (!st.ok()) {
    return Status::Error(st.code(), "traced replay: " + st.message());
  }
  return Status::Ok();
}

Outcome RunWorkload(const Workload& w, const Options& opt) {
  Outcome outcome;
  Inputs in;
  Status st = MakeInputs(w, opt.seed, &in);
  if (!st.ok()) {
    outcome.error = "inputs: " + st.ToString();
    return outcome;
  }
  outcome.queries = in.queries.size();
  InputFiles files;
  st = WriteInputs(in, opt.work_dir + "/inputs", &files);
  if (!st.ok()) {
    outcome.error = st.ToString();
    return outcome;
  }
  outcome.digest = files.digest;
  const Pin pin = opt.smoke ? Pin{} : FindPin(opt.pins_path, w.name, opt.seed);
  if (pin.found && pin.digest != files.digest) {
    outcome.error = "inputs digest " + files.digest + " != pinned " +
                    pin.digest + " (the workload generator changed)";
    outcome.exit_code = 3;
    return outcome;
  }
  st = w.netflow ? RunLibrary(w, opt, in, pin, &outcome)
                 : RunServed(w, opt, in, files, &outcome);
  if (!st.ok()) {
    outcome.error = st.ToString();
    return outcome;
  }
  outcome.correct = true;
  outcome.exit_code = 0;
  return outcome;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? ' ' : c;
  }
  return out;
}

/// The result document: ROADMAP item 1's schema, one row per workload.
bool WriteResultFile(const std::string& path, const Workload& w,
                     const Options& opt, const Outcome& o,
                     const std::string& git_sha) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"bench\": \"tfx_bench\", \"config\": {\"workload\": \"" << w.name
      << "\", \"seed\": " << opt.seed << ", \"seconds\": " << Num(opt.seconds)
      << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"smoke\": " << (opt.smoke ? "true" : "false")
      << "}, \"env\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"build\": \"" << TFX_BUILD_TYPE << "\", \"compiler\": \""
      << Escape(__VERSION__) << "\", \"git_sha\": \"" << Escape(git_sha)
      << "\"}, \"correct\": " << (o.correct ? "true" : "false")
      << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
      << ", \"error\": \"" << Escape(o.error)
      << "\", \"rows\": [{\"workload\": \"" << w.name
      << "\", \"inputs_digest\": \"" << o.digest
      << "\", \"queries\": " << o.queries
      << ", \"metrics\": " << MetricsJson(o.metrics)
      << ", \"layers\": " << MetricsJson(o.layers) << "}]}\n";
  return static_cast<bool>(out.flush());
}

int Main(int argc, char** argv) {
  bench::Flags flags(argc, argv,
                     {"workload", "seed", "seconds", "trace", "work_dir",
                      "trace_dir", "out", "serve", "pins", "git_sha", "smoke",
                      "kill_server_in_phase2"});
  Options opt;
  opt.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  opt.smoke = flags.GetBool("smoke", false);
  opt.seconds = flags.GetDouble("seconds", opt.smoke ? 1 : 10);
  opt.trace = flags.GetBool("trace", opt.smoke);
  opt.kill_server_in_phase2 = flags.GetBool("kill_server_in_phase2", false);
  opt.work_dir = flags.GetString(
      "work_dir", "tfx_bench-work-" + std::to_string(::getpid()));
  opt.trace_dir = flags.GetString("trace_dir", ".");
  opt.serve_path = flags.GetString("serve", TFX_SERVE_PATH);
  opt.pins_path = flags.GetString("pins", TFX_BENCH_PINS);
  const std::string only = flags.GetString("workload", "");
  const std::string out_path = flags.GetString("out", "");

  std::vector<Workload> runs;
  for (const Workload& w : Workloads()) {
    if (only.empty() ? opt.smoke : only == w.name) {
      runs.push_back(opt.smoke ? Smoke(w) : w);
    }
  }
  if (runs.empty() || opt.seconds <= 0) {
    std::fprintf(stderr, "usage: tfx_bench --workload=");
    for (const Workload& w : Workloads()) std::fprintf(stderr, "%s|", w.name);
    std::fprintf(stderr, " --seed=N --seconds=S --trace=0|1, or --smoke\n");
    return 2;
  }
  ::alarm(kWatchdogSeconds * static_cast<unsigned>(runs.size()));

  int exit_code = 0;
  std::string last_line;
  for (const Workload& w : runs) {
    Outcome o = RunWorkload(w, opt);
    std::error_code ec;
    fs::remove_all(opt.work_dir, ec);
    const std::vector<Metric> shown =
        !o.correct ? std::vector<Metric>{} : opt.trace ? o.layers : o.metrics;
    std::printf("workload %s seed %llu inputs %s, %zu queries: %s%s\n",
                w.name, static_cast<unsigned long long>(opt.seed),
                o.digest.c_str(), o.queries,
                o.correct ? "correct" : "FAILED ", o.error.c_str());
    for (const Metric& m : o.metrics) {
      std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    for (const Metric& m : o.layers) {
      std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    if (!out_path.empty() &&
        !WriteResultFile(out_path, w, opt, o, flags.GetString("git_sha", ""))) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    }
    last_line = "{\"correct\": " + std::string(o.correct ? "true" : "false") +
                ", \"attempted\": " + std::to_string(o.attempted) +
                ", \"failed\": " + std::to_string(o.failed) +
                ", \"metrics\": " + MetricsJson(shown) + "}";
    if (o.exit_code != 0 && exit_code == 0) exit_code = o.exit_code;
  }
  std::printf("%s\n", last_line.c_str());
  return exit_code;
}

}  // namespace
}  // namespace e2e
}  // namespace turboflux

int main(int argc, char** argv) { return turboflux::e2e::Main(argc, argv); }
