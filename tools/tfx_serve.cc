// tfx_serve: the resilient continuous-matching ingestion daemon
// (DESIGN.md §3.12).
//
// Loads an initial data graph and a directory of standing queries,
// recovers any prior state in --data_dir, then listens on a TCP port for
// the length-prefixed line protocol (serve/protocol.h): producers submit
// batches of update ops keyed by (channel, seq) and the daemon answers
// OK only after the ops are journaled durably. The matches of each drained
// batch are committed to a durable match log before the next batch runs;
// health/stats/matches are served from the same port.
//
//   tfx_serve --data_dir=DIR --graph=g0.txt --queries=QDIR
//             [--port=N]                (default 7171; 0 = ephemeral)
//             [--queue_cap=N]          (admission queue bound, 4096)
//             [--checkpoint_every=N]   (ops per snapshot, 65536)
//             [--checkpoint_ms=N]      (max wall ms between snapshots, 10000)
//             [--rate_limit=R]         (per-connection ops/sec, 0 = off)
//             [--threads=N]            (query-set evaluation threads)
//             [--semantics=hom|iso]
//
// The two checkpoint flags set the snapshot cadence, which bounds only
// the journal suffix a restart replays; matches never wait for it.
// A --data_dir without snapshot.tfxq is fresh and requires --graph (it
// seeds the store): the first snapshot is written once the queries are
// registered, so a crash before it leaves nothing durable. On restart the
// snapshot in the directory wins and --graph and --queries are ignored
// (the recovered query set is already in the snapshot). Query files are
// registered in sorted filename order with priority = index (later files
// shed first under overload). Stop with SIGINT/SIGTERM: the daemon drains
// the admission queue, snapshots, and exits 0.
//
// Exit status: 0 clean shutdown, 1 runtime failure (including a first
// snapshot that cannot be written), 2 usage/file errors.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "turboflux/graph/graph_io.h"
#include "turboflux/query/query_io.h"
#include "turboflux/serve/server.h"
#include "turboflux/serve/tcp.h"

namespace turboflux {
namespace {

std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

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
  std::string data_dir = GetFlag(argc, argv, "data_dir", "");
  std::string graph_path = GetFlag(argc, argv, "graph", "");
  std::string queries_dir = GetFlag(argc, argv, "queries", "");
  int64_t port = std::atoll(GetFlag(argc, argv, "port", "7171").c_str());
  int64_t queue_cap =
      std::atoll(GetFlag(argc, argv, "queue_cap", "4096").c_str());
  int64_t every =
      std::atoll(GetFlag(argc, argv, "checkpoint_every", "65536").c_str());
  int64_t interval_ms =
      std::atoll(GetFlag(argc, argv, "checkpoint_ms", "10000").c_str());
  double rate_limit =
      std::atof(GetFlag(argc, argv, "rate_limit", "0").c_str());
  int64_t threads = std::atoll(GetFlag(argc, argv, "threads", "1").c_str());
  std::string semantics = GetFlag(argc, argv, "semantics", "hom");

  if (data_dir.empty() || port < 0 || port > 65535 || queue_cap < 1 ||
      every < 1 || interval_ms < 1) {
    std::fprintf(stderr,
                 "usage: tfx_serve --data_dir=DIR --graph=G --queries=QDIR "
                 "[--port=N] [--queue_cap=N] [--checkpoint_every=N] "
                 "[--checkpoint_ms=N] [--rate_limit=R] [--threads=N] "
                 "[--semantics=hom|iso]\n"
                 "  --checkpoint_every/--checkpoint_ms: snapshot cadence in "
                 "ops (65536) and wall ms (10000)\n");
    return 2;
  }

  namespace fs = std::filesystem;
  // Nothing is durable before the first snapshot, so a dir without one is
  // fresh even when a crash during set-up left other files behind.
  const bool fresh = !fs::exists(fs::path(data_dir) / "snapshot.tfxq");
  Graph g0;
  if (fresh) {
    if (graph_path.empty()) {
      std::fprintf(stderr,
                   "fresh data_dir %s needs --graph to seed the store\n",
                   data_dir.c_str());
      return 2;
    }
    Status io = ReadGraphFromFile(graph_path, &g0);
    if (!io.ok()) {
      std::fprintf(stderr, "cannot read graph %s: %s\n", graph_path.c_str(),
                   io.ToString().c_str());
      return 2;
    }
  }

  serve::ServeOptions options;
  options.data_dir = data_dir;
  options.admission.queue_cap = static_cast<size_t>(queue_cap);
  options.checkpoint_every_ops = static_cast<uint64_t>(every);
  options.checkpoint_interval_ms = static_cast<uint32_t>(interval_ms);
  options.rate_limit_per_sec = rate_limit;
  options.set.threads = threads > 1 ? static_cast<size_t>(threads) : 1;
  options.set.engine.semantics = semantics == "iso"
                                     ? MatchSemantics::kIsomorphism
                                     : MatchSemantics::kHomomorphism;

  std::unique_ptr<serve::Server> server;
  Status st = serve::Server::Create(options, fresh ? &g0 : nullptr, &server);
  if (!st.ok()) {
    std::fprintf(stderr, "cannot start server on %s: %s\n", data_dir.c_str(),
                 st.ToString().c_str());
    return 2;
  }

  // Queries live inside the snapshot: on restart the recovered set wins
  // and --queries only seeds a fresh store (re-registering here would
  // duplicate every standing query and its bootstrap matches).
  size_t registered = server->LiveQueryCount();
  if (registered > 0) {
    std::fprintf(stderr, "recovered %zu standing queries from %s\n",
                 registered, data_dir.c_str());
  } else if (!queries_dir.empty()) {
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
    for (const std::string& path : files) {
      std::optional<QueryGraph> q = ReadQueryFromFile(path);
      if (!q || q->VertexCount() == 0 || q->EdgeCount() == 0 ||
          !q->IsConnected()) {
        std::fprintf(stderr, "skipping %s: not a connected query\n",
                     path.c_str());
        continue;
      }
      multi::QueryId id = 0;
      // Priority = registration order: earlier files outlive later ones
      // when the overload controller starts shedding.
      Status reg = server->RegisterQuery(
          *q, static_cast<int>(files.size() - registered), &id);
      if (!reg.ok()) {
        std::fprintf(stderr, "cannot register %s: %s\n", path.c_str(),
                     reg.ToString().c_str());
        return 2;
      }
      std::fprintf(stderr, "registered q%u from %s\n", id, path.c_str());
      ++registered;
    }
  }
  if (registered == 0) {
    std::fprintf(stderr, "warning: serving with no standing queries\n");
  }

  server->Start();
  if (server->died()) {
    std::fprintf(stderr, "cannot write the first snapshot in %s\n",
                 data_dir.c_str());
    return 1;
  }
  serve::TcpServer tcp;
  st = tcp.Listen(*server, static_cast<uint16_t>(port));
  if (!st.ok()) {
    std::fprintf(stderr, "cannot listen on port %lld: %s\n",
                 static_cast<long long>(port), st.ToString().c_str());
    server->Shutdown();
    return 2;
  }
  std::fprintf(stderr, "tfx_serve listening on 127.0.0.1:%u data_dir=%s\n",
               tcp.port(), data_dir.c_str());

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!g_stop && !server->died()) {
    struct timespec ts = {0, 50 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }

  tcp.Stop();
  const bool died = server->died();
  server->Shutdown();
  std::fprintf(stderr,
               "tfx_serve stopped: accepted=%llu committed=%llu%s\n",
               static_cast<unsigned long long>(server->accepted_ops()),
               static_cast<unsigned long long>(server->committed_ops()),
               died ? " DIED" : "");
  return died ? 1 : 0;
}

}  // namespace
}  // namespace turboflux

int main(int argc, char** argv) { return turboflux::Main(argc, argv); }
