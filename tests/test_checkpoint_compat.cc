// Byte compatibility of the durable formats.
//
// tests/data/ckpt_node_layout.tfx was written by the pre-rework build,
// whose Graph stored adjacency as std::vector<std::vector<AdjEntry>> and
// edge labels in a std::unordered_map. The CSR/slab rework must (a)
// Restore that snapshot cleanly — the serialized TFX format is layout-
// independent — and (b) reproduce the *same bytes* when an engine built
// from scratch over the same deterministic scenario checkpoints at the
// same stream position. Together these guard the "format unchanged"
// claim: old snapshots keep working, and new snapshots are byte-equal to
// what the old layout would have written.
//
// The other four formats (TFXS, TFXQ, the service's op journal and match
// log) are pinned the same way by the DurableFormat fixtures below, which
// were written by the build before those formats shared one framing
// layer (common/serialize.h).
//
// Regenerating a fixture (only needed if its *scenario* changes, never for
// a refactor): build the old code and run with TFX_REGEN_FIXTURES=1, e.g.
//   TFX_REGEN_FIXTURES=1 ./turboflux_tests
//       --gtest_filter='*RegenerateFixture*'

#include <cstdlib>
#include <fstream>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "testutil.h"
#include "turboflux/common/serialize.h"
#include "turboflux/core/turboflux.h"
#include "turboflux/multi/query_set.h"
#include "turboflux/serve/match_log.h"
#include "turboflux/serve/wal.h"
#include "turboflux/symbi/symbi.h"

namespace turboflux {
namespace {

#ifndef TFX_TEST_DATA_DIR
#error "TFX_TEST_DATA_DIR must be defined by the build (tests/CMakeLists.txt)"
#endif

const char kFixturePath[] = TFX_TEST_DATA_DIR "/ckpt_node_layout.tfx";

// The pinned scenario. Everything here is deterministic and independent
// of graph memory layout: MakeRandomCase only uses the seeded Rng plus
// AddVertex/AddEdge, and the engine's evaluation order is pinned by the
// serialized adjacency/DCG list orders.
constexpr uint64_t kScenarioSeed = 4242;
constexpr size_t kScenarioOps = 80;

testutil::RandomCase MakeScenario() {
  testutil::RandomCaseConfig cfg;
  cfg.stream_ops = kScenarioOps;
  return testutil::MakeRandomCase(kScenarioSeed, cfg);
}

// Init + first half of the stream: the fixture's stream position.
void BuildToFixturePosition(TurboFluxEngine& engine,
                            const testutil::RandomCase& c, MatchSink& sink) {
  ASSERT_TRUE(engine.Init(c.query, c.g0, sink, Deadline::Infinite()));
  for (size_t i = 0; i < c.stream.size() / 2; ++i) {
    ASSERT_TRUE(engine.ApplyUpdate(c.stream[i], sink, Deadline::Infinite()));
  }
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(CheckpointCompat, RegenerateFixture) {
  if (std::getenv("TFX_REGEN_FIXTURES") == nullptr) {
    GTEST_SKIP() << "set TFX_REGEN_FIXTURES=1 to (re)write " << kFixturePath;
  }
  testutil::RandomCase c = MakeScenario();
  TurboFluxEngine engine;
  DiscardSink discard;
  BuildToFixturePosition(engine, c, discard);
  std::ofstream out(kFixturePath, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << kFixturePath;
  Status st = engine.Checkpoint(out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  out.flush();
  ASSERT_TRUE(out.good());
}

TEST(CheckpointCompat, NodeLayoutFixtureRestoresCleanly) {
  std::string fixture = ReadFileOrEmpty(kFixturePath);
  ASSERT_FALSE(fixture.empty()) << "missing fixture " << kFixturePath;

  TurboFluxEngine restored;
  std::istringstream in(fixture);
  Status st = restored.Restore(in);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(restored.applied_ops(), kScenarioOps / 2);
  EXPECT_TRUE(restored.graph().CheckConsistency().empty());
  EXPECT_TRUE(restored.dcg().Validate().empty());
}

TEST(CheckpointCompat, CurrentLayoutWritesIdenticalBytes) {
  std::string fixture = ReadFileOrEmpty(kFixturePath);
  ASSERT_FALSE(fixture.empty()) << "missing fixture " << kFixturePath;

  // A from-scratch engine at the same stream position must checkpoint to
  // exactly the fixture's bytes, whatever its in-memory layout.
  testutil::RandomCase c = MakeScenario();
  TurboFluxEngine fresh;
  DiscardSink discard;
  BuildToFixturePosition(fresh, c, discard);
  std::ostringstream out;
  Status st = fresh.Checkpoint(out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(out.str(), fixture);
}

TEST(CheckpointCompat, RestoredFixtureRoundTripsByteIdentically) {
  std::string fixture = ReadFileOrEmpty(kFixturePath);
  ASSERT_FALSE(fixture.empty()) << "missing fixture " << kFixturePath;

  TurboFluxEngine restored;
  std::istringstream in(fixture);
  ASSERT_TRUE(restored.Restore(in).ok());
  std::ostringstream out;
  ASSERT_TRUE(restored.Checkpoint(out).ok());
  EXPECT_EQ(out.str(), fixture);

  // And the continuation matches a from-scratch engine op for op.
  testutil::RandomCase c = MakeScenario();
  TurboFluxEngine fresh;
  DiscardSink discard;
  BuildToFixturePosition(fresh, c, discard);
  CollectingSink a, b;
  for (size_t i = c.stream.size() / 2; i < c.stream.size(); ++i) {
    ASSERT_TRUE(fresh.ApplyUpdate(c.stream[i], a, Deadline::Infinite()));
    ASSERT_TRUE(restored.ApplyUpdate(c.stream[i], b, Deadline::Infinite()));
  }
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.records()[i].positive, b.records()[i].positive) << "at " << i;
    EXPECT_EQ(a.records()[i].mapping, b.records()[i].mapping) << "at " << i;
  }
}

// --- The other durable formats --------------------------------------

std::string FixturePath(const std::string& file) {
  return std::string(TFX_TEST_DATA_DIR) + "/" + file;
}

// The journal and the match log are written and read through files.
std::string ScratchPath(const std::string& name) {
  return testing::TempDir() + "tfx_compat_" + name;
}

std::string ReadAndRemove(const std::string& path) {
  std::string bytes = ReadFileOrEmpty(path);
  std::remove(path.c_str());
  return bytes;
}

void WriteScratch(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// TFXS: the SymBi engine at the fixture position.
std::string WriteSymBi() {
  testutil::RandomCase c = MakeScenario();
  symbi::SymBiEngine engine;
  DiscardSink discard;
  EXPECT_TRUE(engine.Init(c.query, c.g0, discard, Deadline::Infinite()));
  for (size_t i = 0; i < c.stream.size() / 2; ++i) {
    EXPECT_TRUE(engine.ApplyUpdate(c.stream[i], discard, Deadline::Infinite()));
  }
  std::ostringstream out;
  EXPECT_TRUE(engine.Checkpoint(out).ok());
  return out.str();
}

void CheckSymBi(const std::string& bytes) {
  symbi::SymBiEngine restored;
  std::istringstream in(bytes);
  Status st = restored.Restore(in);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(restored.applied_ops(), kScenarioOps / 2);
  std::ostringstream out;
  ASSERT_TRUE(restored.Checkpoint(out).ok());
  EXPECT_EQ(out.str(), bytes);
}

// Tags every match with the op index it was reported at, as the service
// does before appending it to the match log.
class RecordingSink : public multi::QuerySet::Sink {
 public:
  void OnMatch(multi::QueryId query, bool positive,
               const Mapping& m) override {
    records.push_back(serve::MatchRecord{op_index, query,
                                         static_cast<uint8_t>(positive), m});
  }
  uint64_t op_index = 0;
  std::vector<serve::MatchRecord> records;
};

// The query-set scenario: four registrations (one signature-identical to
// the first, so two share a runtime), the first half of the stream, then
// one deregistration, which leaves a hole in both the ids and the slots.
// *commit_points marks the match count after the registrations and after
// every 10 ops.
void RunQuerySetScenario(multi::QuerySet& set, RecordingSink& sink,
                         std::vector<size_t>* commit_points) {
  testutil::RandomCase c = MakeScenario();
  set.Bind(c.g0);
  const QueryGraph other = testutil::MakeRandomCase(kScenarioSeed + 1, {}).query;
  const QueryGraph third = testutil::MakeRandomCase(kScenarioSeed + 2, {}).query;
  for (const QueryGraph& q : {c.query, other, c.query, third}) {
    multi::QueryId id = 0;
    ASSERT_TRUE(set.Register(q, sink, Deadline::Infinite(), &id).ok());
  }
  commit_points->push_back(sink.records.size());
  for (size_t i = 0; i < c.stream.size() / 2; ++i) {
    sink.op_index = set.applied_ops();
    Status st = set.ApplyUpdate(c.stream[i], sink, Deadline::Infinite());
    ASSERT_NE(st.code(), StatusCode::kDeadlineExceeded);
    if ((i + 1) % 10 == 0) commit_points->push_back(sink.records.size());
  }
  ASSERT_TRUE(set.Deregister(1).ok());
}

std::string WriteQuerySet() {
  multi::QuerySet set;
  RecordingSink sink;
  std::vector<size_t> commit_points;
  RunQuerySetScenario(set, sink, &commit_points);
  std::ostringstream out;
  EXPECT_TRUE(set.Checkpoint(out).ok());
  return out.str();
}

void CheckQuerySet(const std::string& bytes) {
  multi::QuerySet restored;
  std::istringstream in(bytes);
  Status st = restored.Restore(in);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(restored.applied_ops(), kScenarioOps / 2);
  EXPECT_EQ(restored.LiveQueries(), (std::vector<multi::QueryId>{0, 2, 3}));
  std::ostringstream out;
  ASSERT_TRUE(restored.Checkpoint(out).ok());
  EXPECT_EQ(out.str(), bytes);
}

// ops.wal: every op of the scenario stream, alternating two producer
// channels.
std::vector<serve::PendingOp> JournalRecords() {
  testutil::RandomCase c = MakeScenario();
  std::vector<serve::PendingOp> records;
  for (size_t i = 0; i < c.stream.size(); ++i) {
    records.push_back(serve::PendingOp{1 + i % 2, 1 + i / 2, c.stream[i]});
  }
  return records;
}

std::string WriteJournal() {
  const std::string path = ScratchPath("ops.wal");
  std::remove(path.c_str());
  {
    serve::OpJournal journal;
    EXPECT_TRUE(journal.Open(path, 0, 0).ok());
    for (const serve::PendingOp& op : JournalRecords()) {
      EXPECT_TRUE(journal.Append(op, nullptr).ok());
    }
    EXPECT_TRUE(journal.Flush().ok());
  }
  return ReadAndRemove(path);
}

void CheckJournal(const std::string& bytes) {
  const std::string path = ScratchPath("ops_load.wal");
  WriteScratch(path, bytes);
  std::vector<serve::PendingOp> records;
  uint64_t valid_bytes = 0;
  Status st = serve::OpJournal::Load(path, &records, &valid_bytes);
  std::remove(path.c_str());
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(valid_bytes, bytes.size());
  const std::vector<serve::PendingOp> want = JournalRecords();
  ASSERT_EQ(records.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(records[i].channel, want[i].channel) << "record " << i;
    EXPECT_EQ(records[i].seq, want[i].seq) << "record " << i;
    EXPECT_EQ(records[i].op, want[i].op) << "record " << i;
  }
}

// matches.log: the query-set scenario's matches, committed after the
// registrations and then every 10 ops, plus one empty commit at the end.
std::string WriteMatchLog(std::vector<serve::MatchRecord>* all) {
  multi::QuerySet set;
  RecordingSink sink;
  std::vector<size_t> commit_points;
  RunQuerySetScenario(set, sink, &commit_points);
  const std::string path = ScratchPath("matches.log");
  std::remove(path.c_str());
  {
    serve::MatchLog log;
    EXPECT_TRUE(log.Open(path, 0).ok());
    size_t begin = 0;
    for (size_t k = 0; k < commit_points.size(); ++k) {
      std::span<const serve::MatchRecord> block(
          sink.records.data() + begin, commit_points[k] - begin);
      EXPECT_TRUE(log.AppendCommit(block, 10 * k, nullptr).ok());
      begin = commit_points[k];
    }
    EXPECT_TRUE(log.AppendCommit({}, kScenarioOps / 2, nullptr).ok());
  }
  if (all != nullptr) *all = sink.records;
  return ReadAndRemove(path);
}

void CheckMatchLog(const std::string& bytes) {
  const std::string path = ScratchPath("matches_load.log");
  WriteScratch(path, bytes);
  std::vector<serve::MatchRecord> records;
  uint64_t watermark = 0;
  uint64_t valid_bytes = 0;
  Status st = serve::MatchLog::Load(path, &records, &watermark, &valid_bytes);
  std::remove(path.c_str());
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(valid_bytes, bytes.size());
  EXPECT_EQ(watermark, kScenarioOps / 2);
  std::vector<serve::MatchRecord> want;
  (void)WriteMatchLog(&want);
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(records, want);
}

struct DurableFormatCase {
  const char* name;
  const char* file;  // under tests/data
  std::function<std::string()> write;
  std::function<void(const std::string&)> check_load;
};

// Names the case in test listings (ctest shows the instances by name).
void PrintTo(const DurableFormatCase& c, std::ostream* os) { *os << c.name; }

class DurableFormat : public testing::TestWithParam<DurableFormatCase> {};

TEST_P(DurableFormat, RegenerateFixture) {
  const std::string path = FixturePath(GetParam().file);
  if (std::getenv("TFX_REGEN_FIXTURES") == nullptr) {
    GTEST_SKIP() << "set TFX_REGEN_FIXTURES=1 to (re)write " << path;
  }
  const std::string bytes = GetParam().write();
  ASSERT_FALSE(bytes.empty());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out << bytes;
  out.flush();
  ASSERT_TRUE(out.good());
}

TEST_P(DurableFormat, FixtureLoadsCleanly) {
  const std::string fixture = ReadFileOrEmpty(FixturePath(GetParam().file));
  ASSERT_FALSE(fixture.empty()) << "missing fixture " << GetParam().file;
  GetParam().check_load(fixture);
}

TEST_P(DurableFormat, CurrentCodeWritesIdenticalBytes) {
  const std::string fixture = ReadFileOrEmpty(FixturePath(GetParam().file));
  ASSERT_FALSE(fixture.empty()) << "missing fixture " << GetParam().file;
  EXPECT_EQ(GetParam().write(), fixture);
}

INSTANTIATE_TEST_SUITE_P(
    Formats, DurableFormat,
    testing::Values(
        DurableFormatCase{"TFXS", "ckpt_symbi.tfxs", WriteSymBi, CheckSymBi},
        DurableFormatCase{"TFXQ", "ckpt_query_set.tfxq", WriteQuerySet,
                          CheckQuerySet},
        DurableFormatCase{"OpJournal", "serve_ops.wal", WriteJournal,
                          CheckJournal},
        DurableFormatCase{"MatchLog", "serve_matches.log",
                          [] { return WriteMatchLog(nullptr); },
                          CheckMatchLog}));

// --- Snapshot headers ------------------------------------------------
//
// One table over the three snapshot formats: a foreign magic is
// corruption, another version is kUnsupportedVersion, and every
// truncation inside the header or the first section fails cleanly and
// leaves the engine or set dead.

struct SnapshotFormat {
  const char* magic;
  std::string bytes;  // a valid snapshot of the pinned scenario
  // Restores `bytes` into a fresh engine or set; *dead reports whether
  // it is dead afterwards.
  std::function<Status(const std::string& bytes, bool* dead)> restore;
};

template <typename T>
Status RestoreInto(T& target, const std::string& bytes, bool* dead) {
  std::istringstream in(bytes);
  Status st = target.Restore(in);
  *dead = target.dead();
  return st;
}

std::string WriteTurboFlux() {
  testutil::RandomCase c = MakeScenario();
  TurboFluxEngine engine;
  DiscardSink discard;
  BuildToFixturePosition(engine, c, discard);
  std::ostringstream out;
  EXPECT_TRUE(engine.Checkpoint(out).ok());
  return out.str();
}

TEST(CheckpointCompat, HeaderAndFirstSectionDamageIsRejected) {
  const std::vector<SnapshotFormat> formats = {
      {"TFXC", WriteTurboFlux(),
       [](const std::string& b, bool* dead) {
         TurboFluxEngine e;
         return RestoreInto(e, b, dead);
       }},
      {"TFXS", WriteSymBi(),
       [](const std::string& b, bool* dead) {
         symbi::SymBiEngine e;
         return RestoreInto(e, b, dead);
       }},
      {"TFXQ", WriteQuerySet(),
       [](const std::string& b, bool* dead) {
         multi::QuerySet s;
         return RestoreInto(s, b, dead);
       }},
  };
  constexpr size_t kHeader = 8;         // magic + u32 version
  constexpr size_t kSectionFrame = 16;  // u32 tag + u64 size + u32 crc
  for (size_t f = 0; f < formats.size(); ++f) {
    const SnapshotFormat& fmt = formats[f];
    SCOPED_TRACE(fmt.magic);
    ASSERT_EQ(fmt.bytes.compare(0, 4, fmt.magic), 0);
    bool dead = true;
    ASSERT_TRUE(fmt.restore(fmt.bytes, &dead).ok());
    EXPECT_FALSE(dead);

    std::string foreign = fmt.bytes;
    foreign.replace(0, 4, formats[(f + 1) % formats.size()].magic);
    Status st = fmt.restore(foreign, &dead);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
    EXPECT_NE(st.message().find(fmt.magic), std::string::npos)
        << st.ToString();
    EXPECT_TRUE(dead);

    std::string bumped = fmt.bytes;
    bumped[4] = static_cast<char>(bumped[4] + 1);
    st = fmt.restore(bumped, &dead);
    EXPECT_EQ(st.code(), StatusCode::kUnsupportedVersion) << st.ToString();
    EXPECT_TRUE(dead);

    uint64_t first_size = 0;
    bin::Reader size_field(std::string_view(fmt.bytes).substr(kHeader + 4));
    ASSERT_TRUE(size_field.GetU64(&first_size));
    const size_t end = kHeader + kSectionFrame + first_size;
    ASSERT_LT(end, fmt.bytes.size());
    for (size_t len = 0; len < end; ++len) {
      st = fmt.restore(fmt.bytes.substr(0, len), &dead);
      EXPECT_FALSE(st.ok()) << "truncated to " << len;
      EXPECT_TRUE(dead) << "truncated to " << len;
    }
  }
}

}  // namespace
}  // namespace turboflux
