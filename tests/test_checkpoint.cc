#include <cstdlib>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "testutil.h"
#include "turboflux/core/turboflux.h"
#include "turboflux/harness/fault_injection.h"
#include "turboflux/multi/query_set.h"

namespace turboflux {
namespace {

std::string CheckpointToString(const TurboFluxEngine& engine) {
  std::ostringstream os;
  Status st = engine.Checkpoint(os);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return os.str();
}

Status RestoreFromString(TurboFluxEngine& engine, const std::string& bytes) {
  std::istringstream is(bytes);
  return engine.Restore(is);
}

/// Builds an engine mid-stream: Init on g0, then apply the first
/// `prefix_ops` stream ops.
void BuildEngine(TurboFluxEngine& engine, const testutil::RandomCase& c,
                 size_t prefix_ops, MatchSink& sink) {
  ASSERT_TRUE(engine.Init(c.query, c.g0, sink, Deadline::Infinite()));
  for (size_t i = 0; i < prefix_ops && i < c.stream.size(); ++i) {
    ASSERT_TRUE(engine.ApplyUpdate(c.stream[i], sink, Deadline::Infinite()));
  }
}

/// The core byte-identity property: a restored engine has the same DCG
/// dump, and produces the same subsequent match stream (same matches, same
/// order) and the same next checkpoint, as the original.
void ExpectByteIdenticalContinuation(uint64_t seed) {
  testutil::RandomCaseConfig cfg;
  cfg.stream_ops = 60;
  testutil::RandomCase c = testutil::MakeRandomCase(seed, cfg);
  const size_t half = c.stream.size() / 2;

  TurboFluxEngine original;
  DiscardSink discard;
  BuildEngine(original, c, half, discard);
  std::string snapshot = CheckpointToString(original);

  TurboFluxEngine restored;
  Status st = RestoreFromString(restored, snapshot);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(restored.applied_ops(), original.applied_ops());
  EXPECT_EQ(restored.dcg().ToString(), original.dcg().ToString());
  EXPECT_EQ(restored.tree().ToString(), original.tree().ToString());
  EXPECT_EQ(restored.matching_order(), original.matching_order());
  EXPECT_TRUE(restored.dcg().Validate().empty());
  EXPECT_TRUE(restored.graph().CheckConsistency().empty());

  // Same checkpoint bytes from the restored engine.
  EXPECT_EQ(CheckpointToString(restored), snapshot);

  // Same subsequent match stream, record for record.
  CollectingSink a, b;
  for (size_t i = half; i < c.stream.size(); ++i) {
    ASSERT_TRUE(original.ApplyUpdate(c.stream[i], a, Deadline::Infinite()));
    ASSERT_TRUE(restored.ApplyUpdate(c.stream[i], b, Deadline::Infinite()));
  }
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.records()[i].positive, b.records()[i].positive) << "at " << i;
    EXPECT_EQ(a.records()[i].mapping, b.records()[i].mapping) << "at " << i;
  }
  EXPECT_EQ(original.dcg().ToString(), restored.dcg().ToString());
}

TEST(Checkpoint, RoundTripIsByteIdenticalSequential) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    ExpectByteIdenticalContinuation(seed);
  }
}

/// Every (query, sign, mapping) report of a QuerySet, in flush order.
class TaggedSink : public multi::QuerySet::Sink {
 public:
  void OnMatch(multi::QueryId query, bool positive,
               const Mapping& m) override {
    records.emplace_back(query, positive, m);
  }
  std::vector<std::tuple<multi::QueryId, bool, Mapping>> records;
};

std::string SetCheckpointToString(const multi::QuerySet& set) {
  std::ostringstream os;
  Status st = set.Checkpoint(os);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return os.str();
}

// The parallel path that takes checkpoints is QuerySet's cross-query
// fan-out. A four-worker set snapshots to the same TFXQ bytes as a
// sequential set with the same history, and a restored four-worker set
// continues record for record and snapshot for snapshot.
TEST(Checkpoint, RoundTripIsByteIdenticalParallel) {
  for (uint64_t seed : {5u, 6u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    testutil::RandomCaseConfig cfg;
    cfg.stream_ops = 60;
    testutil::RandomCase c = testutil::MakeRandomCase(seed, cfg);
    const std::vector<QueryGraph> queries = {
        c.query,
        testutil::MakeRandomCase(seed + 1000, cfg).query,
        testutil::MakeRandomCase(seed + 2000, cfg).query,
    };
    const size_t half = c.stream.size() / 2;
    std::span<const UpdateOp> head(c.stream.data(), half);
    std::span<const UpdateOp> tail(c.stream.data() + half,
                                   c.stream.size() - half);
    const Deadline inf = Deadline::Infinite();

    multi::QuerySetOptions par_opts;
    par_opts.threads = 4;
    par_opts.share_identical = false;
    multi::QuerySetOptions seq_opts = par_opts;
    seq_opts.threads = 1;
    multi::QuerySet par(par_opts), seq(seq_opts);
    for (multi::QuerySet* set : {&par, &seq}) {
      set->Bind(c.g0);
      TaggedSink discard;
      for (const QueryGraph& q : queries) {
        ASSERT_TRUE(set->Register(q, discard, inf, nullptr).ok());
      }
      ASSERT_TRUE(set->ApplyBatch(head, discard, inf).ok());
    }
    const std::string snapshot = SetCheckpointToString(par);
    EXPECT_EQ(SetCheckpointToString(seq), snapshot);

    multi::QuerySet restored(par_opts);
    std::istringstream is(snapshot);
    Status st = restored.Restore(is);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(restored.applied_ops(), par.applied_ops());
    EXPECT_EQ(SetCheckpointToString(restored), snapshot);

    TaggedSink a, b;
    ASSERT_TRUE(par.ApplyBatch(tail, a, inf).ok());
    ASSERT_TRUE(restored.ApplyBatch(tail, b, inf).ok());
    EXPECT_EQ(a.records, b.records);
    EXPECT_EQ(SetCheckpointToString(restored), SetCheckpointToString(par));
  }
}

TEST(Checkpoint, RoundTripWithIsomorphismSemantics) {
  testutil::RandomCase c = testutil::MakeRandomCase(9, {});
  TurboFluxOptions opts;
  opts.semantics = MatchSemantics::kIsomorphism;
  TurboFluxEngine original(opts);
  DiscardSink discard;
  BuildEngine(original, c, c.stream.size() / 2, discard);
  std::string snapshot = CheckpointToString(original);

  TurboFluxEngine restored(opts);
  ASSERT_TRUE(RestoreFromString(restored, snapshot).ok());
  EXPECT_EQ(restored.dcg().ToString(), original.dcg().ToString());

  // Mismatched semantics are rejected, not silently reinterpreted.
  TurboFluxEngine wrong;  // defaults to homomorphism
  Status st = RestoreFromString(wrong, snapshot);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(Checkpoint, CheckpointBeforeInitFails) {
  TurboFluxEngine engine;
  std::ostringstream os;
  EXPECT_EQ(engine.Checkpoint(os).code(), StatusCode::kFailedPrecondition);
}

TEST(Checkpoint, EmptyAndGarbageInputsRejected) {
  TurboFluxEngine engine;
  EXPECT_EQ(RestoreFromString(engine, "").code(), StatusCode::kCorruption);
  TurboFluxEngine engine2;
  EXPECT_EQ(RestoreFromString(engine2, "not a checkpoint at all").code(),
            StatusCode::kCorruption);
}

TEST(Checkpoint, WrongVersionRejected) {
  testutil::RandomCase c = testutil::MakeRandomCase(3, {});
  TurboFluxEngine engine;
  DiscardSink discard;
  BuildEngine(engine, c, 5, discard);
  std::string snapshot = CheckpointToString(engine);
  snapshot[4] = static_cast<char>(0x7f);  // first version byte
  TurboFluxEngine fresh;
  EXPECT_EQ(RestoreFromString(fresh, snapshot).code(),
            StatusCode::kUnsupportedVersion);
}

TEST(Checkpoint, EveryTruncationRejectedCleanly) {
  testutil::RandomCase c = testutil::MakeRandomCase(4, {});
  TurboFluxEngine engine;
  DiscardSink discard;
  BuildEngine(engine, c, 10, discard);
  std::string snapshot = CheckpointToString(engine);
  ASSERT_GT(snapshot.size(), 64u);
  // Step through prefix lengths (stride keeps the loop fast; the section
  // framing makes all truncations within a section equivalent anyway).
  for (size_t len = 0; len < snapshot.size(); len += 7) {
    TurboFluxEngine fresh;
    Status st = RestoreFromString(fresh, snapshot.substr(0, len));
    EXPECT_FALSE(st.ok()) << "prefix of " << len << " bytes accepted";
  }
}

// Fuzz: a single flipped bit anywhere in the snapshot must be rejected
// with a clean Status — CRC32 catches payload flips, framing checks catch
// the rest. Never a crash (the ASan/UBSan CI jobs give this test teeth).
TEST(Checkpoint, EveryBitFlipRejected) {
  testutil::RandomCase c = testutil::MakeRandomCase(5, {});
  TurboFluxEngine engine;
  DiscardSink discard;
  BuildEngine(engine, c, 10, discard);
  const std::string good = CheckpointToString(engine);

  const char* env = std::getenv("TFX_LONG_TESTS");
  const size_t stride = (env != nullptr && env[0] == '1') ? 1 : 13;
  for (size_t off = 0; off < good.size(); off += stride) {
    std::string bad = good;
    ASSERT_TRUE(CorruptSnapshot(bad, off));
    TurboFluxEngine fresh;
    Status st = RestoreFromString(fresh, bad);
    EXPECT_FALSE(st.ok()) << "bit flip at byte " << off << " accepted";
    EXPECT_TRUE(fresh.dead());
  }
}

TEST(Checkpoint, RestoredEngineSurvivesWithoutTheOriginalQuery) {
  // The snapshot must carry the query: restore into an engine whose
  // original QueryGraph has been destroyed, then keep matching.
  testutil::RandomCase c = testutil::MakeRandomCase(6, {});
  std::string snapshot;
  {
    TurboFluxEngine engine;
    DiscardSink discard;
    BuildEngine(engine, c, c.stream.size() / 2, discard);
    snapshot = CheckpointToString(engine);
  }
  auto query = std::make_unique<QueryGraph>(c.query);
  TurboFluxEngine engine;
  CollectingSink sink;
  ASSERT_TRUE(engine.Init(*query, c.g0, sink, Deadline::Infinite()));
  query.reset();  // restored state must not reference this
  ASSERT_TRUE(RestoreFromString(engine, snapshot).ok());
  for (size_t i = c.stream.size() / 2; i < c.stream.size(); ++i) {
    ASSERT_TRUE(engine.ApplyUpdate(c.stream[i], sink, Deadline::Infinite()));
  }
  EXPECT_TRUE(engine.dcg().Validate().empty());
}

}  // namespace
}  // namespace turboflux
