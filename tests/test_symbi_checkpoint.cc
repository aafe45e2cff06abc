// SymBi checkpoint/restore tests (ISSUE 9 satellite): byte-identical
// round trips, corruption/truncation fuzz (clean failures, never crashes),
// and the continuation property — a restored engine's subsequent match
// stream is byte-for-byte the original's.

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "testutil.h"
#include "turboflux/core/recovery.h"
#include "turboflux/core/turboflux.h"
#include "turboflux/harness/fault_injection.h"
#include "turboflux/symbi/symbi.h"

namespace turboflux {
namespace symbi {
namespace {

bool LongTests() {
  const char* env = std::getenv("TFX_LONG_TESTS");
  return env != nullptr && env[0] == '1';
}

/// Init + applies the first `prefix` ops, then returns the snapshot bytes.
std::string SnapshotAfterPrefix(SymBiEngine& engine,
                                const testutil::RandomCase& c,
                                size_t prefix) {
  CountingSink init;
  EXPECT_TRUE(engine.Init(c.query, c.g0, init, Deadline::Infinite()));
  DiscardSink discard;
  for (size_t i = 0; i < prefix && i < c.stream.size(); ++i) {
    EXPECT_TRUE(
        engine.ApplyUpdate(c.stream[i], discard, Deadline::Infinite()));
  }
  std::ostringstream out;
  EXPECT_TRUE(engine.Checkpoint(out).ok());
  return out.str();
}

TEST(SymBiCheckpoint, RoundTripIsByteIdentical) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    testutil::RandomCase c = testutil::MakeRandomCase(seed, {});
    SymBiEngine engine;
    const std::string bytes = SnapshotAfterPrefix(engine, c, 15);

    SymBiEngine restored;
    std::istringstream in(bytes);
    ASSERT_TRUE(restored.Restore(in).ok());
    EXPECT_EQ(restored.applied_ops(), engine.applied_ops());
    EXPECT_EQ(restored.dag().order(), engine.dag().order());
    EXPECT_EQ(restored.dcs().Compare(engine.dcs()), "");

    std::ostringstream again;
    ASSERT_TRUE(restored.Checkpoint(again).ok());
    EXPECT_EQ(again.str(), bytes);
  }
}

TEST(SymBiCheckpoint, RestoredEngineContinuesIdentically) {
  const uint64_t seeds = LongTests() ? 40 : 10;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    for (size_t prefix : {0u, 5u, 17u, 29u}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " prefix=" + std::to_string(prefix));
      testutil::RandomCase c = testutil::MakeRandomCase(seed, {});

      // Reference: uninterrupted run, recording the suffix's records.
      SymBiEngine reference;
      CountingSink init;
      ASSERT_TRUE(reference.Init(c.query, c.g0, init, Deadline::Infinite()));
      DiscardSink discard;
      CollectingSink want;
      for (size_t i = 0; i < c.stream.size(); ++i) {
        MatchSink& sink = i < prefix ? static_cast<MatchSink&>(discard)
                                     : static_cast<MatchSink&>(want);
        ASSERT_TRUE(
            reference.ApplyUpdate(c.stream[i], sink, Deadline::Infinite()));
      }

      // Snapshot at the prefix point, restore into a fresh engine, replay
      // the suffix: records must match in exact order, not just multiset.
      SymBiEngine original;
      const std::string bytes = SnapshotAfterPrefix(original, c, prefix);
      SymBiEngine restored;
      std::istringstream in(bytes);
      ASSERT_TRUE(restored.Restore(in).ok());
      ASSERT_EQ(restored.applied_ops(), prefix);
      CollectingSink got;
      for (size_t i = prefix; i < c.stream.size(); ++i) {
        ASSERT_TRUE(
            restored.ApplyUpdate(c.stream[i], got, Deadline::Infinite()));
      }
      ASSERT_EQ(want.size(), got.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want.records()[i].positive, got.records()[i].positive)
            << "record " << i;
        EXPECT_EQ(want.records()[i].mapping, got.records()[i].mapping)
            << "record " << i;
      }
      EXPECT_EQ(restored.dcs().Compare(reference.dcs()), "");
    }
  }
}

TEST(SymBiCheckpoint, BitFlipFuzzFailsCleanly) {
  testutil::RandomCase c = testutil::MakeRandomCase(11, {});
  SymBiEngine engine;
  const std::string bytes = SnapshotAfterPrefix(engine, c, 12);
  ASSERT_FALSE(bytes.empty());

  // Every header byte, and a stride through the body (every byte under
  // TFX_LONG_TESTS): each single-bit flip must be rejected without
  // crashing, and the failed engine must be revivable by a good snapshot.
  const size_t stride = LongTests() ? 1 : 7;
  for (size_t i = 0; i < bytes.size(); i += (i < 16 ? 1 : stride)) {
    SCOPED_TRACE("flip byte " + std::to_string(i));
    std::string corrupt = bytes;
    ASSERT_TRUE(CorruptSnapshot(corrupt, i));
    SymBiEngine victim;
    std::istringstream in(corrupt);
    Status st = victim.Restore(in);
    EXPECT_FALSE(st.ok());
    EXPECT_TRUE(victim.dead());
    std::istringstream good(bytes);
    ASSERT_TRUE(victim.Restore(good).ok());
    EXPECT_FALSE(victim.dead());
  }
}

TEST(SymBiCheckpoint, TruncationFailsCleanly) {
  testutil::RandomCase c = testutil::MakeRandomCase(13, {});
  SymBiEngine engine;
  const std::string bytes = SnapshotAfterPrefix(engine, c, 12);

  const size_t stride = LongTests() ? 1 : 11;
  for (size_t len = 0; len < bytes.size(); len += stride) {
    SCOPED_TRACE("truncate to " + std::to_string(len));
    SymBiEngine victim;
    std::istringstream in(bytes.substr(0, len));
    EXPECT_FALSE(victim.Restore(in).ok());
    EXPECT_TRUE(victim.dead());
  }
}

TEST(SymBiCheckpoint, RejectsForeignAndMismatchedSnapshots) {
  testutil::RandomCase c = testutil::MakeRandomCase(17, {});

  // A TurboFlux snapshot ("TFXC") is not a SymBi snapshot ("TFXS").
  TurboFluxEngine tfx;
  CountingSink init;
  ASSERT_TRUE(tfx.Init(c.query, c.g0, init, Deadline::Infinite()));
  std::ostringstream tfx_out;
  ASSERT_TRUE(tfx.Checkpoint(tfx_out).ok());
  SymBiEngine engine;
  std::istringstream tfx_in(tfx_out.str());
  Status st = engine.Restore(tfx_in);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);

  // Semantics mismatch is a precondition failure, not corruption.
  SymBiEngine homo;
  const std::string bytes = SnapshotAfterPrefix(homo, c, 5);
  SymBiEngine iso(SymBiOptions{MatchSemantics::kIsomorphism});
  std::istringstream in(bytes);
  st = iso.Restore(in);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);

  // Checkpoint before Init is a precondition failure.
  SymBiEngine uninitialized;
  std::ostringstream out;
  EXPECT_EQ(uninitialized.Checkpoint(out).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SymBiCheckpoint, SplicedSectionsFailCrossValidation) {
  // Two snapshots of the same query at different stream positions: splice
  // the later snapshot's graph section into the earlier snapshot. Every
  // per-section CRC still passes, but the DCS bitsets no longer match the
  // graph — the restore-time recompute cross-check must catch it.
  // Find a seed whose prefix snapshots actually carry different DCS flags
  // (with tiny graphs the candidate space can coincide across positions).
  std::string early, late;
  bool found = false;
  for (uint64_t seed = 19; seed < 64 && !found; ++seed) {
    testutil::RandomCase c = testutil::MakeRandomCase(seed, {});
    SymBiEngine a, b;
    early = SnapshotAfterPrefix(a, c, 3);
    late = SnapshotAfterPrefix(b, c, 25);
    std::string a_flags, b_flags;
    a.dcs().SerializeFlags(a_flags);
    b.dcs().SerializeFlags(b_flags);
    found = a_flags != b_flags;
  }
  ASSERT_TRUE(found) << "no seed with diverging prefix flags";
  // Both snapshots share the header + meta/query/dag prefix layout; find
  // the graph section by scanning for its tag bytes ("GRPH" little-endian
  // tag constant 0x48505247 is the ASCII bytes "GRPH").
  const std::string tag = "GRPH";
  const size_t a_pos = early.find(tag);
  const size_t b_pos = late.find(tag);
  ASSERT_NE(a_pos, std::string::npos);
  ASSERT_NE(b_pos, std::string::npos);
  // The DCS section trails the graph section in both; splice [graph..dcs)
  // from `late` into `early`, keeping early's DCS flags.
  const std::string dcs_tag = "DCS1";
  const size_t a_dcs = early.rfind(dcs_tag);
  const size_t b_dcs = late.rfind(dcs_tag);
  ASSERT_NE(a_dcs, std::string::npos);
  ASSERT_NE(b_dcs, std::string::npos);
  std::string spliced = early.substr(0, a_pos) +
                        late.substr(b_pos, b_dcs - b_pos) +
                        early.substr(a_dcs);
  SymBiEngine victim;
  std::istringstream in(spliced);
  Status st = victim.Restore(in);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(victim.dead());
}

TEST(SymBiCheckpoint, ResilientRestartFromCheckpointFile) {
  testutil::RandomCase c = testutil::MakeRandomCase(23, {});
  const std::string path = testing::TempDir() + "tfx_symbi_ckpt.bin";

  std::string flags_after_first;
  {
    SymBiEngine engine;
    ResilientOptions ro;
    ro.checkpoint_every = 5;
    ro.checkpoint_path = path;
    CollectingSink sink;
    ResilientResult r =
        RunResilient(engine, c.query, c.g0, c.stream, sink, ro);
    ASSERT_TRUE(r.ok) << r.status.ToString();
    engine.dcs().SerializeFlags(flags_after_first);
  }
  {
    SymBiEngine engine;
    ResilientOptions ro;
    ro.restore_from = path;
    CollectingSink sink;
    ResilientResult r =
        RunResilient(engine, c.query, c.g0, c.stream, sink, ro);
    ASSERT_TRUE(r.ok) << r.status.ToString();
    EXPECT_EQ(r.ops_consumed, c.stream.size());
    EXPECT_EQ(sink.size(), 0u);  // everything was already consumed
    std::string flags;
    engine.dcs().SerializeFlags(flags);
    EXPECT_EQ(flags, flags_after_first);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace symbi
}  // namespace turboflux
