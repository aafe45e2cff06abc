// Durable structures of the ingestion service: the CRC-framed op journal
// and the committed match log (serve/wal.h, serve/match_log.h). The
// crash-shaped cases — torn tails, torn commits, injected tears — are
// what the chaos suite's exactly-once guarantee rests on.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "turboflux/harness/fault_injection.h"
#include "turboflux/serve/match_log.h"
#include "turboflux/serve/wal.h"

namespace turboflux {
namespace serve {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              ("tfx_serve_wal_" + name + "_" +
               std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

PendingOp Op(uint64_t channel, uint64_t seq, uint32_t from, uint32_t to) {
  return PendingOp{channel, seq, UpdateOp::Insert(from, 0, to)};
}

TEST(OpJournal, RoundTripsRecordsAcrossReopen) {
  TempDir dir("roundtrip");
  const std::string path = dir.File("ops.wal");
  {
    OpJournal journal;
    ASSERT_TRUE(journal.Open(path, 0, 0).ok());
    ASSERT_TRUE(journal.Append(Op(1, 1, 10, 20), nullptr).ok());
    ASSERT_TRUE(journal.Append(Op(1, 2, 20, 30), nullptr).ok());
    ASSERT_TRUE(journal.Append(Op(9, 1, 0, 1), nullptr).ok());
    ASSERT_TRUE(journal.Flush().ok());
    EXPECT_EQ(journal.record_count(), 3u);
  }
  std::vector<PendingOp> records;
  uint64_t valid_bytes = 0;
  ASSERT_TRUE(OpJournal::Load(path, &records, &valid_bytes).ok());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].channel, 1u);
  EXPECT_EQ(records[1].seq, 2u);
  EXPECT_EQ(records[1].op.to, 30u);
  EXPECT_EQ(records[2].channel, 9u);
  EXPECT_EQ(valid_bytes, fs::file_size(path));
}

TEST(OpJournal, MissingFileLoadsEmpty) {
  TempDir dir("missing");
  std::vector<PendingOp> records;
  uint64_t valid_bytes = 77;
  ASSERT_TRUE(
      OpJournal::Load(dir.File("nope.wal"), &records, &valid_bytes).ok());
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(valid_bytes, 0u);
}

TEST(OpJournal, TornTailIsDiscardedAndTruncatedOnOpen) {
  TempDir dir("torn");
  const std::string path = dir.File("ops.wal");
  {
    OpJournal journal;
    ASSERT_TRUE(journal.Open(path, 0, 0).ok());
    ASSERT_TRUE(journal.Append(Op(1, 1, 10, 20), nullptr).ok());
    ASSERT_TRUE(journal.Append(Op(1, 2, 20, 30), nullptr).ok());
    ASSERT_TRUE(journal.Flush().ok());
  }
  const uint64_t full = fs::file_size(path);
  // Simulate a crash mid-append: chop the last record in half.
  fs::resize_file(path, full - 5);

  std::vector<PendingOp> records;
  uint64_t valid_bytes = 0;
  ASSERT_TRUE(OpJournal::Load(path, &records, &valid_bytes).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, 1u);
  EXPECT_LT(valid_bytes, full - 5);

  // Open() truncates the torn bytes; appending then continues cleanly.
  {
    OpJournal journal;
    ASSERT_TRUE(journal.Open(path, valid_bytes, records.size()).ok());
    EXPECT_EQ(fs::file_size(path), valid_bytes);
    ASSERT_TRUE(journal.Append(Op(1, 2, 20, 30), nullptr).ok());
    ASSERT_TRUE(journal.Flush().ok());
    EXPECT_EQ(journal.record_count(), 2u);
  }
  records.clear();
  ASSERT_TRUE(OpJournal::Load(path, &records, &valid_bytes).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].seq, 2u);
}

TEST(OpJournal, CorruptedCrcEndsTheValidPrefix) {
  TempDir dir("crc");
  const std::string path = dir.File("ops.wal");
  {
    OpJournal journal;
    ASSERT_TRUE(journal.Open(path, 0, 0).ok());
    ASSERT_TRUE(journal.Append(Op(1, 1, 10, 20), nullptr).ok());
    ASSERT_TRUE(journal.Append(Op(1, 2, 20, 30), nullptr).ok());
    ASSERT_TRUE(journal.Flush().ok());
  }
  // Flip one payload byte of the second record.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-6, std::ios::end);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-6, std::ios::end);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  std::vector<PendingOp> records;
  uint64_t valid_bytes = 0;
  ASSERT_TRUE(OpJournal::Load(path, &records, &valid_bytes).ok());
  EXPECT_EQ(records.size(), 1u);
}

TEST(OpJournal, InjectedTearWritesPartialRecordAndFails) {
  TempDir dir("inject");
  const std::string path = dir.File("ops.wal");
  FaultPlan plan;
  plan.wal_torn_at_record = 2;
  FaultInjector injector(plan);
  {
    OpJournal journal;
    ASSERT_TRUE(journal.Open(path, 0, 0).ok());
    ASSERT_TRUE(journal.Append(Op(1, 1, 10, 20), &injector).ok());
    Status torn = journal.Append(Op(1, 2, 20, 30), &injector);
    EXPECT_EQ(torn.code(), StatusCode::kIoError);
    journal.Close();
  }
  // Exactly the crash shape: one good record plus torn trailing bytes.
  std::vector<PendingOp> records;
  uint64_t valid_bytes = 0;
  ASSERT_TRUE(OpJournal::Load(path, &records, &valid_bytes).ok());
  EXPECT_EQ(records.size(), 1u);
  EXPECT_GT(fs::file_size(path), valid_bytes);
}

std::vector<MatchRecord> SampleMatches(uint64_t base_op) {
  MatchRecord a;
  a.op_index = base_op;
  a.query = 1;
  a.positive = 1;
  a.mapping = {3, 1, 4};
  MatchRecord b;
  b.op_index = base_op + 1;
  b.query = 2;
  b.positive = 0;
  b.mapping = {2, 7};
  return {a, b};
}

TEST(MatchLog, RoundTripsCommittedRecords) {
  TempDir dir("mlog");
  const std::string path = dir.File("matches.log");
  std::vector<MatchRecord> first = SampleMatches(0);
  std::vector<MatchRecord> second = SampleMatches(5);
  {
    MatchLog log;
    ASSERT_TRUE(log.Open(path, 0).ok());
    ASSERT_TRUE(log.AppendCommit(first, 2, nullptr).ok());
    ASSERT_TRUE(log.AppendCommit(second, 7, nullptr).ok());
  }
  std::vector<MatchRecord> records;
  uint64_t watermark = 0;
  uint64_t valid_bytes = 0;
  ASSERT_TRUE(MatchLog::Load(path, &records, &watermark, &valid_bytes).ok());
  EXPECT_EQ(watermark, 7u);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_TRUE(records[0] == first[0]);
  EXPECT_TRUE(records[1] == first[1]);
  EXPECT_TRUE(records[2] == second[0]);
  EXPECT_TRUE(records[3] == second[1]);
  EXPECT_EQ(valid_bytes, fs::file_size(path));
}

TEST(MatchLog, EmptyCommitAdvancesWatermarkOnly) {
  TempDir dir("emptycommit");
  const std::string path = dir.File("matches.log");
  {
    MatchLog log;
    ASSERT_TRUE(log.Open(path, 0).ok());
    ASSERT_TRUE(log.AppendCommit({}, 12, nullptr).ok());
  }
  std::vector<MatchRecord> records;
  uint64_t watermark = 0;
  uint64_t valid_bytes = 0;
  ASSERT_TRUE(MatchLog::Load(path, &records, &watermark, &valid_bytes).ok());
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(watermark, 12u);
}

TEST(MatchLog, TornCommitRollsBackToPreviousMarker) {
  TempDir dir("torncommit");
  const std::string path = dir.File("matches.log");
  FaultPlan plan;
  plan.matchlog_torn_at_commit = 2;
  FaultInjector injector(plan);
  std::vector<MatchRecord> first = SampleMatches(0);
  std::vector<MatchRecord> second = SampleMatches(5);
  {
    MatchLog log;
    ASSERT_TRUE(log.Open(path, 0).ok());
    ASSERT_TRUE(log.AppendCommit(first, 2, &injector).ok());
    Status torn = log.AppendCommit(second, 7, &injector);
    EXPECT_EQ(torn.code(), StatusCode::kIoError);
    log.Close();
  }
  std::vector<MatchRecord> records;
  uint64_t watermark = 0;
  uint64_t valid_bytes = 0;
  ASSERT_TRUE(MatchLog::Load(path, &records, &watermark, &valid_bytes).ok());
  // The second commit never completed: its records and watermark are
  // gone, exactly as if the process died mid-write.
  EXPECT_EQ(watermark, 2u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[0] == first[0]);

  // Reopening truncates the torn block; the retried commit then lands.
  {
    MatchLog log;
    ASSERT_TRUE(log.Open(path, valid_bytes).ok());
    ASSERT_TRUE(log.AppendCommit(second, 7, nullptr).ok());
  }
  records.clear();
  ASSERT_TRUE(MatchLog::Load(path, &records, &watermark, &valid_bytes).ok());
  EXPECT_EQ(watermark, 7u);
  EXPECT_EQ(records.size(), 4u);
}

// A commit larger than Load's 64 MiB per-block guard is split over several
// matches blocks; a single oversized block would be read back as a torn
// tail and the whole commit lost.
TEST(MatchLog, CommitLargerThanOneBlockRoundTrips) {
  TempDir dir("bigcommit");
  const std::string path = dir.File("matches.log");
  std::vector<MatchRecord> big(17);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i].op_index = i;
    big[i].query = static_cast<uint32_t>(i % 3);
    big[i].positive = i % 2 == 0 ? 1 : 0;
    big[i].mapping.assign(1'000'000, static_cast<VertexId>(i));
    big[i].mapping.back() = static_cast<VertexId>(1000 + i);
  }
  {
    MatchLog log;
    ASSERT_TRUE(log.Open(path, 0).ok());
    ASSERT_TRUE(log.AppendCommit(big, 17, nullptr).ok());
  }
  EXPECT_GT(fs::file_size(path), uint64_t{1} << 26);
  std::vector<MatchRecord> records;
  uint64_t watermark = 0;
  uint64_t valid_bytes = 0;
  ASSERT_TRUE(MatchLog::Load(path, &records, &watermark, &valid_bytes).ok());
  EXPECT_EQ(watermark, 17u);
  EXPECT_EQ(valid_bytes, fs::file_size(path));
  ASSERT_EQ(records.size(), big.size());
  for (size_t i = 0; i < big.size(); ++i) {
    EXPECT_TRUE(records[i] == big[i]) << "record " << i;
  }
}

TEST(MatchLog, OversizedRecordIsRejected) {
  TempDir dir("oversized");
  const std::string path = dir.File("matches.log");
  std::vector<MatchRecord> records(1);
  records[0].mapping.assign((1u << 20) + 1, 0);
  MatchLog log;
  ASSERT_TRUE(log.Open(path, 0).ok());
  EXPECT_EQ(log.AppendCommit(records, 1, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fs::file_size(path), 0u);
}

TEST(MatchLog, CanonicalStreamIsGroupingIndependent) {
  // The chaos oracle compares match streams that were committed in
  // different block groupings (different checkpoint cadences); the
  // canonical bytes must depend only on the records.
  std::vector<MatchRecord> all = SampleMatches(0);
  std::vector<MatchRecord> more = SampleMatches(5);
  all.insert(all.end(), more.begin(), more.end());

  TempDir dir("canon");
  const std::string one = dir.File("one.log");
  const std::string split = dir.File("split.log");
  {
    MatchLog log;
    ASSERT_TRUE(log.Open(one, 0).ok());
    ASSERT_TRUE(log.AppendCommit(all, 7, nullptr).ok());
  }
  {
    MatchLog log;
    ASSERT_TRUE(log.Open(split, 0).ok());
    ASSERT_TRUE(log.AppendCommit(std::span(all).subspan(0, 1), 1, nullptr).ok());
    ASSERT_TRUE(log.AppendCommit(std::span(all).subspan(1, 2), 5, nullptr).ok());
    ASSERT_TRUE(log.AppendCommit(std::span(all).subspan(3), 7, nullptr).ok());
  }
  std::vector<MatchRecord> a, b;
  uint64_t wa = 0, wb = 0, ba = 0, bb = 0;
  ASSERT_TRUE(MatchLog::Load(one, &a, &wa, &ba).ok());
  ASSERT_TRUE(MatchLog::Load(split, &b, &wb, &bb).ok());
  EXPECT_EQ(MatchLog::CanonicalMatchStream(a),
            MatchLog::CanonicalMatchStream(b));
  EXPECT_FALSE(MatchLog::CanonicalMatchStream(a).empty());
}

}  // namespace
}  // namespace serve
}  // namespace turboflux
