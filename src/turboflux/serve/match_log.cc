#include "turboflux/serve/match_log.h"

namespace turboflux {
namespace serve {

namespace {

constexpr uint8_t kBlockMatches = 0;
constexpr uint8_t kBlockCommit = 1;
constexpr uint32_t kMaxBlockBytes = 1u << 26;  // 64 MiB corruption guard
constexpr uint32_t kMaxBlockRecords = 1u << 24;
constexpr uint32_t kMaxMappingLength = 1u << 20;

// Encoded size of one record inside a matches block.
size_t RecordBytes(const MatchRecord& m) {
  return 8 + 4 + 1 + 4 + 4 * m.mapping.size();
}

void EncodeMatchesBlock(std::span<const MatchRecord> records,
                        std::string& out) {
  std::string payload;
  bin::PutU8(payload, kBlockMatches);
  bin::PutU32(payload, static_cast<uint32_t>(records.size()));
  for (const MatchRecord& m : records) {
    bin::PutU64(payload, m.op_index);
    bin::PutU32(payload, m.query);
    bin::PutU8(payload, m.positive);
    bin::PutU32(payload, static_cast<uint32_t>(m.mapping.size()));
    for (VertexId v : m.mapping) bin::PutU32(payload, v);
  }
  bin::PutRecord(out, payload);
}

void EncodeCommitBlock(uint64_t through_op, std::string& out) {
  std::string payload;
  bin::PutU8(payload, kBlockCommit);
  bin::PutU64(payload, through_op);
  bin::PutRecord(out, payload);
}

}  // namespace

Status MatchLog::Load(const std::string& path,
                      std::vector<MatchRecord>* records, uint64_t* watermark,
                      uint64_t* valid_bytes) {
  records->clear();
  *watermark = 0;
  *valid_bytes = 0;
  std::string data;
  Status st = bin::ReadFile(path, &data);
  if (st.code() == StatusCode::kNotFound) return Status::Ok();
  if (!st.ok()) return st;

  // Records seen since the last commit marker; discarded unless a
  // complete COMMIT block follows them.
  std::vector<MatchRecord> uncommitted;
  size_t pos = 0;
  size_t committed_records = 0;
  std::string_view payload;
  while (bin::NextRecord(data, &pos, kMaxBlockBytes, &payload)) {
    bin::Reader r(payload);
    uint8_t kind = 0;
    if (!r.GetU8(&kind)) break;
    if (kind == kBlockMatches) {
      uint32_t count = 0;
      bool bad = !r.GetLength(&count, kMaxBlockRecords);
      for (uint32_t i = 0; !bad && i < count; ++i) {
        MatchRecord m;
        uint32_t map_len = 0;
        if (!r.GetU64(&m.op_index) || !r.GetU32(&m.query) ||
            !r.GetU8(&m.positive) ||
            !r.GetLength(&map_len, kMaxMappingLength)) {
          bad = true;
          break;
        }
        m.mapping.resize(map_len);
        for (uint32_t j = 0; j < map_len; ++j) {
          if (!r.GetU32(&m.mapping[j])) {
            bad = true;
            break;
          }
        }
        if (!bad) uncommitted.push_back(std::move(m));
      }
      if (bad || !r.exhausted()) break;
    } else if (kind == kBlockCommit) {
      uint64_t through = 0;
      if (!r.GetU64(&through) || !r.exhausted()) break;
      records->insert(records->end(),
                      std::make_move_iterator(uncommitted.begin()),
                      std::make_move_iterator(uncommitted.end()));
      uncommitted.clear();
      committed_records = records->size();
      *watermark = through;
      *valid_bytes = pos;
    } else {
      break;
    }
  }
  records->resize(committed_records);
  return Status::Ok();
}

Status MatchLog::Open(const std::string& path, uint64_t valid_bytes) {
  return file_.Open(path, valid_bytes);
}

Status MatchLog::AppendCommit(std::span<const MatchRecord> records,
                              uint64_t through_op, FaultInjector* injector) {
  if (!file_.is_open()) {
    return Status::FailedPrecondition("match log is not open");
  }
  for (const MatchRecord& m : records) {
    if (m.mapping.size() > kMaxMappingLength) {
      return Status::InvalidArgument("match record too large for the log");
    }
  }
  // Split the records over as many matches blocks as it takes for each to
  // stay within what Load accepts (payload <= kMaxBlockBytes, <= 2^24
  // records); Load gathers every block before the COMMIT marker. A single
  // record is at most ~4 MiB, so every block holds at least one.
  std::string block;
  size_t begin = 0;
  while (begin < records.size()) {
    size_t end = begin;
    size_t payload = 1 + 4;  // kind + count
    while (end < records.size() && end - begin < kMaxBlockRecords &&
           payload + RecordBytes(records[end]) <= kMaxBlockBytes) {
      payload += RecordBytes(records[end]);
      ++end;
    }
    EncodeMatchesBlock(records.subspan(begin, end - begin), block);
    begin = end;
  }
  size_t before_commit = block.size();
  EncodeCommitBlock(through_op, block);

  size_t write_len = block.size();
  bool torn = injector != nullptr && injector->ShouldTearMatchLogCommit();
  if (torn) {
    // Cut inside the commit marker (or, if there were matches, right
    // before it) so the commit is incomplete but bytes did land.
    write_len = before_commit + (block.size() - before_commit) / 2;
  }
  Status st = file_.Append(std::string_view(block).substr(0, write_len));
  if (st.ok()) st = file_.Flush();
  if (!st.ok()) return st;
  if (torn) return Status::IoError("injected torn match-log commit");
  return Status::Ok();
}

std::string MatchLog::CanonicalMatchStream(
    std::span<const MatchRecord> records) {
  std::string out;
  bin::PutU64(out, records.size());
  for (const MatchRecord& m : records) {
    bin::PutU64(out, m.op_index);
    bin::PutU32(out, m.query);
    bin::PutU8(out, m.positive);
    bin::PutU32(out, static_cast<uint32_t>(m.mapping.size()));
    for (VertexId v : m.mapping) bin::PutU32(out, v);
  }
  return out;
}

}  // namespace serve
}  // namespace turboflux
