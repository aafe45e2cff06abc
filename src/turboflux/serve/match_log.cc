#include "turboflux/serve/match_log.h"

#include <filesystem>
#include <fstream>

#include "turboflux/common/serialize.h"

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
  bin::PutU32(out, static_cast<uint32_t>(payload.size()));
  out += payload;
  bin::PutU32(out, bin::Crc32(payload));
}

void EncodeCommitBlock(uint64_t through_op, std::string& out) {
  std::string payload;
  bin::PutU8(payload, kBlockCommit);
  bin::PutU64(payload, through_op);
  bin::PutU32(out, static_cast<uint32_t>(payload.size()));
  out += payload;
  bin::PutU32(out, bin::Crc32(payload));
}

bool ReadAll(const std::string& path, std::string* out, bool* exists) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *exists = false;
    return true;
  }
  *exists = true;
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return false;
  *out = std::move(data);
  return true;
}

}  // namespace

MatchLog::~MatchLog() { Close(); }

Status MatchLog::Load(const std::string& path,
                      std::vector<MatchRecord>* records, uint64_t* watermark,
                      uint64_t* valid_bytes) {
  records->clear();
  *watermark = 0;
  *valid_bytes = 0;
  std::string data;
  bool exists = false;
  if (!ReadAll(path, &data, &exists)) {
    return Status::IoError("cannot read match log: " + path);
  }
  if (!exists) return Status::Ok();

  // Records seen since the last commit marker; discarded unless a
  // complete COMMIT block follows them.
  std::vector<MatchRecord> uncommitted;
  size_t pos = 0;
  size_t committed_records = 0;
  while (pos < data.size()) {
    if (data.size() - pos < 4) break;
    bin::Reader len_reader(std::string_view(data).substr(pos, 4));
    uint32_t len = 0;
    (void)len_reader.GetU32(&len);
    if (len > kMaxBlockBytes || data.size() - pos - 4 < len + 4u) break;
    std::string_view payload = std::string_view(data).substr(pos + 4, len);
    bin::Reader crc_reader(std::string_view(data).substr(pos + 4 + len, 4));
    uint32_t crc = 0;
    (void)crc_reader.GetU32(&crc);
    if (crc != bin::Crc32(payload)) break;

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
      *valid_bytes = pos + 4 + len + 4;
    } else {
      break;
    }
    pos += 4 + len + 4;
  }
  records->resize(committed_records);
  return Status::Ok();
}

Status MatchLog::Open(const std::string& path, uint64_t valid_bytes) {
  Close();
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    uint64_t size = std::filesystem::file_size(path, ec);
    if (!ec && size > valid_bytes) {
      std::filesystem::resize_file(path, valid_bytes, ec);
      if (ec) {
        return Status::IoError("cannot truncate match log tail: " + path);
      }
    }
  }
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::IoError("cannot open match log for append: " + path);
  }
  return Status::Ok();
}

Status MatchLog::AppendCommit(std::span<const MatchRecord> records,
                              uint64_t through_op, FaultInjector* injector) {
  if (file_ == nullptr) {
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
  if (std::fwrite(block.data(), 1, write_len, file_) != write_len) {
    return Status::IoError("match log append failed");
  }
  if (std::fflush(file_) != 0) {
    return Status::IoError("match log flush failed");
  }
  if (torn) return Status::IoError("injected torn match-log commit");
  return Status::Ok();
}

void MatchLog::Close() {
  if (file_ != nullptr) {
    (void)std::fclose(file_);
    file_ = nullptr;
  }
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
