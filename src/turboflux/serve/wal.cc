#include "turboflux/serve/wal.h"

namespace turboflux {
namespace serve {

namespace {

// A journal record is 29 bytes; anything larger is a torn or foreign tail.
constexpr uint32_t kMaxRecordBytes = 1u << 16;

}  // namespace

void OpJournal::EncodeRecord(const PendingOp& record, std::string& out) {
  std::string payload;
  bin::PutU64(payload, record.channel);
  bin::PutU64(payload, record.seq);
  bin::PutU8(payload, static_cast<uint8_t>(record.op.type));
  bin::PutU32(payload, record.op.from);
  bin::PutU32(payload, record.op.label);
  bin::PutU32(payload, record.op.to);
  bin::PutRecord(out, payload);
}

Status OpJournal::Load(const std::string& path,
                       std::vector<PendingOp>* records,
                       uint64_t* valid_bytes) {
  records->clear();
  *valid_bytes = 0;
  std::string data;
  Status st = bin::ReadFile(path, &data);
  if (st.code() == StatusCode::kNotFound) return Status::Ok();
  if (!st.ok()) return st;

  // Anything short of a complete, checksum-valid record is a torn tail:
  // stop, report the prefix, and let Open() truncate.
  size_t pos = 0;
  std::string_view payload;
  while (bin::NextRecord(data, &pos, kMaxRecordBytes, &payload)) {
    bin::Reader r(payload);
    PendingOp rec;
    uint8_t type = 0;
    if (!r.GetU64(&rec.channel) || !r.GetU64(&rec.seq) || !r.GetU8(&type) ||
        !r.GetU32(&rec.op.from) || !r.GetU32(&rec.op.label) ||
        !r.GetU32(&rec.op.to) || !r.exhausted() || type > 1) {
      break;
    }
    rec.op.type = static_cast<UpdateOp::Type>(type);
    records->push_back(rec);
    *valid_bytes = pos;
  }
  return Status::Ok();
}

Status OpJournal::Open(const std::string& path, uint64_t valid_bytes,
                       uint64_t record_count) {
  Status st = file_.Open(path, valid_bytes);
  if (!st.ok()) return st;
  record_count_ = record_count;
  return Status::Ok();
}

Status OpJournal::Append(const PendingOp& record, FaultInjector* injector) {
  std::string encoded;
  EncodeRecord(record, encoded);
  std::string_view bytes = encoded;
  const bool torn = injector != nullptr && injector->ShouldTearWalRecord();
  if (torn) bytes = bytes.substr(0, encoded.size() / 2);
  Status st = file_.Append(bytes);
  if (!st.ok()) return st;
  if (torn) {
    // Make the torn bytes visible to the next recovery, like a real
    // crash after a partial page write.
    (void)file_.Flush();
    return Status::IoError("injected torn journal write");
  }
  ++record_count_;
  return Status::Ok();
}

Status OpJournal::Flush() { return file_.Flush(); }

}  // namespace serve
}  // namespace turboflux
