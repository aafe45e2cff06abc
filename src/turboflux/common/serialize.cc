#include "turboflux/common/serialize.h"

#include <array>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>

namespace turboflux {
namespace bin {

void PutU8(std::string& buf, uint8_t v) {
  buf.push_back(static_cast<char>(v));
}

void PutU32(std::string& buf, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string& buf, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

bool Reader::GetU8(uint8_t* v) {
  if (remaining() < 1) return false;
  *v = static_cast<uint8_t>(data_[pos_++]);
  return true;
}

bool Reader::GetU32(uint32_t* v) {
  if (remaining() < 4) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 4;
  *v = out;
  return true;
}

bool Reader::GetU64(uint64_t* v) {
  if (remaining() < 8) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 8;
  *v = out;
  return true;
}

bool Reader::GetLength(uint32_t* n, uint64_t max_elems) {
  uint32_t len = 0;
  if (!GetU32(&len)) return false;
  if (len > max_elems) return false;
  *n = len;
  return true;
}

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const std::array<uint32_t, 256> table = MakeCrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (char ch : data) {
    crc = table[(crc ^ static_cast<uint8_t>(ch)) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Status WriteSection(std::ostream& out, uint32_t tag,
                    const std::string& payload) {
  std::string header;
  PutU32(header, tag);
  PutU64(header, payload.size());
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  std::string footer;
  PutU32(footer, Crc32(payload));
  out.write(footer.data(), static_cast<std::streamsize>(footer.size()));
  if (!out) return Status::IoError("short write while emitting section");
  return Status::Ok();
}

Status ReadSection(std::istream& in, uint32_t expected_tag,
                   std::string* payload) {
  char header[12];
  in.read(header, sizeof(header));
  if (in.gcount() != sizeof(header)) {
    return Status::Corruption("truncated section header");
  }
  Reader hr(std::string_view(header, sizeof(header)));
  uint32_t tag = 0;
  uint64_t size = 0;
  hr.GetU32(&tag);
  hr.GetU64(&size);
  if (tag != expected_tag) {
    return Status::Corruption("unexpected section tag " + std::to_string(tag) +
                              " (want " + std::to_string(expected_tag) + ")");
  }
  if (size > kMaxSectionBytes) {
    return Status::Corruption("absurd section size " + std::to_string(size));
  }
  payload->resize(size);
  if (size > 0) {
    in.read(payload->data(), static_cast<std::streamsize>(size));
    if (static_cast<uint64_t>(in.gcount()) != size) {
      return Status::Corruption("truncated section payload");
    }
  }
  char footer[4];
  in.read(footer, sizeof(footer));
  if (in.gcount() != sizeof(footer)) {
    return Status::Corruption("truncated section checksum");
  }
  Reader fr(std::string_view(footer, sizeof(footer)));
  uint32_t stored_crc = 0;
  fr.GetU32(&stored_crc);
  if (stored_crc != Crc32(*payload)) {
    return Status::Corruption("section checksum mismatch (tag " +
                              std::to_string(tag) + ")");
  }
  return Status::Ok();
}

Status WriteHeader(std::ostream& out, std::string_view magic,
                   uint32_t version) {
  std::string header(magic);
  PutU32(header, version);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  if (!out) return Status::IoError("short write while emitting header");
  return Status::Ok();
}

Status ReadHeader(std::istream& in, std::string_view magic,
                  uint32_t version) {
  std::string header(magic.size() + 4, '\0');
  in.read(header.data(), static_cast<std::streamsize>(header.size()));
  if (static_cast<size_t>(in.gcount()) != header.size()) {
    return Status::Corruption("truncated " + std::string(magic) + " header");
  }
  if (std::string_view(header).substr(0, magic.size()) != magic) {
    return Status::Corruption("bad magic (not a " + std::string(magic) +
                              " snapshot)");
  }
  Reader r(std::string_view(header).substr(magic.size()));
  uint32_t found = 0;
  r.GetU32(&found);
  if (found != version) {
    return Status::UnsupportedVersion(
        std::string(magic) + " format version " + std::to_string(found) +
        " (this build reads version " + std::to_string(version) + ")");
  }
  return Status::Ok();
}

void PutRecord(std::string& out, std::string_view payload) {
  PutU32(out, static_cast<uint32_t>(payload.size()));
  out += payload;
  PutU32(out, Crc32(payload));
}

bool NextRecord(std::string_view data, size_t* pos, uint32_t max_payload,
                std::string_view* payload) {
  Reader r(data.substr(*pos));
  uint32_t len = 0;
  if (!r.GetU32(&len) || len > max_payload ||
      r.remaining() < uint64_t{len} + 4) {
    return false;
  }
  std::string_view body = data.substr(*pos + 4, len);
  Reader crc_reader(data.substr(*pos + 4 + len, 4));
  uint32_t crc = 0;
  crc_reader.GetU32(&crc);
  if (crc != Crc32(body)) return false;
  *payload = body;
  *pos += 4 + size_t{len} + 4;
  return true;
}

Status ReadFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::IoError("cannot open " + path);
  }
  std::string data;
  char chunk[1 << 16];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    data.append(chunk, n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IoError("cannot read " + path);
  *out = std::move(data);
  return Status::Ok();
}

Status ReplaceFile(const std::string& path,
                   const std::function<Status(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open " + tmp);
    Status st = write(out);
    if (!st.ok()) return st;
    out.flush();
    if (!out) return Status::IoError("cannot write " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IoError("cannot rename " + tmp + ": " + ec.message());
  }
  return Status::Ok();
}

Status AppendFile::Open(const std::string& path, uint64_t valid_bytes) {
  Close();
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    uint64_t size = std::filesystem::file_size(path, ec);
    if (!ec && size > valid_bytes) {
      std::filesystem::resize_file(path, valid_bytes, ec);
      if (ec) return Status::IoError("cannot truncate torn tail: " + path);
    }
  }
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::IoError("cannot open for append: " + path);
  }
  path_ = path;
  return Status::Ok();
}

Status AppendFile::Append(std::string_view bytes) {
  if (file_ == nullptr) return Status::FailedPrecondition("file is not open");
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    return Status::IoError("append failed: " + path_);
  }
  return Status::Ok();
}

Status AppendFile::Flush() {
  if (file_ == nullptr) return Status::FailedPrecondition("file is not open");
  if (std::fflush(file_) != 0) {
    return Status::IoError("flush failed: " + path_);
  }
  return Status::Ok();
}

void AppendFile::Close() {
  if (file_ != nullptr) {
    (void)std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace bin
}  // namespace turboflux
