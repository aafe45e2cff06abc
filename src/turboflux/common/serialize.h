#ifndef TURBOFLUX_COMMON_SERIALIZE_H_
#define TURBOFLUX_COMMON_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

#include "turboflux/common/status.h"

namespace turboflux {
namespace bin {

/// The durable-file layer (DESIGN.md §3.7): little-endian encoding
/// primitives, the snapshot envelope (format header + CRC32-framed
/// sections), the CRC-framed log record, and the three file operations
/// every durable file goes through (read whole, append to a valid prefix,
/// replace atomically). The TFXC/TFXS/TFXQ snapshots and the service's
/// op journal and match log are all built from these. Writers append to a
/// std::string payload; the bounds-checked Reader never reads past the
/// payload, so corrupted length fields fail cleanly instead of crashing.

void PutU8(std::string& buf, uint8_t v);
void PutU32(std::string& buf, uint32_t v);
void PutU64(std::string& buf, uint64_t v);

/// Bounds-checked cursor over an encoded payload. Every Get returns false
/// (leaving the output untouched) once the payload is exhausted.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v);
  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);

  /// Reads a u32 length field and fails unless at least that many bytes
  /// remain AND the length is at most `max_elems` (corruption guard for
  /// element-count fields).
  bool GetLength(uint32_t* n, uint64_t max_elems);

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `data`.
uint32_t Crc32(std::string_view data);

/// Section framing: tag (u32), payload size (u64), payload bytes, CRC32 of
/// the payload (u32). A checkpoint is a fixed header followed by a fixed
/// sequence of sections.
Status WriteSection(std::ostream& out, uint32_t tag,
                    const std::string& payload);

/// Reads one section and verifies its tag and checksum. On any mismatch
/// (wrong tag, truncated stream, CRC failure, absurd size) returns a
/// kCorruption/kIoError status and leaves `payload` unspecified.
Status ReadSection(std::istream& in, uint32_t expected_tag,
                   std::string* payload);

/// Cap on a single section's payload; a corrupted size field larger than
/// this is reported as corruption instead of attempting the allocation.
inline constexpr uint64_t kMaxSectionBytes = uint64_t{1} << 34;  // 16 GiB

/// Snapshot header: the format's magic bytes, then its version (u32).
Status WriteHeader(std::ostream& out, std::string_view magic,
                   uint32_t version);

/// Reads a header written by WriteHeader. A short header or a foreign
/// magic is kCorruption (the message names `magic`); any other version is
/// kUnsupportedVersion.
Status ReadHeader(std::istream& in, std::string_view magic,
                  uint32_t version);

/// Log record framing: payload size (u32), payload bytes, CRC32 of the
/// payload (u32). Appends one record to `out`.
void PutRecord(std::string& out, std::string_view payload);

/// Decodes the record starting at `data[*pos]` (`*pos <= data.size()`):
/// on success points `*payload` into `data`, advances `*pos` past the
/// record and returns true. Returns false, leaving `*pos` alone, at a torn
/// tail — fewer bytes than a whole record, a size above `max_payload`, or
/// a CRC mismatch.
bool NextRecord(std::string_view data, size_t* pos, uint32_t max_payload,
                std::string_view* payload);

/// Reads the whole file into `*out`: kNotFound if `path` does not exist,
/// kIoError if it cannot be read.
Status ReadFile(const std::string& path, std::string* out);

/// Writes `path` so that a killed process leaves either the old file or
/// the new one: `write` fills `path + ".tmp"`, which is flushed and
/// renamed over `path`. If `write` returns an error, or the temp file
/// cannot be written, `path` is left as it was and the error is returned.
/// Nothing is fsync'ed, so an OS crash may still lose the new file.
Status ReplaceFile(const std::string& path,
                   const std::function<Status(std::ostream&)>& write);

/// An append-only log file (the op journal, the match log). Open drops a
/// torn tail by truncating the file to the valid prefix its reader found.
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile() { Close(); }
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  /// Truncates `path` to its first `valid_bytes` bytes (creating a
  /// missing file) and opens it for appends.
  Status Open(const std::string& path, uint64_t valid_bytes);

  /// Appends `bytes`; no flush is implied.
  Status Append(std::string_view bytes);

  /// Hands every appended byte to the OS.
  Status Flush();

  void Close();

  bool is_open() const { return file_ != nullptr; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
};

}  // namespace bin
}  // namespace turboflux

#endif  // TURBOFLUX_COMMON_SERIALIZE_H_
