// Fuzz target: CRC32 section framing and CRC-framed log records
// (common/serialize.h) — the substrate every checkpoint format
// (TFXC/TFXQ/TFXS) and both service logs (op journal, match log) are
// built on.
//
// Input layout: the first 4 bytes (little-endian) are the tag
// ReadSection expects; the rest is the byte stream to parse. Committed
// seeds use matching tags so the happy path stays covered; the fuzzer
// mutates both sides. The whole input is also scanned as a log, record
// by record, the way the op journal and the match log are loaded.
//
// Invariants checked (abort() on violation):
//   - ReadSection never crashes or over-allocates on corrupt size fields
//     (kMaxSectionBytes guard; ASan catches the rest).
//   - A section ReadSection accepts must survive a WriteSection ->
//     ReadSection round trip bit-for-bit.
//   - The bounds-checked bin::Reader never reads past the payload.
//   - NextRecord only moves its cursor forward, never past the end, and
//     every record it accepts is re-encoded bit-for-bit by PutRecord.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>

#include "turboflux/common/serialize.h"

namespace bin = turboflux::bin;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 4) return 0;
  uint32_t tag = 0;
  for (int i = 0; i < 4; ++i) tag |= uint32_t{data[i]} << (8 * i);
  const std::string stream(reinterpret_cast<const char*>(data + 4), size - 4);

  std::istringstream in(stream);
  std::string payload;
  const turboflux::Status st = bin::ReadSection(in, tag, &payload);
  if (st.ok()) {
    // Round trip: re-framing the accepted payload must parse back equal.
    std::ostringstream out;
    if (!bin::WriteSection(out, tag, payload).ok()) abort();
    std::istringstream again(out.str());
    std::string payload2;
    if (!bin::ReadSection(again, tag, &payload2).ok()) abort();
    if (payload2 != payload) abort();

    // Drain the payload through the bounds-checked reader; every getter
    // must fail cleanly at exhaustion instead of reading past the end.
    bin::Reader r(payload);
    uint8_t u8;
    uint32_t u32;
    uint64_t u64;
    while (!r.exhausted()) {
      const size_t before = r.remaining();
      if (!r.GetU64(&u64) && !r.GetU32(&u32) && !r.GetU8(&u8)) break;
      if (r.remaining() >= before) abort();
    }
    uint32_t n;
    (void)r.GetLength(&n, 1 << 20);
  }

  // A second section may follow; parse it too (checkpoints are fixed
  // sequences of sections).
  std::string rest;
  (void)bin::ReadSection(in, tag, &rest);

  // Log scan: stop at the first torn record, as Load does.
  const std::string_view log(reinterpret_cast<const char*>(data), size);
  size_t pos = 0;
  std::string_view record;
  while (true) {
    const size_t before = pos;
    if (!bin::NextRecord(log, &pos, 1u << 16, &record)) {
      if (pos != before) abort();
      break;
    }
    if (pos <= before || pos > log.size()) abort();
    std::string reencoded;
    bin::PutRecord(reencoded, record);
    if (reencoded != log.substr(before, pos - before)) abort();
  }
  return 0;
}
