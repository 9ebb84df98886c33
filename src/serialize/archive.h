// Versioned binary snapshot archive for session state.
//
// Every piece of live ATPG session state (fault statuses, the accumulated
// test set, the StateStore's caches, RNG streams, counters) serializes
// through this one layer so a killed run resumes bit-identical to an
// uninterrupted one.  The format is deliberately boring:
//
//   header   "GATPGSS1" magic, format version u32, endianness sentinel u32
//   payload  tagged sections: fourcc tag + u64 byte length + body
//   trailer  FNV-1a-64 digest of the payload bytes
//
// All integers are encoded little-endian byte by byte (portable on any
// host); the sentinel 0x01020304 additionally rejects archives written by a
// build whose encoding ever diverges.  Readers validate magic, version,
// sentinel, the payload digest, section tags, and section lengths — any
// mismatch throws SnapshotError rather than yielding a half-loaded session.
//
// Components implement save(Writer&)/load(Reader&) hooks against the
// primitive API below; the section mechanism gives each component a
// self-delimiting, individually verifiable region, so a component may grow
// fields in later format versions without disturbing its neighbours.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "util/fields.h"

namespace gatpg::serialize {

/// Archive format version written by this build.  Bump on any layout
/// change; readers reject other versions outright (snapshots are
/// short-lived checkpoint artifacts, not a long-term interchange format).
/// Version history: 1 = original session snapshot; 2 = fault-model axis
/// (IDNT carries the session's FaultUniverse); 3 = IDNT drops the fault-sim
/// group width; 4 = IDNT drops the fault-sim engine choice (one engine);
/// 5 = the hybrid engine payload drops its model-pool ledger (the pool
/// tallies live in CNTR alone) and STOR drops the constant store caps.
inline constexpr std::uint32_t kFormatVersion = 5;

/// Any structural problem with an archive: bad magic/version/sentinel,
/// digest mismatch, truncation, section tag/length mismatch, or a
/// component-level identity check failure (wrong circuit, wrong fault
/// list, wrong engine).
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Incremental FNV-1a-64 — the digest primitive shared by the archive
/// trailer and the component content digests (FaultManager, TestSetBuilder,
/// StateStore) the resume identity check compares.
class Digest {
 public:
  Digest& add_byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
    return *this;
  }
  Digest& add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) add_byte(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  Digest& add_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) add_byte(p[i]);
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Buffered archive writer.  Sections may not nest.
class Writer {
 public:
  Writer();

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Length-prefixed raw bytes.
  void bytes(const void* data, std::size_t n);
  /// Length-prefixed UTF-8/byte string.
  void str(const std::string& s);

  /// Opens a tagged section (`tag` is a fourcc like "FMGR").  Must be
  /// closed with end_section before the next begin_section.
  void begin_section(const char (&tag)[5]);
  void end_section();

  /// The payload built so far (header/trailer excluded) — used by the
  /// in-memory round trips of the service layer.
  const std::vector<std::uint8_t>& payload() const { return payload_; }
  /// FNV-1a-64 of the payload built so far.
  std::uint64_t payload_digest() const;

  /// Header + payload + digest trailer as one buffer.
  std::vector<std::uint8_t> finish() const;
  /// Writes finish() to `path` atomically (temp file + rename) so a kill
  /// mid-checkpoint never leaves a torn snapshot behind.  Throws
  /// SnapshotError on I/O failure.
  void write_file(const std::string& path) const;

 private:
  std::vector<std::uint8_t> payload_;
  std::size_t open_section_len_at_ = 0;  // offset of the pending length slot
  bool section_open_ = false;
};

/// Validating archive reader.  The constructor checks magic, version,
/// endianness sentinel, and the payload digest before any field is read.
class Reader {
 public:
  /// Parses an in-memory archive (the full finish() buffer).
  explicit Reader(std::vector<std::uint8_t> buffer);
  /// Reads and parses an archive file.  Throws SnapshotError on I/O or
  /// validation failure.
  static Reader from_file(const std::string& path);

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool boolean() { return u8() != 0; }
  std::vector<std::uint8_t> bytes();
  std::string str();

  /// Reads a u64 element count and verifies it is plausible: each element
  /// occupies at least `min_elem_bytes` of payload, so the count may not
  /// exceed the bytes remaining in the current section.  Use in place of
  /// u64() before resize()/reserve() on container loads so a corrupt count
  /// cannot force a huge allocation.
  std::uint64_t count(std::size_t min_elem_bytes);

  /// Enters the next section, which must carry `tag`; records its extent.
  void enter_section(const char (&tag)[5]);
  /// Leaves the current section, verifying it was consumed exactly.
  void leave_section();

  /// True when the payload is fully consumed (top level only).
  bool at_end() const { return pos_ == end_; }

 private:
  void need(std::size_t n) const;

  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;   // next byte to read (within payload)
  std::size_t end_ = 0;   // payload end
  std::size_t section_end_ = 0;
  bool in_section_ = false;
};

// Counter records (util/fields.h): one u64 word per field, in list order.
template <typename Record>
void write_fields(Writer& w, const Record& rec) {
  util::for_each_field([&](auto, auto v) { w.u64(v); }, rec);
}
template <typename Record>
void read_fields(Reader& r, Record& rec) {
  util::for_each_field(
      [&](auto, auto& v) {
        v = static_cast<std::decay_t<decltype(v)>>(r.u64());
      },
      rec);
}
template <typename Record>
void digest_fields(Digest& d, const Record& rec) {
  util::for_each_field([&](auto, auto v) { d.add_u64(v); }, rec);
}

}  // namespace gatpg::serialize
