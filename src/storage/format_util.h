#ifndef IBSEG_STORAGE_FORMAT_UTIL_H_
#define IBSEG_STORAGE_FORMAT_UTIL_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "util/strings.h"

namespace ibseg {

/// Helpers shared by every on-disk format in src/storage: tolerant line
/// reading, strict numeric-list parsing, CRC32 framing and atomic file
/// replacement. The text formats (corpus v1, shard manifest) and the
/// binary snapshot v2 / ingest WAL all build on these so the failure behavior —
/// reject anything mangled, never destroy the previous good file — is
/// uniform.

/// getline that strips one trailing '\r', so files saved (or transferred)
/// with CRLF line endings load identically to LF files. Returns false at
/// EOF / on stream failure, exactly like std::getline. `\r` characters in
/// the middle of a line are preserved — escaped text stores them as `\r`
/// (see escape_text), so a stray raw one is payload, not a terminator.
bool read_line(std::istream& is, std::string* line);

/// Parses "key v1 v2 ..." lines; returns false when the key mismatches,
/// when any element fails to parse, or when the line carries trailing
/// garbage after the last element. A short read of a numeric line is a
/// parse error at the caller (element counts are validated against the
/// declared sizes), never a silently shorter vector.
template <typename T>
bool parse_list(const std::string& line, const std::string& key,
                std::vector<T>* out) {
  if (!starts_with(line, key)) return false;
  std::istringstream ss(line.substr(key.size()));
  T v;
  out->clear();
  while (ss >> v) out->push_back(v);
  // The loop exits on extraction failure. Reaching end-of-line is the only
  // acceptable reason; a failure mid-line means garbage ("1 2 x") and the
  // whole line is rejected rather than truncated to the parseable prefix.
  return ss.eof();
}

/// Parses a "key value" line holding exactly one numeric value. Built on
/// parse_list, so a missing value ("posts " truncated mid-line — which
/// std::strtoull would silently read as 0), extra values, or trailing
/// garbage all reject the line.
template <typename T>
bool parse_scalar(const std::string& line, const std::string& key, T* out) {
  std::vector<T> values;
  if (!parse_list(line, key, &values) || values.size() != 1) return false;
  *out = values.front();
  return true;
}

/// CRC-32 (IEEE 802.3, the zlib polynomial) over `len` bytes, continuing
/// from `crc` (pass 0 to start). Used to frame every snapshot-v2 section
/// and every WAL record.
uint32_t crc32(const void* data, size_t len, uint32_t crc = 0);

/// Writes a file atomically: `writer` streams into `path`.tmp.<pid>, the
/// stream is flushed and checked, the temp file is fsync'd, and only then
/// renamed over `path`. A crash (or a writer/stream failure, which returns
/// false and unlinks the temp file) at any point leaves the previous file
/// at `path` untouched — the failure mode of the old write-in-place saves
/// was a destroyed good file. The directory entry is fsync'd after the
/// rename so the replacement itself is durable.
bool atomic_write_file(const std::string& path,
                       const std::function<bool(std::ostream&)>& writer);

/// fsyncs the directory containing `path`, making a rename (or create) of
/// that entry durable: POSIX only guarantees the new name survives a power
/// failure once the *directory* is synced, not just the file. Returns false
/// when the directory cannot be opened or the fsync fails (some filesystems
/// reject O_RDONLY directory fsync — callers on best-effort paths ignore
/// the result; durability-policy-gated callers propagate it).
bool fsync_parent_dir(const std::string& path);

}  // namespace ibseg

#endif  // IBSEG_STORAGE_FORMAT_UTIL_H_
