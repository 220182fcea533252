#ifndef IBSEG_STORAGE_WAL_H_
#define IBSEG_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "seg/document.h"

namespace ibseg {

/// One logged ingest: the reserved document id and the raw post text —
/// everything add_post needs to re-run deterministically on replay.
struct WalRecord {
  DocId id = 0;
  std::string text;
};

/// When appends reach the disk platter, not just the page cache. Records
/// always reach the kernel via write(2) per append (so a process crash —
/// as opposed to an OS/power failure — loses nothing either way); fsync
/// narrows the OS-crash window at the cost of latency inside the ingest
/// publish path.
enum class WalFsync {
  kNone,        ///< never fsync; OS-crash may lose the page-cache tail
  kEveryAppend  ///< fsync once per append or batch; strongest, slowest
};

struct WalOptions {
  WalFsync fsync = WalFsync::kEveryAppend;
};

/// Write-ahead log of online ingests, the durability half of the serving
/// layer's warm restart (snapshot v2 + WAL replay). Framing per record:
///
///   u32 payload length | u32 CRC-32(payload) | payload
///   payload := u32 doc id | text bytes
///
/// (little-endian). open() replays every complete record and then
/// truncates the file after the last one, so a torn tail — a record whose
/// write was cut by a crash — is dropped, never replayed and never allowed
/// to fail recovery. Appends go through a single full-frame write(2), so a
/// process kill between appends can only ever tear the final record.
///
/// An append call is all or nothing: when a write or fsync fails (ENOSPC,
/// EIO, EFBIG past RLIMIT_FSIZE, a short write), the file is cut back to
/// its length before the call, so a partial frame can never strand the
/// records appended after it (replay stops at the first bad frame). A log
/// that cannot be cut back refuses every append until reset().
///
/// Not thread-safe: the serving layer serializes append()/reset() under
/// its exclusive publication lock (which also makes WAL order identical to
/// publication order — the property replay correctness rests on).
class IngestWal {
 public:
  /// Opens (creating if absent) the log at `path`. Complete records land
  /// in `*replayed` in append order, up to the first invalid frame (bad
  /// length, short payload, or CRC mismatch); the file is truncated there,
  /// so a torn tail is dropped instead of failing recovery. Replaying past
  /// a gap would reorder publication, so everything after the first bad
  /// frame is discarded with it. When the call creates the file and the
  /// policy is not kNone, the directory entry is fsync'd too — synced
  /// appends into a file whose *name* is not durable survive nothing.
  /// Returns nullptr only when the file cannot be opened, the create's
  /// directory fsync fails under a durable policy, or the truncation
  /// itself fails.
  static std::unique_ptr<IngestWal> open(const std::string& path,
                                         const WalOptions& options,
                                         std::vector<WalRecord>* replayed);

  ~IngestWal();
  IngestWal(const IngestWal&) = delete;
  IngestWal& operator=(const IngestWal&) = delete;

  /// Appends one record (one write(2) of the whole frame), then applies
  /// the fsync policy. Returns false, with the file cut back to its length
  /// before the call, on a write or fsync failure.
  bool append(const WalRecord& record);

  /// Appends a batch with at most one policy-driven fsync at the end —
  /// batched ingests pay one durability wait, not one per post. All or
  /// nothing, like append().
  bool append_batch(const std::vector<WalRecord>& records);

  /// Empties the log — called right after a snapshot save has made every
  /// logged record redundant. Implemented as a fresh empty inode renamed
  /// over the path (file and directory entry both fsync'd), never an
  /// in-place ftruncate: a truncation whose size change is lost to power
  /// failure leaves stale CRC-valid frames on disk for later appends to
  /// overwrite, and a post-reset tail ending exactly on a stale frame
  /// boundary would replay resurrected records as current. Once the
  /// rename has happened the handle writes to the new file; if the
  /// directory fsync after it fails, reset() returns false and the log
  /// refuses appends until a later reset() succeeds.
  bool reset();

  /// Records appended through this handle by calls that succeeded
  /// (excludes replayed ones).
  uint64_t appended() const { return appended_; }

  const std::string& path() const { return path_; }

 private:
  IngestWal(int fd, std::string path, const WalOptions& options,
            uint64_t size)
      : fd_(fd), path_(std::move(path)), options_(options), size_(size) {}

  /// The body of append()/append_batch(): writes `count` frames, applies
  /// the fsync policy once, cuts back on failure.
  bool append_frames(const WalRecord* records, size_t count);

  int fd_ = -1;
  std::string path_;
  WalOptions options_;
  uint64_t size_ = 0;  ///< the end of the last appended frame
  uint64_t appended_ = 0;
  /// A cut back or a reset's directory fsync failed; appends refused.
  bool broken_ = false;
};

}  // namespace ibseg

#endif  // IBSEG_STORAGE_WAL_H_
