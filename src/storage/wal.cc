#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "storage/format_util.h"
#include "storage/wal_codec.h"

namespace ibseg {
namespace {

/// Writes all of `data`, retrying short writes and EINTR. Returns false on
/// error. The retry matters: WAL appends run inside the ingest publish path
/// while the process handles signals (the server's drain SIGTERM, profiler
/// SIGPROF storms), and without SA_RESTART a signal landing mid-write(2)
/// returns EINTR — a spurious append failure that would fail an ingest the
/// client then retries into a duplicate. Kernel-level partial writes and
/// signal interruptions are both resumable; only a real error code aborts.
bool write_fully(int fd, const char* data, size_t len) {
  while (len > 0) {
    ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

/// Reads the whole file into `out` (the WAL between snapshots is bounded
/// by the ingest volume since the last save; reading it whole keeps the
/// frame scan trivial). Retries EINTR for the same reason write_fully does
/// — recovery may run with signal handlers already installed. Returns
/// false on read error.
bool read_fully(int fd, std::string* out) {
  out->clear();
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return true;
    out->append(buf, static_cast<size_t>(n));
  }
}

}  // namespace

std::unique_ptr<IngestWal> IngestWal::open(const std::string& path,
                                           const WalOptions& options,
                                           std::vector<WalRecord>* replayed) {
  // Open-then-create (instead of one O_CREAT open) so a freshly created
  // log is distinguishable: its directory entry must be fsync'd under a
  // durable policy, or a power failure could drop the *name* of a WAL
  // whose appends were faithfully synced. O_CLOEXEC keeps the descriptor
  // out of forked children (the crash-injection tests fork liberally; a
  // leaked fd would let a child's exit path touch the parent's log).
  bool created = false;
  int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0 && errno == ENOENT) {
    fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    created = fd >= 0;
  }
  if (fd < 0) return nullptr;
  if (created && options.fsync != WalFsync::kNone &&
      !fsync_parent_dir(path)) {
    ::close(fd);
    return nullptr;
  }

  std::string data;
  if (!read_fully(fd, &data)) {
    ::close(fd);
    return nullptr;
  }

  // Scan frames; the first invalid one marks the new end of the log.
  if (replayed != nullptr) replayed->clear();
  size_t pos = wal_scan_frames(data.data(), data.size(), replayed);

  if (pos != data.size()) {
    // Torn (or trailing-corrupt) tail: drop it so the next append starts
    // on a clean frame boundary and recovery never sees it again.
    if (::ftruncate(fd, static_cast<off_t>(pos)) != 0 ||
        ::fsync(fd) != 0) {
      ::close(fd);
      return nullptr;
    }
  }
  if (::lseek(fd, static_cast<off_t>(pos), SEEK_SET) < 0) {
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<IngestWal>(new IngestWal(fd, path, options, pos));
}

IngestWal::~IngestWal() {
  if (fd_ >= 0) ::close(fd_);
}

bool IngestWal::append_frames(const WalRecord* records, size_t count) {
  if (broken_) return false;
  const uint64_t start = size_;
  bool ok = true;
  std::string frame;
  for (size_t i = 0; ok && i < count; ++i) {
    frame.clear();
    wal_encode_frame(records[i], &frame);
    // One write(2) for the whole frame: a process kill between appends
    // can only tear the record currently being written, never an earlier
    // one.
    ok = write_fully(fd_, frame.data(), frame.size());
    if (ok) size_ += frame.size();
  }
  // One durability decision per call; kEveryAppend syncs once for a batch
  // (it is acknowledged as a whole, so per-record syncs buy nothing).
  if (ok && options_.fsync == WalFsync::kEveryAppend && count > 0) {
    ok = ::fsync(fd_) == 0;
  }
  if (ok) {
    appended_ += count;
    return true;
  }
  // A failed write may have left a partial frame behind, and a failed
  // fsync leaves frames the caller will not acknowledge: cut both back to
  // the length before the call (fsync'd under a durable policy; lseek as
  // well, since the file offset sits wherever the failed write left it).
  // A cut that fails breaks the log until reset().
  if (::ftruncate(fd_, static_cast<off_t>(start)) != 0 ||
      ::lseek(fd_, static_cast<off_t>(start), SEEK_SET) < 0 ||
      (options_.fsync != WalFsync::kNone && ::fsync(fd_) != 0)) {
    broken_ = true;
  } else {
    size_ = start;
  }
  return false;
}

bool IngestWal::append(const WalRecord& record) {
  return append_frames(&record, 1);
}

bool IngestWal::append_batch(const std::vector<WalRecord>& records) {
  return append_frames(records.data(), records.size());
}

bool IngestWal::reset() {
  // Replace the inode rather than ftruncate-in-place. If an in-place
  // truncation's size change is lost to a power failure, the stale
  // pre-reset frames — still CRC-valid — survive on disk; appends after
  // the (undone) reset overwrite them from offset 0, and a tail that
  // happens to land exactly on a stale frame boundary makes the recovery
  // scan walk seamlessly from real frames into resurrected old ones.
  // Nothing in the framing can distinguish that case. A fresh empty inode
  // renamed over the path cannot resurrect old bytes by construction.
  const std::string tmp =
      path_ + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  int nfd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (nfd < 0) return false;
  // reset() runs right after a snapshot save made every logged record
  // redundant; it is rare, so the replacement is made durable regardless
  // of the append-path fsync policy (matching the old always-fsync'd
  // truncate): empty file synced, renamed, directory entry synced.
  if (::fsync(nfd) != 0 || std::rename(tmp.c_str(), path_.c_str()) != 0) {
    ::close(nfd);
    std::remove(tmp.c_str());
    return false;
  }
  // Until the rename's directory entry is durable, a power failure may
  // bring the old file back and lose whatever was appended to the new
  // one, so a failed directory fsync breaks the log: appends are refused
  // until a reset gets that far. Either way the path names the new file
  // now, and the handle must follow it: appends to the replaced inode
  // would be acknowledged into a file no restart reads.
  broken_ = !fsync_parent_dir(path_);
  ::close(fd_);
  fd_ = nfd;
  size_ = 0;
  return !broken_;
}

}  // namespace ibseg
