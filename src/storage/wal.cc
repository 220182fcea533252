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
  return std::unique_ptr<IngestWal>(new IngestWal(fd, path, options));
}

IngestWal::~IngestWal() {
  if (fd_ >= 0) ::close(fd_);
}

bool IngestWal::write_frame(const WalRecord& record) {
  std::string frame;
  wal_encode_frame(record, &frame);
  // One write(2) for the whole frame: a process kill between appends can
  // only tear the record currently being written, never an earlier one.
  if (!write_fully(fd_, frame.data(), frame.size())) return false;
  ++appended_;
  ++unsynced_;
  return true;
}

bool IngestWal::maybe_sync() {
  switch (options_.fsync) {
    case WalFsync::kNone:
      return true;
    case WalFsync::kEveryAppend:
      return sync();
    case WalFsync::kEveryN:
      if (unsynced_ >= options_.fsync_every_n) return sync();
      return true;
  }
  return true;
}

bool IngestWal::append(const WalRecord& record) {
  return write_frame(record) && maybe_sync();
}

bool IngestWal::append_batch(const std::vector<WalRecord>& records) {
  for (const WalRecord& record : records) {
    if (!write_frame(record)) return false;
  }
  // One durability decision per batch; kEveryAppend still syncs once here
  // (the batch is acknowledged as a whole, so per-record syncs buy
  // nothing).
  if (options_.fsync == WalFsync::kEveryAppend && !records.empty()) {
    return sync();
  }
  return maybe_sync();
}

bool IngestWal::sync() {
  if (::fsync(fd_) != 0) return false;
  unsynced_ = 0;
  return true;
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
  if (!fsync_parent_dir(path_)) {
    ::close(nfd);
    return false;
  }
  ::close(fd_);
  fd_ = nfd;
  unsynced_ = 0;
  return true;
}

}  // namespace ibseg
