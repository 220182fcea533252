// Fuzz target: WAL open/replay (storage/wal.h). Arbitrary bytes are
// treated as an on-disk ingest log: open() must replay the longest valid
// frame prefix, truncate the rest, and never crash or over-read. The
// idempotence property is checked in-loop: reopening the file open() just
// truncated must replay exactly the same records — recovery that changes
// the log on every pass would never converge.

#include "fuzz_driver.h"

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "storage/wal.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const std::string path = ibseg_fuzz::scratch_path("wal");
  ibseg_fuzz::write_scratch(path, data, size);

  ibseg::WalOptions options;
  options.fsync = ibseg::WalFsync::kNone;
  std::vector<ibseg::WalRecord> first;
  std::unique_ptr<ibseg::IngestWal> wal =
      ibseg::IngestWal::open(path, options, &first);
  if (wal == nullptr) return 0;
  wal.reset();  // close the fd before the second open

  std::vector<ibseg::WalRecord> second;
  std::unique_ptr<ibseg::IngestWal> again =
      ibseg::IngestWal::open(path, options, &second);
  if (again == nullptr) std::abort();  // was openable a moment ago
  if (second.size() != first.size()) std::abort();
  for (size_t i = 0; i < first.size(); ++i) {
    if (second[i].id != first[i].id || second[i].text != first[i].text) {
      std::abort();
    }
  }
  return 0;
}

std::vector<std::string> fuzz_seed_inputs() {
  // A well-formed three-record log written by the real appender, captured
  // as bytes — mutations then probe frame-boundary handling from a valid
  // starting point.
  std::vector<std::string> seeds;
  std::string path = ibseg_fuzz::scratch_path("wal_seed");
  ibseg::WalOptions options;
  options.fsync = ibseg::WalFsync::kNone;
  std::vector<ibseg::WalRecord> replayed;
  std::unique_ptr<ibseg::IngestWal> wal =
      ibseg::IngestWal::open(path, options, &replayed);
  if (wal != nullptr) {
    wal->append({7, "first logged post text"});
    wal->append({8, ""});  // empty payload text (an empty post)
    wal->append({9, std::string("binary \x01\x02\xff bytes and \n newline")});
    wal.reset();
    std::ifstream is(path, std::ios::binary);
    seeds.emplace_back((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
  }
  seeds.push_back("");  // empty log: valid, zero records
  return seeds;
}
