#include "storage/snapshot_v2.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "storage/format_util.h"

namespace ibseg {
namespace {

constexpr char kMagic[8] = {'I', 'B', 'S', 'G', 'S', 'N', 'P', '2'};
constexpr uint32_t kVersion = 2;

// Section ids. Unknown ids are rejected (the format is versioned; v2
// readers read exactly v2 files).
enum SectionId : uint32_t {
  kSectionMeta = 1,
  kSectionDocs = 2,
  kSectionSegs = 3,
  kSectionLabels = 4,
  kSectionVocab = 5,
  kSectionOffline = 6,
};
/// Legacy (pre-recluster) files carry 5 sections; current writers always
/// emit the offline section too. The loader accepts both counts — a
/// 5-section file loads with generation-0 defaults — and still rejects
/// unknown or duplicated ids.
constexpr uint32_t kNumSectionsLegacy = 5;
constexpr uint32_t kNumSections = 6;

/// Hard ceiling on any single declared size; a corrupt length field must
/// not turn into a multi-gigabyte allocation before the CRC check runs.
constexpr uint64_t kMaxSaneSize = uint64_t{1} << 34;  // 16 GiB

// ---- little-endian encode into / decode out of a byte buffer ----

void put_u32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void put_u64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void put_bytes(std::string* out, const std::string& s) {
  put_u64(out, s.size());
  out->append(s);
}

/// Bounds-checked reader over a decoded section payload.
class Cursor {
 public:
  Cursor(const std::string& data) : data_(data) {}

  bool u32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(
                static_cast<unsigned char>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  bool u64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(
                static_cast<unsigned char>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool bytes(std::string* s) {
    uint64_t len = 0;
    if (!u64(&len) || len > kMaxSaneSize || pos_ + len > data_.size()) {
      return false;
    }
    s->assign(data_, pos_, static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return true;
  }

  /// A fully consumed payload is part of the contract: trailing bytes in a
  /// section mean a writer/reader disagreement, not padding.
  bool exhausted() const { return pos_ == data_.size(); }

  /// Bytes left to decode — the ceiling for any declared element count
  /// (reserve() from an unvalidated count is an allocation bomb: every
  /// element occupies at least a few payload bytes, so a count the
  /// remaining bytes cannot back is corruption, rejected before reserving).
  size_t remaining() const { return data_.size() - pos_; }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

bool write_section(std::ostream& os, uint32_t id, const std::string& payload) {
  std::string header;
  put_u32(&header, id);
  put_u64(&header, payload.size());
  put_u32(&header, crc32(payload.data(), payload.size()));
  os.write(header.data(), static_cast<std::streamsize>(header.size()));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  return static_cast<bool>(os);
}

/// Reads one section frame; returns false on truncation, an insane size or
/// a CRC mismatch. The payload is read in bounded chunks so a corrupt
/// length prefix never allocates more than the stream actually holds (a
/// single up-front resize would commit gigabytes to a header some bit rot
/// — or a fuzzer — inflated, before the read had a chance to fail).
bool read_section(std::istream& is, uint32_t* id, std::string* payload) {
  char header[16];
  if (!is.read(header, sizeof(header))) return false;
  std::string hdr(header, sizeof(header));
  Cursor c(hdr);
  uint64_t size = 0;
  uint32_t crc = 0;
  if (!c.u32(id) || !c.u64(&size) || !c.u32(&crc)) return false;
  if (size > kMaxSaneSize) return false;
  payload->clear();
  char buf[1 << 13];
  for (uint64_t done = 0; done < size;) {
    size_t want =
        static_cast<size_t>(std::min<uint64_t>(sizeof(buf), size - done));
    if (!is.read(buf, static_cast<std::streamsize>(want))) return false;
    payload->append(buf, want);
    done += want;
  }
  return crc32(payload->data(), payload->size()) == crc;
}

}  // namespace

bool ServingSnapshot::is_consistent() const {
  if (doc_ids.size() != doc_texts.size() ||
      doc_ids.size() != segmentations.size()) {
    return false;
  }
  if (num_seed_docs > doc_ids.size()) return false;
  // offline_docs 0 means "seed only" (legacy files and default-constructed
  // snapshots); a nonzero value must cover at least the seed corpus.
  const uint64_t eff64 = std::max<uint64_t>(offline_docs, num_seed_docs);
  if (eff64 > doc_ids.size()) return false;
  const size_t eff_offline = static_cast<size_t>(eff64);
  size_t seed_segments = 0;
  size_t offline_segments = 0;
  for (size_t d = 0; d < segmentations.size(); ++d) {
    if (!segmentations[d].is_valid()) return false;
    if (d < num_seed_docs && segmentations[d].num_units > 0) {
      seed_segments += segmentations[d].num_segments();
    }
    if (d >= num_seed_docs && d < eff_offline &&
        segmentations[d].num_units > 0) {
      offline_segments += segmentations[d].num_segments();
    }
  }
  if (seed_segments != seed_labels.size()) return false;
  if (offline_segments != offline_labels.size()) return false;
  for (int l : seed_labels) {
    if (l < 0 || l >= num_clusters) return false;
  }
  for (int l : offline_labels) {
    if (l < 0 || l >= num_clusters) return false;
  }
  if (!centroids.empty()) {
    if (centroids.size() != static_cast<size_t>(num_clusters)) return false;
    for (const std::vector<double>& c : centroids) {
      if (c.size() != centroids.front().size()) return false;
    }
  }
  for (DocId id : pending_pool) {
    if (id >= next_id) return false;
  }
  for (DocId id : doc_ids) {
    if (id >= next_id) return false;
  }
  return true;
}

bool save_snapshot_v2(const ServingSnapshot& snapshot, std::ostream& os) {
  os.write(kMagic, sizeof(kMagic));
  std::string prologue;
  put_u32(&prologue, kVersion);
  put_u32(&prologue, kNumSections);
  os.write(prologue.data(), static_cast<std::streamsize>(prologue.size()));

  std::string meta;
  put_u32(&meta, snapshot.num_seed_docs);
  put_u64(&meta, snapshot.doc_ids.size());
  put_u32(&meta, static_cast<uint32_t>(snapshot.num_clusters));
  put_u32(&meta, snapshot.next_id);
  if (!write_section(os, kSectionMeta, meta)) return false;

  std::string docs;
  for (size_t i = 0; i < snapshot.doc_ids.size(); ++i) {
    put_u32(&docs, snapshot.doc_ids[i]);
    put_bytes(&docs, snapshot.doc_texts[i]);
  }
  if (!write_section(os, kSectionDocs, docs)) return false;

  std::string segs;
  for (const Segmentation& s : snapshot.segmentations) {
    put_u64(&segs, s.num_units);
    put_u64(&segs, s.borders.size());
    for (size_t b : s.borders) put_u64(&segs, b);
  }
  if (!write_section(os, kSectionSegs, segs)) return false;

  std::string labels;
  put_u64(&labels, snapshot.seed_labels.size());
  for (int l : snapshot.seed_labels) {
    put_u32(&labels, static_cast<uint32_t>(l));
  }
  if (!write_section(os, kSectionLabels, labels)) return false;

  std::string vocab;
  put_u64(&vocab, snapshot.vocab_terms.size());
  for (const std::string& term : snapshot.vocab_terms) {
    put_bytes(&vocab, term);
  }
  if (!write_section(os, kSectionVocab, vocab)) return false;

  // Offline section: generation lifecycle + everything warm restore needs
  // to avoid re-deriving offline state. Doubles are stored as raw IEEE-754
  // bit patterns — exact round trip, so restored nearest-centroid ingest
  // assignment is bit-identical to the saved deployment's.
  std::string offline;
  put_u64(&offline, snapshot.offline_generation);
  put_u64(&offline,
          std::max<uint64_t>(snapshot.offline_docs, snapshot.num_seed_docs));
  put_u64(&offline, snapshot.docs_since_recluster);
  put_u64(&offline, snapshot.offline_labels.size());
  for (int l : snapshot.offline_labels) {
    put_u32(&offline, static_cast<uint32_t>(l));
  }
  put_u32(&offline, static_cast<uint32_t>(snapshot.centroids.size()));
  put_u32(&offline, snapshot.centroids.empty()
                        ? 0
                        : static_cast<uint32_t>(
                              snapshot.centroids.front().size()));
  for (const std::vector<double>& c : snapshot.centroids) {
    for (double v : c) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      put_u64(&offline, bits);
    }
  }
  put_u64(&offline, snapshot.pending_pool.size());
  for (DocId id : snapshot.pending_pool) put_u32(&offline, id);
  if (!write_section(os, kSectionOffline, offline)) return false;

  os.flush();
  return static_cast<bool>(os);
}

bool save_snapshot_v2_file(const ServingSnapshot& snapshot,
                           const std::string& path, uint64_t* bytes_out) {
  uint64_t bytes = 0;
  bool ok = atomic_write_file(path, [&](std::ostream& os) {
    if (!save_snapshot_v2(snapshot, os)) return false;
    bytes = static_cast<uint64_t>(os.tellp());
    return true;
  });
  if (ok && bytes_out != nullptr) *bytes_out = bytes;
  return ok;
}

std::optional<ServingSnapshot> load_snapshot_v2(std::istream& is) {
  char magic[sizeof(kMagic)];
  if (!is.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  char prologue_raw[8];
  if (!is.read(prologue_raw, sizeof(prologue_raw))) return std::nullopt;
  std::string prologue(prologue_raw, sizeof(prologue_raw));
  Cursor pc(prologue);
  uint32_t version = 0;
  uint32_t section_count = 0;
  if (!pc.u32(&version) || !pc.u32(&section_count)) return std::nullopt;
  if (version != kVersion || (section_count != kNumSectionsLegacy &&
                              section_count != kNumSections)) {
    return std::nullopt;
  }

  std::string sections[kNumSections + 1];
  bool seen[kNumSections + 1] = {};
  // A legacy-count file must carry exactly the legacy ids: declaring 5
  // sections but including the offline one is a malformed frame, not a
  // tolerated variant.
  const uint32_t max_id =
      section_count == kNumSectionsLegacy ? kNumSectionsLegacy : kNumSections;
  for (uint32_t i = 0; i < section_count; ++i) {
    uint32_t id = 0;
    std::string payload;
    if (!read_section(is, &id, &payload)) return std::nullopt;
    if (id < 1 || id > max_id || seen[id]) return std::nullopt;
    seen[id] = true;
    sections[id] = std::move(payload);
  }
  // Trailing bytes after the declared sections are corruption, not slack.
  if (is.peek() != std::istream::traits_type::eof()) return std::nullopt;

  ServingSnapshot snap;
  uint64_t num_docs = 0;
  {
    Cursor c(sections[kSectionMeta]);
    uint32_t clusters = 0;
    uint32_t next_id = 0;
    if (!c.u32(&snap.num_seed_docs) || !c.u64(&num_docs) ||
        !c.u32(&clusters) || !c.u32(&next_id) || !c.exhausted()) {
      return std::nullopt;
    }
    if (num_docs > kMaxSaneSize) return std::nullopt;
    snap.num_clusters = static_cast<int>(clusters);
    snap.next_id = next_id;
  }
  {
    Cursor c(sections[kSectionDocs]);
    // Every document costs >= 12 payload bytes (u32 id + u64 text length).
    if (num_docs * 12 > c.remaining()) return std::nullopt;
    snap.doc_ids.reserve(static_cast<size_t>(num_docs));
    snap.doc_texts.reserve(static_cast<size_t>(num_docs));
    for (uint64_t i = 0; i < num_docs; ++i) {
      uint32_t id = 0;
      std::string text;
      if (!c.u32(&id) || !c.bytes(&text)) return std::nullopt;
      snap.doc_ids.push_back(id);
      snap.doc_texts.push_back(std::move(text));
    }
    if (!c.exhausted()) return std::nullopt;
  }
  {
    Cursor c(sections[kSectionSegs]);
    // Every segmentation costs >= 16 payload bytes (two u64 counts).
    if (num_docs * 16 > c.remaining()) return std::nullopt;
    snap.segmentations.reserve(static_cast<size_t>(num_docs));
    for (uint64_t i = 0; i < num_docs; ++i) {
      Segmentation s;
      uint64_t units = 0;
      uint64_t num_borders = 0;
      if (!c.u64(&units) || !c.u64(&num_borders) ||
          num_borders > c.remaining() / 8) {
        return std::nullopt;
      }
      s.num_units = static_cast<size_t>(units);
      s.borders.reserve(static_cast<size_t>(num_borders));
      for (uint64_t b = 0; b < num_borders; ++b) {
        uint64_t border = 0;
        if (!c.u64(&border)) return std::nullopt;
        s.borders.push_back(static_cast<size_t>(border));
      }
      snap.segmentations.push_back(std::move(s));
    }
    if (!c.exhausted()) return std::nullopt;
  }
  {
    Cursor c(sections[kSectionLabels]);
    uint64_t count = 0;
    if (!c.u64(&count) || count > c.remaining() / 4) return std::nullopt;
    snap.seed_labels.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      uint32_t label = 0;
      if (!c.u32(&label)) return std::nullopt;
      snap.seed_labels.push_back(static_cast<int>(label));
    }
    if (!c.exhausted()) return std::nullopt;
  }
  {
    Cursor c(sections[kSectionVocab]);
    uint64_t count = 0;
    // Every term costs >= 8 payload bytes (u64 length prefix).
    if (!c.u64(&count) || count > c.remaining() / 8) return std::nullopt;
    snap.vocab_terms.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      std::string term;
      if (!c.bytes(&term)) return std::nullopt;
      snap.vocab_terms.push_back(std::move(term));
    }
    if (!c.exhausted()) return std::nullopt;
  }
  if (seen[kSectionOffline]) {
    Cursor c(sections[kSectionOffline]);
    uint64_t num_labels = 0;
    if (!c.u64(&snap.offline_generation) || !c.u64(&snap.offline_docs) ||
        !c.u64(&snap.docs_since_recluster) || !c.u64(&num_labels) ||
        num_labels > c.remaining() / 4) {
      return std::nullopt;
    }
    snap.offline_labels.reserve(static_cast<size_t>(num_labels));
    for (uint64_t i = 0; i < num_labels; ++i) {
      uint32_t label = 0;
      if (!c.u32(&label)) return std::nullopt;
      snap.offline_labels.push_back(static_cast<int>(label));
    }
    uint32_t rows = 0;
    uint32_t dim = 0;
    if (!c.u32(&rows) || !c.u32(&dim)) return std::nullopt;
    // Every centroid component costs 8 payload bytes; a (rows, dim) pair
    // the remaining bytes cannot back is corruption, rejected before any
    // allocation (same bomb-proofing discipline as the other sections).
    if (rows != 0 && dim > c.remaining() / 8 / rows) return std::nullopt;
    snap.centroids.reserve(rows);
    for (uint32_t r = 0; r < rows; ++r) {
      std::vector<double> row;
      row.reserve(dim);
      for (uint32_t d = 0; d < dim; ++d) {
        uint64_t bits = 0;
        if (!c.u64(&bits)) return std::nullopt;
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        row.push_back(v);
      }
      snap.centroids.push_back(std::move(row));
    }
    uint64_t pool = 0;
    if (!c.u64(&pool) || pool > c.remaining() / 4) return std::nullopt;
    snap.pending_pool.reserve(static_cast<size_t>(pool));
    for (uint64_t i = 0; i < pool; ++i) {
      uint32_t id = 0;
      if (!c.u32(&id)) return std::nullopt;
      snap.pending_pool.push_back(id);
    }
    if (!c.exhausted()) return std::nullopt;
  } else {
    // Legacy file: offline state is exactly the seed clustering.
    snap.offline_generation = 0;
    snap.offline_docs = snap.num_seed_docs;
    snap.docs_since_recluster = 0;
  }

  if (!snap.is_consistent()) return std::nullopt;
  return snap;
}

std::optional<ServingSnapshot> load_snapshot_v2_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  return load_snapshot_v2(is);
}

}  // namespace ibseg
