#ifndef IBSEG_NET_FRAME_H_
#define IBSEG_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "index/intention_matcher.h"
#include "seg/document.h"

namespace ibseg {
namespace net {

/// \file
/// Pure codecs for the ibseg wire protocol, version 1.
///
/// **docs/PROTOCOL.md is the normative specification** — byte-level frame
/// and payload tables, limits, error-code semantics and the versioning
/// policy. This header implements exactly that document; when the two
/// disagree, the document wins and the code is the bug. Everything here is
/// a pure function over byte buffers: no sockets, no I/O, no globals — so
/// the codec is testable (tests/net_frame_test.cc: goldens, every-prefix
/// truncation) and fuzzable (tests/fuzz/fuzz_net_frame.cc) in isolation.
///
/// Frame layout (PROTOCOL.md §2): a 12-byte header
///
///   offset size  field
///   0      4     magic "IBSN" (0x49 0x42 0x53 0x4E)
///   4      1     protocol version (1)
///   5      1     message type (MsgType)
///   6      2     reserved, must be zero
///   8      4     payload length (little-endian; <= kMaxPayloadBytes)
///
/// followed by `payload length` bytes of type-specific payload. All
/// integers little-endian; doubles travel as raw IEEE-754 bits (wire.h).

/// \brief Frame magic: "IBSN" as the first four bytes of every frame.
inline constexpr uint8_t kMagic[4] = {0x49, 0x42, 0x53, 0x4E};

/// \brief Wire protocol version carried in every frame header. Version 1
/// is the only version; see PROTOCOL.md §7 for the compatibility policy.
inline constexpr uint8_t kProtocolVersion = 1;

/// \brief Fixed frame header size in bytes.
inline constexpr size_t kFrameHeaderBytes = 12;

/// \brief Hard upper bound on a frame payload (16 MiB). A header
/// declaring more is malformed — the connection is closed without
/// allocating, the same allocation-bomb discipline the snapshot/WAL
/// readers adopted after the PR-5 fuzzing campaign.
inline constexpr uint32_t kMaxPayloadBytes = 16u * 1024u * 1024u;

/// \brief Maximum number of texts in one ADD_POSTS batch.
inline constexpr uint32_t kMaxBatchPosts = 1024;

/// \brief Maximum result count a RELATED response may declare (sanity
/// bound for client-side decoding; servers never exceed the requested k).
inline constexpr uint32_t kMaxRelatedResults = 1u << 20;

/// \brief Maximum length of a replica id in SUBSCRIBE_WAL / WAL_ACK.
inline constexpr uint32_t kMaxReplicaIdBytes = 256;

/// \brief Maximum file count a SNAPSHOT_LISTING may declare, and the
/// maximum length of one listed (relative) file name.
inline constexpr uint32_t kMaxSnapshotFiles = 1u << 16;
inline constexpr uint32_t kMaxSnapshotNameBytes = 4096;

/// \brief Maximum length of a tenant name in TENANT_OPEN /
/// TENANT_LISTING, and the maximum tenant count a listing may declare.
/// The name bound matches core (TenantRegistry::kMaxNameBytes — asserted
/// equal in net/server.cc).
inline constexpr uint32_t kMaxTenantNameBytes = 128;
inline constexpr uint32_t kMaxTenants = 1u << 16;

/// \brief Message type codes (frame header byte 5). Requests occupy
/// 0x01..0x7F, responses 0x81..0xFF; the split makes a frame's direction
/// recognizable in isolation (PROTOCOL.md §3).
enum class MsgType : uint8_t {
  // Requests (client -> server).
  kPing = 0x01,      ///< liveness + server coordinates; empty payload
  kQuery = 0x02,     ///< top-k related posts for an in-corpus doc id
  kAsk = 0x03,       ///< top-k related posts for an external post text
  kAddPost = 0x04,   ///< ingest one post; acked with its assigned id
  kAddPosts = 0x05,  ///< ingest a batch in order; acked with all ids
  kSave = 0x06,       ///< persist serving state to the server's state dir
  kMetrics = 0x07,    ///< metrics snapshot (Prometheus text or JSON)
  kDrain = 0x08,      ///< begin graceful drain (admin)
  kRecluster = 0x09,  ///< run one background recluster now (admin)
  kSubscribeWal = 0x0A,   ///< replica pull: next WAL segment past a seq
  kWalAck = 0x0B,         ///< replica reports its applied seq (lag gauges)
  kSnapshotList = 0x0C,   ///< replica bootstrap: list snapshot files
  kSnapshotChunk = 0x0D,  ///< replica bootstrap: read one file range
  kTenantOpen = 0x0E,     ///< bind this connection to a tenant namespace
  kTenantList = 0x0F,     ///< enumerate the server's tenants

  // Responses (server -> client).
  kPong = 0x81,         ///< answers PING
  kRelated = 0x82,      ///< answers QUERY and ASK
  kAdded = 0x84,        ///< answers ADD_POST and ADD_POSTS
  kSaved = 0x86,        ///< answers SAVE
  kMetricsData = 0x87,  ///< answers METRICS
  kDraining = 0x88,     ///< answers DRAIN
  kReclustered = 0x89,  ///< answers RECLUSTER
  kWalSegment = 0x8A,       ///< answers SUBSCRIBE_WAL
  kWalAcked = 0x8B,         ///< answers WAL_ACK
  kSnapshotListing = 0x8C,  ///< answers SNAPSHOT_LIST
  kSnapshotData = 0x8D,     ///< answers SNAPSHOT_CHUNK
  kTenantOpened = 0x8E,     ///< answers TENANT_OPEN
  kTenantListing = 0x8F,    ///< answers TENANT_LIST
  kError = 0xE0,        ///< any request may be answered with an error
};

/// \brief Error codes carried by an ERROR response (PROTOCOL.md §5).
enum class ErrCode : uint8_t {
  kBadRequest = 1,   ///< well-framed but malformed/inconsistent payload
  kUnknownDoc = 2,   ///< QUERY doc id not in the corpus
  kOverloaded = 3,   ///< admission control rejected the request
  kDraining = 4,     ///< server is draining; no new work accepted
  kTimeout = 5,      ///< request expired before a worker picked it up
  kInternal = 6,     ///< server-side failure (e.g. SAVE I/O error)
  kUnsupported = 7,  ///< command not available (e.g. SAVE w/o state dir)
  kSnapshotNeeded = 8,  ///< SUBSCRIBE_WAL: the (seq, generation) cursor is
                        ///< not servable from frames — re-bootstrap from a
                        ///< snapshot (PROTOCOL.md §4.10)
  kUnknownTenant = 9,   ///< TENANT_OPEN: no tenant of that name (the set
                        ///< is fixed at server start; PROTOCOL.md §4.14)
};

/// \brief Decoded frame header (the payload follows separately).
struct FrameHeader {
  uint8_t version = 0;
  MsgType type = MsgType::kPing;
  uint32_t payload_len = 0;
};

/// \brief Outcome of decode_frame_header over a byte prefix.
enum class DecodeStatus {
  kOk,        ///< header decoded; *out is valid
  kNeedMore,  ///< fewer than kFrameHeaderBytes bytes so far — read on
  kMalformed, ///< bad magic/version/reserved/length — close the stream
};

/// \brief Decodes the 12-byte frame header at the front of `data`.
///
/// Validation is strict (PROTOCOL.md §2): magic must match, version must
/// equal kProtocolVersion, the reserved bytes must be zero and the payload
/// length must not exceed kMaxPayloadBytes. Any violation returns
/// kMalformed — after which the stream has lost framing and the only safe
/// recovery is closing the connection. The message *type* byte is NOT
/// validated here (an unknown type is a well-framed frame whose payload
/// can be skipped and answered with ERROR/kBadRequest; see PROTOCOL.md §3).
/// \param data start of the buffered stream
/// \param size bytes available at `data`
/// \param out decoded header (written only on kOk)
DecodeStatus decode_frame_header(const uint8_t* data, size_t size,
                                 FrameHeader* out);

/// \brief Appends a complete frame (header + payload) for `type` to
/// `*out`. The payload must not exceed kMaxPayloadBytes (checked by the
/// callers that build payloads; encode_frame clamps nothing).
void encode_frame(MsgType type, std::string_view payload, std::string* out);

// --- Request payloads (PROTOCOL.md §4). Every decoder returns false on
// any deviation from the documented layout: truncation anywhere, length
// fields inconsistent with the payload size, counts above the documented
// limits, or trailing bytes after the last field.

/// \brief QUERY: top-k related posts for an in-corpus document.
struct QueryRequest {
  DocId doc_id = 0;  ///< reference post id
  uint32_t k = 0;    ///< number of results requested (>= 1)
};

void encode_query(const QueryRequest& req, std::string* payload);
bool decode_query(std::string_view payload, QueryRequest* out);

/// \brief ASK: top-k related posts for an external (non-ingested) post.
struct AskRequest {
  uint32_t k = 0;    ///< number of results requested (>= 1)
  std::string text;  ///< the post text (UTF-8 expected, not enforced)
};

void encode_ask(const AskRequest& req, std::string* payload);
bool decode_ask(std::string_view payload, AskRequest* out);

/// \brief ADD_POST: ingest one post.
struct AddPostRequest {
  std::string text;  ///< the post text
};

void encode_add_post(const AddPostRequest& req, std::string* payload);
bool decode_add_post(std::string_view payload, AddPostRequest* out);

/// \brief ADD_POSTS: ingest a batch of posts; they take consecutive
/// publication sequence numbers and are acknowledged together (the
/// ShardedServing::add_posts contract, docs/PROTOCOL.md §4.5).
struct AddPostsRequest {
  std::vector<std::string> texts;  ///< 1..kMaxBatchPosts post texts
};

void encode_add_posts(const AddPostsRequest& req, std::string* payload);
bool decode_add_posts(std::string_view payload, AddPostsRequest* out);

/// \brief METRICS: request a metrics snapshot.
struct MetricsRequest {
  /// 0 = Prometheus text exposition, 1 = JSON (PROTOCOL.md §4.7).
  uint8_t format = 0;
};

void encode_metrics(const MetricsRequest& req, std::string* payload);
bool decode_metrics(std::string_view payload, MetricsRequest* out);

/// \brief SUBSCRIBE_WAL: a replica pulls the segment of publications past
/// its applied cursor. Pull-based (one request, one response) so it rides
/// the existing strict request/response connection model — a replica polls
/// at its own cadence and a slow replica can never back-pressure the
/// leader's I/O thread.
struct SubscribeWalRequest {
  uint64_t from_seq = 0;            ///< publications already applied
  uint64_t replica_generation = 0;  ///< replica's offline generation
  uint32_t max_frames = 0;          ///< frame cap for this segment
  uint32_t max_bytes = 0;           ///< byte cap (one frame may exceed it)
  std::string replica_id;           ///< stable name for per-replica gauges
};

void encode_subscribe_wal(const SubscribeWalRequest& req,
                          std::string* payload);
bool decode_subscribe_wal(std::string_view payload, SubscribeWalRequest* out);

/// \brief WAL_ACK: a replica reports its durable applied position; the
/// leader updates its per-replica lag gauges from it.
struct WalAckRequest {
  uint64_t acked_seq = 0;  ///< publications applied on the replica
  std::string replica_id;
};

void encode_wal_ack(const WalAckRequest& req, std::string* payload);
bool decode_wal_ack(std::string_view payload, WalAckRequest* out);

/// \brief SNAPSHOT_CHUNK: read max_len bytes at offset of one listed
/// snapshot file (relative name exactly as SNAPSHOT_LISTING returned it).
struct SnapshotChunkRequest {
  std::string name;
  uint64_t offset = 0;
  uint32_t max_len = 0;  ///< 1 .. kMaxPayloadBytes minus framing overhead
};

void encode_snapshot_chunk(const SnapshotChunkRequest& req,
                           std::string* payload);
bool decode_snapshot_chunk(std::string_view payload,
                           SnapshotChunkRequest* out);

/// \brief TENANT_OPEN: bind this connection to a tenant namespace. Every
/// later tenant-scoped request on the connection (QUERY/ASK/ADD_POST/
/// ADD_POSTS/SAVE/RECLUSTER and the replication pulls) routes to the
/// bound tenant's corpus. Connections that never send TENANT_OPEN operate
/// on the implicit "default" tenant — which is how pre-tenant clients
/// keep working byte-identically (PROTOCOL.md §4.14).
struct TenantOpenRequest {
  std::string name;  ///< 1..kMaxTenantNameBytes bytes of [A-Za-z0-9_-]
};

void encode_tenant_open(const TenantOpenRequest& req, std::string* payload);
bool decode_tenant_open(std::string_view payload, TenantOpenRequest* out);

// PING, SAVE, DRAIN, RECLUSTER, SNAPSHOT_LIST and TENANT_LIST carry empty
// payloads: encoding is encode_frame with an empty payload; decoding
// succeeds iff the payload is empty.

// --- Response payloads (PROTOCOL.md §5).

/// \brief PONG: server liveness + serving coordinates.
struct PongResponse {
  uint64_t epoch = 0;     ///< combined publication epoch at response time
  uint64_t num_docs = 0;  ///< corpus size at response time
};

void encode_pong(const PongResponse& resp, std::string* payload);
bool decode_pong(std::string_view payload, PongResponse* out);

/// \brief RELATED: the answer to QUERY and ASK. Scores are transmitted as
/// raw IEEE-754 bits, so the decoded doubles compare bit-identically to
/// the in-process result (the loopback differential test's contract).
struct RelatedResponse {
  uint64_t epoch = 0;     ///< epoch observed under the query's read locks
  uint64_t num_docs = 0;  ///< corpus size at the same moment
  std::vector<ScoredDoc> results;  ///< (doc id, score), rank order
};

void encode_related(const RelatedResponse& resp, std::string* payload);
bool decode_related(std::string_view payload, RelatedResponse* out);

/// \brief ADDED: ids assigned to the ingested post(s), in request order.
struct AddedResponse {
  std::vector<DocId> ids;
};

void encode_added(const AddedResponse& resp, std::string* payload);
bool decode_added(std::string_view payload, AddedResponse* out);

/// \brief METRICS_DATA: the rendered metrics snapshot.
struct MetricsDataResponse {
  std::string body;  ///< Prometheus text or JSON, per the request's format
};

void encode_metrics_data(const MetricsDataResponse& resp,
                         std::string* payload);
bool decode_metrics_data(std::string_view payload, MetricsDataResponse* out);

/// \brief RECLUSTERED: the answer to RECLUSTER, after the offline rebuild
/// has swapped in (the request is synchronous; long corpora mean long
/// waits — admin clients should use a generous timeout).
struct ReclusteredResponse {
  uint64_t generation = 0;   ///< offline generation after the swap
  uint32_t num_clusters = 0; ///< cluster count of the new generation
};

void encode_reclustered(const ReclusteredResponse& resp,
                        std::string* payload);
bool decode_reclustered(std::string_view payload, ReclusteredResponse* out);

/// \brief ERROR: the failure answer to any request.
struct ErrorResponse {
  ErrCode code = ErrCode::kInternal;
  std::string message;  ///< human-readable detail (not for parsing)
};

void encode_error(const ErrorResponse& resp, std::string* payload);
bool decode_error(std::string_view payload, ErrorResponse* out);

/// \brief WAL_SEGMENT: the answer to SUBSCRIBE_WAL. `raw` carries
/// frame_count WAL-framed records back to back — byte-identical to the
/// storage-layer WAL encoding (storage/wal_codec.h), so the replica's
/// parser IS the recovery parser. frame_count == 0 with recluster_after
/// set means "recluster now, then resubscribe"; frame_count == 0 without
/// it means the replica is caught up.
struct WalSegmentResponse {
  uint64_t base_seq = 0;            ///< seq of the first frame in raw
  uint64_t leader_seq = 0;          ///< leader publication count (lag base)
  uint64_t leader_generation = 0;   ///< leader offline generation
  uint64_t segment_generation = 0;  ///< generation the frames belong to
  uint8_t recluster_after = 0;      ///< 1 = recluster after applying
  uint64_t recluster_target = 0;    ///< generation that recluster reaches
  uint32_t frame_count = 0;
  std::string raw;
};

void encode_wal_segment(const WalSegmentResponse& resp, std::string* payload);
bool decode_wal_segment(std::string_view payload, WalSegmentResponse* out);

/// \brief One file in a SNAPSHOT_LISTING: relative name (e.g. "MANIFEST",
/// "shard-0/snapshot.v2"), byte size, and whole-file CRC-32.
struct SnapshotFileEntry {
  std::string name;
  uint64_t size = 0;
  uint32_t crc = 0;
};

/// \brief SNAPSHOT_LISTING: the bootstrap file set. Fetching every listed
/// file (verified against size + crc) yields a directory restore() accepts
/// — a committed save is self-contained, so no WAL files are listed.
struct SnapshotListingResponse {
  uint64_t generation = 0;  ///< offline generation of the listed snapshot
  uint32_t num_shards = 0;
  std::vector<SnapshotFileEntry> files;
};

void encode_snapshot_listing(const SnapshotListingResponse& resp,
                             std::string* payload);
bool decode_snapshot_listing(std::string_view payload,
                             SnapshotListingResponse* out);

/// \brief SNAPSHOT_DATA: one chunk of a listed file. data may be shorter
/// than the requested max_len at EOF; empty data means offset >= size.
struct SnapshotDataResponse {
  uint64_t total_size = 0;  ///< full size of the file being read
  std::string data;
};

void encode_snapshot_data(const SnapshotDataResponse& resp,
                          std::string* payload);
bool decode_snapshot_data(std::string_view payload, SnapshotDataResponse* out);

/// \brief TENANT_OPENED: the answer to TENANT_OPEN — the bound tenant's
/// serving coordinates at bind time (same fields as PONG, observed on the
/// tenant the connection just bound to).
struct TenantOpenedResponse {
  uint64_t epoch = 0;     ///< tenant's combined publication epoch
  uint64_t num_docs = 0;  ///< tenant's corpus size
};

void encode_tenant_opened(const TenantOpenedResponse& resp,
                          std::string* payload);
bool decode_tenant_opened(std::string_view payload,
                          TenantOpenedResponse* out);

/// \brief One tenant in a TENANT_LISTING: name + live corpus size.
struct TenantEntry {
  std::string name;
  uint64_t num_docs = 0;
};

/// \brief TENANT_LISTING: the answer to TENANT_LIST — every tenant the
/// server hosts, in sorted name order (the set is fixed at server start).
struct TenantListingResponse {
  std::vector<TenantEntry> tenants;
};

void encode_tenant_listing(const TenantListingResponse& resp,
                           std::string* payload);
bool decode_tenant_listing(std::string_view payload,
                           TenantListingResponse* out);

// SAVED, DRAINING and WAL_ACKED carry empty payloads.

/// \brief Stable lowercase command name for a request type ("query",
/// "add_post", ...) — the `cmd` label of ibseg_net_requests_total.
/// Unknown types render as "unknown".
const char* msg_type_name(MsgType type);

}  // namespace net
}  // namespace ibseg

#endif  // IBSEG_NET_FRAME_H_
