// Binary codec for the service's job API: SolveRequest, SolveResult and
// raw matrix payloads map directly to/from length-prefixed frames
// (wire/frame.hpp) with no intermediate JSON tree. Field-for-field parity
// with service/json_io is a test invariant (round-trip tests cross-check
// the two), and both front doors enforce the same service/limits.hpp caps.
//
// The request payload intentionally supports only what the binary path is
// for — an explicit dense matrix or a matrix_ref, plus explicit RHS
// vectors. Scenario generators and RHS synthesis stay JSON-only
// conveniences.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "linalg/matrix.hpp"
#include "service/request.hpp"
#include "wire/frame.hpp"  // WireError, frame constants (callers catch/inspect)

namespace mpqls::wire {

/// Content-Type value that selects this codec on the daemon routes.
inline constexpr const char* kContentType = "application/x-mpqls-frame";

/// True when a Content-Type header value names the frame codec
/// (parameters after ';' are ignored, match is case-insensitive).
bool is_frame_content_type(std::string_view value);

// --- requests --------------------------------------------------------------

/// Encode with the matrix inline (dense) or, when request.matrix_ref is
/// nonzero, as the 8-byte reference.
std::string encode_request(const service::SolveRequest& request);

/// Decode a kSolveRequest frame. A by-ref payload needs `resolve` to
/// produce the matrix (the daemon passes a store lookup); without one the
/// request is returned unresolved (matrix_ref set, empty matrix) and RHS
/// dimensions are only checked for mutual consistency.
service::SolveRequest decode_request(std::string_view frame,
                                     const service::MatrixResolver& resolve = {});

/// Header + id peek only: the matrix_ref of a by-ref request frame,
/// std::nullopt for an inline one. Cheap enough for the admission path
/// (no payload decode); throws WireError if even the prefix is malformed.
std::optional<std::uint64_t> peek_request_matrix_ref(std::string_view frame);

/// The client trace id of a request frame without decoding the body: v3
/// appended it as the final 16 payload bytes, so this is a
/// fixed-offset-from-the-end read. Zero for v2 frames (which predate the
/// field) and for v3 frames whose client supplied none — the front door
/// mints an id in both cases.
trace::TraceId peek_request_trace(std::string_view frame);

/// Routing key for a request frame without materializing it: the
/// matrix_ref if present, otherwise the content hash
/// (service::hash_matrix) streamed over the inline matrix bytes. By-ref
/// submits and the uploads that created the ref therefore key identically
/// on the cluster ring.
std::uint64_t request_affinity_key(std::string_view frame);

// --- results ---------------------------------------------------------------

std::string encode_result(const service::SolveResult& result);
service::SolveResult decode_result(std::string_view frame);

// --- matrices (PUT /v1/matrices payload) -----------------------------------

std::string encode_matrix(const linalg::Matrix<double>& A);
linalg::Matrix<double> decode_matrix(std::string_view frame);

/// Content hash (identical to service::hash_matrix of the decoded matrix)
/// streamed straight off a kMatrix frame — what the coordinator routes
/// uploads by without building the 128 MiB matrix.
std::uint64_t hash_matrix_frame(std::string_view frame);

// --- shard exchanges (POST /v1/shard/exchange payload) ----------------------

/// One rank's half of a pairwise amplitude swap inside a distributed
/// shard-group solve: which group, which sender rank, which exchange
/// sequence slot, and the raw amplitude block (opaque bytes — the
/// receiving executor knows the element type and count from its own plan).
struct ShardExchange {
  std::uint64_t group = 0;
  std::uint32_t from = 0;
  std::uint64_t seq = 0;
  std::string payload;
};

/// Bytes a kShardExchange frame adds around its payload: the frame
/// header plus group, from, seq and the payload length.
inline constexpr std::size_t kShardExchangeOverheadBytes = kFrameHeaderBytes + 8 + 4 + 8 + 8;

std::string encode_shard_exchange(std::uint64_t group, std::uint32_t from, std::uint64_t seq,
                                  std::string_view payload);
ShardExchange decode_shard_exchange(std::string_view frame);

}  // namespace mpqls::wire
