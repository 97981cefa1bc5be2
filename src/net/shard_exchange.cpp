#include "net/shard_exchange.hpp"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>

#include "common/contracts.hpp"
#include "wire/codec.hpp"

namespace mpqls::net {

namespace dist = qsim::exec::dist;

HttpPeerChannel::HttpPeerChannel(service::ShardSpec shard, dist::ShardHub& hub,
                                 std::size_t max_body_bytes, Deadlines deadlines,
                                 std::chrono::milliseconds await_timeout)
    : shard_(std::move(shard)),
      hub_(hub),
      frame_budget_(max_body_bytes > wire::kShardExchangeOverheadBytes
                        ? max_body_bytes - wire::kShardExchangeOverheadBytes
                        : 0),
      deadlines_(deadlines),
      await_timeout_(await_timeout),
      clients_(shard_.peers.size()) {
  expects(shard_.distributed(), "shard exchange: group of one needs no transport");
  expects(shard_.peers.size() == shard_.world, "shard exchange: one endpoint per rank");
  expects(frame_budget_ > 0, "shard exchange: body cap leaves no room for a frame payload");
  hub_.register_group({shard_.group, shard_.rank, shard_.world, shard_.peers});
}

HttpPeerChannel::~HttpPeerChannel() {
  hub_.clear_group(shard_.group);
  hub_.unregister_group(shard_.group);
}

HttpClient& HttpPeerChannel::client_for(std::uint32_t peer) {
  if (!clients_[peer]) {
    const std::string& endpoint = shard_.peers[peer];
    const auto colon = endpoint.rfind(':');
    if (colon == std::string::npos || colon + 1 == endpoint.size()) {
      throw dist::DistTransportError("bad peer endpoint for rank " + std::to_string(peer));
    }
    const int port = std::stoi(endpoint.substr(colon + 1));
    if (port < 1 || port > 65535) {
      throw dist::DistTransportError("bad peer port for rank " + std::to_string(peer));
    }
    clients_[peer] = std::make_unique<HttpClient>(
        endpoint.substr(0, colon), static_cast<std::uint16_t>(port), deadlines_);
  }
  return *clients_[peer];
}

void HttpPeerChannel::exchange(std::uint32_t peer, std::uint64_t seq, const void* send,
                               void* recv, std::size_t bytes) {
  if (peer >= shard_.world || peer == shard_.rank) {
    throw dist::DistTransportError("exchange peer rank out of range");
  }
  // Ship first, await second: the peer does the same, so all frames are
  // in flight before either side blocks on its hub.
  const std::size_t pieces = bytes == 0 ? 1 : (bytes + frame_budget_ - 1) / frame_budget_;
  if (pieces > (std::size_t{1} << 16) || seq >= (std::uint64_t{1} << 48)) {
    throw dist::DistTransportError("exchange too large for the frame budget");
  }
  const auto piece_span = [&](std::size_t k) {
    const std::size_t begin = k * frame_budget_;
    return std::pair{begin, std::min(bytes, begin + frame_budget_) - begin};
  };
  for (std::size_t k = 0; k < pieces; ++k) {
    const auto [begin, len] = piece_span(k);
    std::string frame = wire::encode_shard_exchange(
        shard_.group, shard_.rank, (seq << 16) | k,
        std::string_view(static_cast<const char*>(send) + begin, len));
    try {
      const auto response =
          client_for(peer).post("/v1/shard/exchange", std::move(frame), wire::kContentType);
      if (response.status < 200 || response.status >= 300) {
        throw dist::DistTransportError("peer rank " + std::to_string(peer) +
                                       " refused exchange with status " +
                                       std::to_string(response.status));
      }
    } catch (const HttpError& e) {
      throw dist::DistTransportError("exchange with rank " + std::to_string(peer) +
                                     " failed: " + e.what());
    }
  }
  for (std::size_t k = 0; k < pieces; ++k) {
    const auto [begin, len] = piece_span(k);
    hub_.await(shard_.group, peer, (seq << 16) | k, static_cast<char*>(recv) + begin, len,
               await_timeout_);
  }
}

}  // namespace mpqls::net
