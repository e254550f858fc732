#include "net/routing.h"

#include <deque>
#include <limits>

namespace choreo::net {
namespace {

constexpr std::uint8_t kUnreachable = std::numeric_limits<std::uint8_t>::max();

/// SplitMix64: cheap, well-mixed deterministic hash for ECMP choices.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Router::Router(const Topology& topo) : topo_(topo) {}

const std::vector<std::uint8_t>& Router::distances_to(NodeId dst) const {
  // unordered_map node storage keeps returned references stable across later
  // insertions, so callers may keep reading after the lock is released.
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = dist_cache_.find(dst);
  if (it != dist_cache_.end()) return it->second;

  std::vector<std::uint8_t> dist(topo_.node_count(), kUnreachable);
  dist[dst] = 0;
  std::deque<NodeId> queue{dst};
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    // Walk incoming edges by scanning the reverse direction of out-links:
    // every duplex link has a twin, so out_links(u) covers all neighbours.
    for (LinkId lid : topo_.out_links(u)) {
      const Link& l = topo_.link(lid);
      const NodeId v = l.dst;
      if (dist[v] == kUnreachable) {
        CHOREO_REQUIRE_MSG(dist[u] + 1 < kUnreachable,
                           "topology too deep for 8-bit hop counts: node "
                               << v << " lies " << dist[u] + 1 << " hops from node " << dst);
        dist[v] = static_cast<std::uint8_t>(dist[u] + 1);
        queue.push_back(v);
      }
    }
  }
  return dist_cache_.emplace(dst, std::move(dist)).first->second;
}

template <class Hop>
void Router::walk(NodeId src, NodeId dst, std::uint64_t flow_key, Hop&& hop) const {
  CHOREO_REQUIRE(src < topo_.node_count() && dst < topo_.node_count());
  const auto& dist = distances_to(dst);
  CHOREO_REQUIRE_MSG(dist[src] != kUnreachable, "destination unreachable");

  NodeId cur = src;
  while (cur != dst) {
    // Candidate next hops: neighbours strictly closer to dst.
    LinkId best_link = 0;
    std::uint64_t best_hash = 0;
    bool found = false;
    for (LinkId lid : topo_.out_links(cur)) {
      const Link& l = topo_.link(lid);
      if (dist[l.dst] + 1 != dist[cur]) continue;
      const std::uint64_t h = mix(mix(flow_key ^ (static_cast<std::uint64_t>(src) << 32 | dst)) ^
                                  static_cast<std::uint64_t>(lid));
      if (!found || h < best_hash) {
        found = true;
        best_hash = h;
        best_link = lid;
      }
    }
    CHOREO_ASSERT(found);
    hop(best_link);
    cur = topo_.link(best_link).dst;
  }
}

Route Router::route(NodeId src, NodeId dst, std::uint64_t flow_key) const {
  Route r;
  r.nodes.push_back(src);
  walk(src, dst, flow_key, [&](LinkId l) {
    r.links.push_back(l);
    r.nodes.push_back(topo_.link(l).dst);
  });
  return r;
}

void Router::route_links(NodeId src, NodeId dst, std::uint64_t flow_key,
                         std::vector<LinkId>& links) const {
  walk(src, dst, flow_key, [&](LinkId l) { links.push_back(l); });
}

std::size_t Router::hop_count(NodeId src, NodeId dst) const {
  CHOREO_REQUIRE(src < topo_.node_count() && dst < topo_.node_count());
  const auto& dist = distances_to(dst);
  CHOREO_REQUIRE_MSG(dist[src] != kUnreachable, "destination unreachable");
  return dist[src];
}

}  // namespace choreo::net
