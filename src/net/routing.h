#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/topology.h"

namespace choreo::net {

/// A concrete path through the network: the node sequence and the directed
/// links traversed, in order.
struct Route {
  std::vector<NodeId> nodes;
  std::vector<LinkId> links;

  /// Number of links traversed; what traceroute's hop count reports for
  /// host-to-host paths between distinct machines.
  std::size_t hop_count() const { return links.size(); }
  bool empty() const { return links.empty(); }
};

/// Shortest-path router with deterministic ECMP.
///
/// Among equal-cost shortest paths, the next hop is chosen by a hash of
/// (src, dst, flow_key, link), mirroring flow-hash ECMP (§8.1 "a flow's path
/// is selected based on a hash of various header fields"). A given flow key
/// therefore always takes the same path, but two different flows between the
/// same subtrees may traverse different aggregate/core switches — the effect
/// §3.3.2 rule 2 warns about.
///
/// Thread safety: `route` and `hop_count` may be called concurrently from
/// multiple threads (the measurement plane runs one round's packet trains on
/// a worker pool, and every fluid simulation of a cloud routes through that
/// cloud's one Router); the BFS distance cache is guarded by a mutex and
/// entries are reference-stable once inserted.
///
/// Distances are cached as 8-bit hop counts, one byte per node per
/// destination: a topology in which some node lies 255 or more hops from a
/// destination it can reach is rejected with PreconditionError when that
/// destination is first routed to.
class Router {
 public:
  explicit Router(const Topology& topo);

  const Topology& topology() const { return topo_; }

  /// Shortest route from src to dst; `flow_key` selects among ECMP paths.
  /// Throws PreconditionError if dst is unreachable from src.
  Route route(NodeId src, NodeId dst, std::uint64_t flow_key = 0) const;

  /// Appends the links of route(src, dst, flow_key) to `links` without
  /// building a Route: allocation-free once `links` has the capacity.
  void route_links(NodeId src, NodeId dst, std::uint64_t flow_key,
                   std::vector<LinkId>& links) const;

  /// Link count of the shortest path (independent of ECMP choice).
  std::size_t hop_count(NodeId src, NodeId dst) const;

 private:
  /// Walks the route, calling `hop(link)` for each link in order.
  template <class Hop>
  void walk(NodeId src, NodeId dst, std::uint64_t flow_key, Hop&& hop) const;

  /// BFS distances from every node to `dst` (computed on demand, cached).
  const std::vector<std::uint8_t>& distances_to(NodeId dst) const;

  const Topology& topo_;
  mutable std::mutex cache_mutex_;
  mutable std::unordered_map<NodeId, std::vector<std::uint8_t>> dist_cache_;
};

}  // namespace choreo::net
