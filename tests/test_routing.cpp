#include "net/routing.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cloud/cloud.h"

namespace choreo::net {
namespace {

Topology small_tree() {
  TreeParams p;
  p.pods = 2;
  p.racks_per_pod = 2;
  p.hosts_per_rack = 2;
  p.aggs_per_pod = 2;
  p.cores = 2;
  return make_multi_rooted_tree(p);
}

TEST(Router, HopCountsMatchTreeStructure) {
  const Topology t = small_tree();
  const Router r(t);
  const auto hosts = t.nodes_of_kind(NodeKind::Host);
  // hosts are created rack-by-rack: 0,1 on rack0; 2,3 on rack1 (same pod);
  // 4.. in pod 1.
  EXPECT_EQ(r.hop_count(hosts[0], hosts[1]), 2u);  // same rack
  EXPECT_EQ(r.hop_count(hosts[0], hosts[2]), 4u);  // same pod
  EXPECT_EQ(r.hop_count(hosts[0], hosts[4]), 6u);  // across pods
  EXPECT_EQ(r.hop_count(hosts[0], hosts[0]), 0u);
}

TEST(Router, RegionalTreeGivesEightHops) {
  RegionalTreeParams p;
  p.regions = 2;
  p.super_cores = 2;
  p.region.pods = 2;
  p.region.racks_per_pod = 2;
  p.region.hosts_per_rack = 2;
  const Topology t = make_regional_tree(p);
  const Router r(t);
  const auto hosts = t.nodes_of_kind(NodeKind::Host);
  // First and last hosts live in different regions.
  const NodeId a = hosts.front();
  const NodeId b = hosts.back();
  ASSERT_NE(t.node(a).region, t.node(b).region);
  EXPECT_EQ(r.hop_count(a, b), 8u);
}

TEST(Router, RouteIsConsistentWithHopCount) {
  const Topology t = small_tree();
  const Router r(t);
  const auto hosts = t.nodes_of_kind(NodeKind::Host);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    for (std::size_t j = 0; j < hosts.size(); ++j) {
      if (i == j) continue;
      const Route route = r.route(hosts[i], hosts[j], 7);
      EXPECT_EQ(route.hop_count(), r.hop_count(hosts[i], hosts[j]));
      EXPECT_EQ(route.nodes.front(), hosts[i]);
      EXPECT_EQ(route.nodes.back(), hosts[j]);
      // Links must chain.
      for (std::size_t k = 0; k < route.links.size(); ++k) {
        EXPECT_EQ(t.link(route.links[k]).src, route.nodes[k]);
        EXPECT_EQ(t.link(route.links[k]).dst, route.nodes[k + 1]);
      }
    }
  }
}

TEST(Router, SameFlowKeySamePath) {
  const Topology t = small_tree();
  const Router r(t);
  const auto hosts = t.nodes_of_kind(NodeKind::Host);
  const Route r1 = r.route(hosts[0], hosts[7], 1234);
  const Route r2 = r.route(hosts[0], hosts[7], 1234);
  EXPECT_EQ(r1.links, r2.links);
}

TEST(Router, EcmpSpreadsAcrossKeys) {
  const Topology t = small_tree();
  const Router r(t);
  const auto hosts = t.nodes_of_kind(NodeKind::Host);
  std::set<std::vector<LinkId>> distinct;
  for (std::uint64_t key = 0; key < 32; ++key) {
    distinct.insert(r.route(hosts[0], hosts[7], key).links);
  }
  // With 2 aggs and 2 cores there are several equal-cost paths; flow hashing
  // should find more than one.
  EXPECT_GT(distinct.size(), 1u);
}

TEST(Router, UnreachableThrows) {
  Topology t;
  const NodeId a = t.add_node(NodeKind::Host, "a");
  const NodeId b = t.add_node(NodeKind::Host, "b");
  const Router r(t);
  EXPECT_THROW(r.route(a, b, 0), PreconditionError);
  EXPECT_THROW(r.hop_count(a, b), PreconditionError);
}

/// `n` nodes in a line: node i links to node i + 1.
Topology chain(std::size_t n) {
  Topology t;
  for (std::size_t i = 0; i < n; ++i) {
    t.add_node(NodeKind::Host, std::to_string(i));
    if (i > 0) t.add_duplex_link(i - 1, i, 1e9, 1e-6);
  }
  return t;
}

// Hop counts are cached in 8 bits: 254 hops is the deepest a topology may
// go, and one node further is rejected rather than wrapped.
TEST(Router, ChainAtTheDepthLimitRoutesAndOneDeeperIsRejected) {
  const Topology deepest = chain(255);
  const Router r(deepest);
  EXPECT_EQ(r.hop_count(0, 254), 254u);
  EXPECT_EQ(r.route(254, 0, 3).links.size(), 254u);
  EXPECT_EQ(r.hop_count(100, 101), 1u);

  const Topology too_deep = chain(256);
  const Router deep(too_deep);
  EXPECT_THROW(deep.route(0, 255, 0), PreconditionError);
  // Any destination whose BFS reaches 255 hops is rejected, even for a
  // source next door.
  EXPECT_THROW(deep.hop_count(1, 0), PreconditionError);
  EXPECT_EQ(deep.hop_count(128, 129), 1u);
}

// Every fluid simulation of a Cloud routes through the Cloud's one Router.
// Its routes, background and tenant flows alike, must be exactly those of a
// private Router on the same fabric — also once the shared distance cache is
// warm from earlier epochs, trains and ground truth.
TEST(Router, CloudSimsRouteEveryFlowAsAPrivateRouterDoes) {
  for (const cloud::ProviderProfile& profile :
       {cloud::ec2_2013(), cloud::ec2_2012(), cloud::rackspace()}) {
    cloud::Cloud c(profile, 61);
    const auto vms = c.allocate_vms(8);
    const Router fresh(c.topology());
    std::size_t checked = 0;
    for (std::uint64_t epoch : {1, 2, 3}) {
      const auto bundle = c.make_sim(epoch);
      for (cloud::VmId a : vms) {
        for (cloud::VmId b : vms) {
          if (a == b) continue;
          bundle->sim.add_flow(
              c.tenant_flow(*bundle, a, b, 1e6, 0.0, 97 * a + b + 1000 * epoch));
        }
      }
      for (flowsim::FlowId f = 0; f < bundle->sim.flow_count(); ++f) {
        const flowsim::FlowState& st = bundle->sim.flow(f);
        if (st.spec.src == st.spec.dst) {
          EXPECT_TRUE(st.route.empty());
          continue;
        }
        const Route expected = fresh.route(st.spec.src, st.spec.dst, st.spec.flow_key);
        EXPECT_EQ(st.route.nodes, expected.nodes) << profile.name << " flow " << f;
        EXPECT_EQ(st.route.links, expected.links) << profile.name << " flow " << f;
        ++checked;
      }
      // Warm the shared cache further before the next epoch.
      c.traffic_snapshot(epoch + 10);
      c.true_path_rates_bps({{vms[0], vms[1]}}, epoch + 10);
    }
    EXPECT_GE(checked, 3 * profile.bg_flow_count);
  }
}

}  // namespace
}  // namespace choreo::net
