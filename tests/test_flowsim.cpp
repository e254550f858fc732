#include "flowsim/sim.h"

#include <gtest/gtest.h>

#include <limits>

#include "net/topology.h"
#include "util/units.h"

namespace choreo::flowsim {
namespace {

using net::NodeId;
using net::NodeKind;
using net::Topology;

Topology two_hosts(double rate = 1e9) {
  Topology t;
  const NodeId a = t.add_node(NodeKind::Host, "a");
  const NodeId b = t.add_node(NodeKind::Host, "b");
  t.add_duplex_link(a, b, rate, 10e-6);
  return t;
}

TEST(FlowSim, SingleFlowCompletionTime) {
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.bytes = units::gigabytes(1);  // 8 seconds at 1 Gbit/s
  const FlowId f = sim.add_flow(spec);
  sim.run_to_completion();
  EXPECT_TRUE(sim.flow(f).finished);
  EXPECT_NEAR(sim.flow(f).completion_time, 8.0, 1e-6);
  EXPECT_NEAR(sim.flow(f).bytes_received, 1e9, 1.0);
}

TEST(FlowSim, TwoFlowsShareThenSpeedUp) {
  // Two equal flows on one 1G link: the first half transfers at 500 Mbit/s
  // each; when the smaller one finishes, the bigger accelerates.
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  FlowSpec small;
  small.src = 0;
  small.dst = 1;
  small.bytes = 125e6;  // 1 Gbit -> alone 1s, shared 2s
  FlowSpec big = small;
  big.bytes = 250e6;
  const FlowId fs = sim.add_flow(small);
  const FlowId fb = sim.add_flow(big);
  sim.run_to_completion();
  // Shared 500 Mbit/s until small finishes at t=2; big then has 125 MB left
  // at 1 Gbit/s -> 1 more second.
  EXPECT_NEAR(sim.flow(fs).completion_time, 2.0, 1e-6);
  EXPECT_NEAR(sim.flow(fb).completion_time, 3.0, 1e-6);
}

TEST(FlowSim, StaggeredArrival) {
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  FlowSpec first;
  first.src = 0;
  first.dst = 1;
  first.bytes = 250e6;  // 2s alone
  FlowSpec second = first;
  second.start_time = 1.0;
  second.bytes = 125e6;
  const FlowId f1 = sim.add_flow(first);
  const FlowId f2 = sim.add_flow(second);
  sim.run_to_completion();
  // f1 alone for 1s (125 MB done), shares 1G for the rest.
  // At t=1: f1 has 125 MB left, f2 has 125 MB; both at 500 Mbit/s -> 2s.
  EXPECT_NEAR(sim.flow(f1).completion_time, 3.0, 1e-6);
  EXPECT_NEAR(sim.flow(f2).completion_time, 3.0, 1e-6);
}

TEST(FlowSim, ExtraResourceHoseCap) {
  const Topology t = two_hosts(10e9);
  const net::Router router(t);
  Sim sim(router);
  const ResourceId hose = sim.add_resource(1e9);
  FlowSpec a;
  a.src = 0;
  a.dst = 1;
  a.bytes = 125e6;
  a.extra_resources = {hose};
  FlowSpec b = a;
  const FlowId fa = sim.add_flow(a);
  const FlowId fb = sim.add_flow(b);
  sim.run_to_completion();
  // Both share the 1G hose despite the 10G link: 2s each (simultaneous).
  EXPECT_NEAR(sim.flow(fa).completion_time, 2.0, 1e-6);
  EXPECT_NEAR(sim.flow(fb).completion_time, 2.0, 1e-6);
}

TEST(FlowSim, RateCapRespected) {
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.bytes = 125e6;
  spec.rate_cap = 100e6;
  const FlowId f = sim.add_flow(spec);
  sim.run_to_completion();
  EXPECT_NEAR(sim.flow(f).completion_time, 10.0, 1e-6);
}

TEST(FlowSim, RateCapDoesNotRedistribute) {
  // rate_cap is applied *after* waterfilling: the capped flow is frozen at
  // min(fair share, cap) but its unused share is NOT handed back to other
  // flows. On a 1G link split two ways, capping A at 100M leaves B at its
  // 500M fair share, not 900M. Cap-aware redistribution is flagged as future
  // work in docs/ARCHITECTURE.md; this test pins the current contract.
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  FlowSpec capped;
  capped.src = 0;
  capped.dst = 1;
  capped.bytes = kInfiniteBytes;
  capped.rate_cap = 100e6;
  FlowSpec uncapped = capped;
  uncapped.rate_cap = std::numeric_limits<double>::infinity();
  const FlowId fa = sim.add_flow(capped);
  const FlowId fb = sim.add_flow(uncapped);
  sim.run_until(2.0);
  EXPECT_EQ(sim.flow(fa).rate_bps, 100e6);
  EXPECT_EQ(sim.flow(fb).rate_bps, 0.5e9);
  EXPECT_EQ(sim.flow(fa).bytes_received, 2.0 * 100e6 / 8.0);
  EXPECT_EQ(sim.flow(fb).bytes_received, 2.0 * 0.5e9 / 8.0);
}

TEST(FlowSim, IntraHostFlowUsesUnconstrainedRate) {
  Topology t;
  t.add_node(NodeKind::Host, "a");
  const net::Router router(t);
  Sim sim(router, /*unconstrained_rate=*/8e9);
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 0;
  spec.bytes = 1e9;
  const FlowId f = sim.add_flow(spec);
  sim.run_to_completion();
  EXPECT_NEAR(sim.flow(f).completion_time, 1.0, 1e-6);
}

TEST(FlowSim, PersistentFlowAccumulatesBytes) {
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.bytes = kInfiniteBytes;
  const FlowId f = sim.add_flow(spec);
  sim.run_until(4.0);
  EXPECT_FALSE(sim.flow(f).finished);
  EXPECT_NEAR(sim.flow(f).bytes_received, 500e6, 1.0);
  EXPECT_DOUBLE_EQ(sim.flow(f).rate_bps, 1e9);
}

TEST(FlowSim, SamplerSeesEvolvingRates) {
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  FlowSpec probe;
  probe.src = 0;
  probe.dst = 1;
  probe.bytes = kInfiniteBytes;
  const FlowId f = sim.add_flow(probe);
  FlowSpec competitor = probe;
  competitor.start_time = 1.0;
  sim.add_flow(competitor);

  std::vector<double> rates;
  sim.add_sampler(0.25, 0.5, [&](double) { rates.push_back(sim.flow(f).rate_bps); });
  sim.run_until(2.0);
  ASSERT_GE(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates.front(), 1e9);    // alone at t=0.25
  EXPECT_DOUBLE_EQ(rates.back(), 0.5e9);   // sharing after t=1
}

TEST(FlowSim, OnOffFlowTogglesLoad) {
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  FlowSpec probe;
  probe.src = 0;
  probe.dst = 1;
  probe.bytes = kInfiniteBytes;
  const FlowId f = sim.add_flow(probe);
  FlowSpec bg = probe;
  sim.add_on_off_flow(bg, 0.5, 0.5, true, 99);

  std::vector<double> rates;
  sim.add_sampler(0.05, 0.05, [&](double) { rates.push_back(sim.flow(f).rate_bps); });
  sim.run_until(10.0);
  bool saw_full = false, saw_half = false;
  for (double r : rates) {
    if (r > 0.99e9) saw_full = true;
    if (r < 0.51e9) saw_half = true;
  }
  EXPECT_TRUE(saw_full);
  EXPECT_TRUE(saw_half);
}

TEST(FlowSim, MakespanTracksLastCompletion) {
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.bytes = 125e6;
  sim.add_flow(spec);
  spec.bytes = 250e6;
  sim.add_flow(spec);
  sim.run_to_completion();
  EXPECT_NEAR(sim.makespan(), 3.0, 1e-6);
}

TEST(FlowSim, RunToCompletionRequiresFiniteFlow) {
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.bytes = kInfiniteBytes;
  sim.add_flow(spec);
  EXPECT_THROW(sim.run_to_completion(), PreconditionError);
}

TEST(FlowSim, ArrivalBeforeNowRejected) {
  const Topology t = two_hosts(1e9);
  const net::Router router(t);
  Sim sim(router);
  sim.run_until(5.0);
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.bytes = 1.0;
  spec.start_time = 1.0;  // in the past
  EXPECT_THROW(sim.add_flow(spec), PreconditionError);
}

}  // namespace
}  // namespace choreo::flowsim
