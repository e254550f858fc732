// Ground-truth path rates: one background settle per batch.
//
// Cloud::true_path_rates_bps settles an epoch's background once and solves
// every probe pair as a what-if against it. The oracle is the per-pair
// computation it replaced (bench/true_rate_oracle.h): a fresh simulation
// per pair with the probe registered after the background, run to the
// settle instant. The batch must equal it bit for bit on every ordered
// pair, over all three provider profiles, colocated pairs, background
// toggles inside the settle window, dense capped backgrounds, and
// concurrent batches on one Cloud. The settle itself is pinned against the
// eager settle it replaced (bench/settle_oracle.h) and, on a background that
// toggles throughout the window, against hexfloat goldens. The what-if
// replay under the batch (MaxMinKernel::WhatIf) is pinned against the
// component recompute it replaced (bench::oracle_probe_rate) and against
// max_min_rates, on random kernels and on settled fabrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "cloud/cloud.h"
#include "flowsim/max_min.h"
#include "flowsim/max_min_kernel.h"
#include "json_test_util.h"
#include "measure/throughput_matrix.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/trace.h"
#include "settle_oracle.h"
#include "true_rate_oracle.h"
#include "util/rng.h"

namespace choreo {
namespace {

using cloud::Cloud;
using cloud::ProviderProfile;
using cloud::VmId;

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

struct Coverage {
  std::size_t pairs = 0;
  std::size_t colocated = 0;
  /// Inter-host pairs held below their source hose: a fabric link shared
  /// with the background decides their rate.
  std::size_t link_limited = 0;
  /// Pairs whose probe shared a link with at least two background flows
  /// running at their rate cap.
  std::size_t shares_capped_bottleneck = 0;
};

/// Compares the batch against the oracle on every ordered pair of `vms` at
/// `epoch`; returns the mismatch count and accumulates coverage.
std::size_t batch_vs_oracle(const Cloud& cloud, std::uint64_t seed,
                            const std::vector<VmId>& vms, std::uint64_t epoch,
                            Coverage& cov) {
  const auto pairs = bench::all_ordered_pairs(vms);
  const std::vector<double> batch = cloud.true_path_rates_bps(pairs, epoch);
  EXPECT_EQ(batch.size(), pairs.size());
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const auto [src, dst] = pairs[k];
    const bench::OracleRun oracle = bench::oracle_true_rate(cloud, seed, src, dst, epoch);
    if (!same_bits(batch[k], oracle.rate_bps)) {
      ++mismatches;
      ADD_FAILURE() << "seed " << seed << " epoch " << epoch << " pair " << src << "->"
                    << dst << ": batch " << batch[k] << " vs per-pair " << oracle.rate_bps;
    }
    ++cov.pairs;
    if (cloud.vm_host(src) == cloud.vm_host(dst)) {
      ++cov.colocated;
    } else if (oracle.rate_bps < cloud.vm_hose_bps(src)) {
      ++cov.link_limited;
    }

    const flowsim::Sim& sim = oracle.bundle->sim;
    const auto& probe_links = sim.flow(oracle.probe).route.links;
    std::size_t capped = 0;
    for (flowsim::FlowId f = 0; f < oracle.probe; ++f) {
      const flowsim::FlowState& bg = sim.flow(f);
      if (bg.rate_bps <= 0.0 || bg.rate_bps != bg.spec.rate_cap) continue;
      for (net::LinkId l : bg.route.links) {
        if (std::find(probe_links.begin(), probe_links.end(), l) != probe_links.end()) {
          ++capped;
          break;
        }
      }
    }
    if (capped >= 2) ++cov.shares_capped_bottleneck;
  }
  return mismatches;
}

std::size_t sweep(const ProviderProfile& profile, const std::vector<std::uint64_t>& seeds,
                  const std::vector<std::uint64_t>& epochs, std::size_t n_vms, Coverage& cov) {
  std::size_t mismatches = 0;
  for (std::uint64_t seed : seeds) {
    Cloud cloud(profile, seed);
    const auto vms = cloud.allocate_vms(n_vms);
    for (std::uint64_t epoch : epochs) {
      mismatches += batch_vs_oracle(cloud, seed, vms, epoch, cov);
    }
  }
  return mismatches;
}

/// `profile` on a fabric whose every link runs at `link_bps`: with links
/// near the hose rates, probes contend with the background on the fabric
/// instead of stopping at their own hose.
ProviderProfile thin_fabric(ProviderProfile profile, double link_bps) {
  profile.tree.super_link_bps = link_bps;
  profile.tree.region.host_link_bps = link_bps;
  profile.tree.region.agg_link_bps = link_bps;
  profile.tree.region.core_link_bps = link_bps;
  return profile;
}

TEST(TrueRates, BatchBitIdenticalToPerPairSimsOnEveryProfile) {
  Coverage cov;
  std::size_t mismatches = 0;
  for (ProviderProfile profile : {cloud::ec2_2013(), cloud::ec2_2012(), cloud::rackspace()}) {
    profile.colocate_prob = 0.2;  // same-host pairs take the vswitch branch
    mismatches += sweep(profile, {3, 17, 101}, {1, 2, 9}, 9, cov);
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(cov.pairs, 3u * 3u * 3u * 72u);
  EXPECT_GT(cov.colocated, 0u);
}

TEST(TrueRates, BackgroundTogglesInsideTheSettleWindow) {
  ProviderProfile profile = thin_fabric(cloud::ec2_2013(), 2e9);
  profile.bg_flow_count = 60;
  profile.bg_rate_cap_bps = 1e9;
  profile.bg_mean_on_s = 1e-4;
  profile.bg_mean_off_s = 1e-4;
  // The background really churns before the settle instant: every toggle
  // is a reallocation beyond the arrivals at t = 0.
  {
    const Cloud cloud(profile, 5);
    const auto bundle = cloud.make_sim(1);
    bundle->sim.run_until(Cloud::kBackgroundSettleS);
    EXPECT_GT(bundle->sim.reallocations(), 50u);
  }
  Coverage cov;
  EXPECT_EQ(sweep(profile, {5}, {1, 2, 3}, 8, cov), 0u);
  EXPECT_GT(cov.link_limited, cov.pairs / 4);
}

/// ec2_2013 on a 2 Gbit/s fabric whose background holds ON ~0.2 ms and OFF
/// ~0.3 ms: most flows toggle several times inside the 1 ms settle, so the
/// settle builds most flows' engines and draws past their first output.
ProviderProfile toggling_profile() {
  ProviderProfile profile = thin_fabric(cloud::ec2_2013(), 2e9);
  profile.bg_flow_count = 60;
  profile.bg_rate_cap_bps = 1e9;
  profile.bg_mean_on_s = 2e-4;
  profile.bg_mean_off_s = 3e-4;
  return profile;
}

/// One (seed, epoch) of toggling_profile(), pinned as hexfloats from the
/// eagerly seeded engines the lazy ones replaced: the traffic snapshot as
/// its count of background-loaded links and two digests of available_bps
/// (the plain sum and the sum weighted by link id + 1), and
/// true_path_rates_bps over every ordered pair of the first 4 VMs.
struct SettleGolden {
  std::uint64_t seed;
  std::uint64_t epoch;
  std::size_t loaded_links;
  double available_sum;
  double available_weighted_sum;
  double rates[12];
};

constexpr SettleGolden kTogglingGoldens[] = {
    {5, 1, 115, 0x1.0fc08df7aaaabp+40, 0x1.581797f0a5555p+48,
     {0x1.ca56a469bef2bp+29, 0x1.3de4355555557p+29, 0x1.004ccbp+32,
      0x1.dcd65p+29, 0x1.3de4355555556p+29, 0x1.dcd65p+29,
      0x1.3de4355555555p+29, 0x1.b2cf25f541b87p+29, 0x1.3de4355555555p+29,
      0x1.004ccbp+32, 0x1.dcd65p+29, 0x1.3de4355555557p+29}},
    {5, 2, 138, 0x1.0c6442c755557p+40, 0x1.55859f3361aacp+48,
     {0x1.ca56a469bef2bp+29, 0x1.3de4355555555p+29, 0x1.004ccbp+32,
      0x1.000038c80a617p+30, 0x1.dcd65p+28, 0x1.000038c80a617p+30,
      0x1.3de4355555557p+29, 0x1.7d784p+28, 0x1.3de4355555557p+29,
      0x1.004ccbp+32, 0x1.f9b6369ca2f06p+29, 0x1.3de4355555555p+29}},
    {5, 7, 116, 0x1.10912bbaaaaabp+40, 0x1.55e0ec2b32fffp+48,
     {0x1.ca56a469bef2bp+29, 0x1.ca56a469bef2bp+29, 0x1.004ccbp+32,
      0x1.dcd65p+28, 0x1.3de4355555555p+29, 0x1.dcd65p+28,
      0x1.dcd65p+28, 0x1.dcd65p+28, 0x1.dcd65p+28,
      0x1.004ccbp+32, 0x1.dcd65p+29, 0x1.f9b6369ca2f06p+29}},
    {23, 1, 124, 0x1.0ea47068p+40, 0x1.58afcf784fp+48,
     {0x1.3de4355555556p+29, 0x1.78cd9ffb5b102p+29, 0x1.78cd9ffb5b102p+29,
      0x1.dcd65p+29, 0x1.3de4355555555p+28, 0x1.3de4355555555p+28,
      0x1.3de4355555555p+29, 0x1.dcd65p+28, 0x1.b64edae96f494p+29,
      0x1.3de4355555555p+29, 0x1.3de4355555555p+29, 0x1.dcd65p+28}},
    {23, 2, 117, 0x1.13e6efb79e79cp+40, 0x1.5e10719bdbcf4p+48,
     {0x1.78cd9ffb5b102p+29, 0x1.3de4355555555p+29, 0x1.3de4355555555p+28,
      0x1.06d672e335cfp+30, 0x1.3de4355555555p+28, 0x1.3de4355555555p+29,
      0x1.107a76db6db6ep+28, 0x1.107a76db6db6ep+28, 0x1.b64edae96f494p+29,
      0x1.107a76db6db6ep+28, 0x1.a7bdc8c47697bp+29, 0x1.7d784p+29}},
    {23, 7, 156, 0x1.08d09eb6db6d9p+40, 0x1.4afe12893575dp+48,
     {0x1.78cd9ffb5b102p+29, 0x1.3de4355555555p+29, 0x1.3de4355555555p+29,
      0x1.8d5d42aaaaaabp+29, 0x1.3de4355555555p+29, 0x1.3de4355555555p+29,
      0x1.08e8d71c71c72p+29, 0x1.3de4355555555p+29, 0x1.3de4355555555p+29,
      0x1.5861e471c71c7p+29, 0x1.8d5d42aaaaaabp+28, 0x1.dcd6500000002p+28}},
};

TEST(TrueRates, TogglingBackgroundMatchesPinnedGoldens) {
  const ProviderProfile profile = toggling_profile();
  for (const SettleGolden& g : kTogglingGoldens) {
    SCOPED_TRACE(testing::Message() << "seed " << g.seed << " epoch " << g.epoch);
    Cloud cloud(profile, g.seed);
    const auto vms = cloud.allocate_vms(4);
    {
      const auto bundle = cloud.make_sim(g.epoch);
      bundle->sim.run_until(Cloud::kBackgroundSettleS);
      EXPECT_GT(bundle->sim.reallocations(), 200u);
    }
    const Cloud::TrafficSnapshot snap = cloud.traffic_snapshot(g.epoch);
    std::size_t loaded = 0;
    double sum = 0.0, weighted = 0.0;
    for (std::size_t l = 0; l < snap.available_bps.size(); ++l) {
      sum += snap.available_bps[l];
      weighted += snap.available_bps[l] * static_cast<double>(l + 1);
      if (snap.available_bps[l] < cloud.topology().link(l).capacity_bps) ++loaded;
    }
    EXPECT_EQ(loaded, g.loaded_links);
    EXPECT_TRUE(same_bits(sum, g.available_sum)) << std::hexfloat << sum;
    EXPECT_TRUE(same_bits(weighted, g.available_weighted_sum)) << std::hexfloat << weighted;

    const std::vector<double> rates =
        cloud.true_path_rates_bps(bench::all_ordered_pairs(vms), g.epoch);
    ASSERT_EQ(rates.size(), std::size(g.rates));
    for (std::size_t k = 0; k < rates.size(); ++k) {
      EXPECT_TRUE(same_bits(rates[k], g.rates[k]))
          << "pair " << k << ": " << std::hexfloat << rates[k];
    }
  }
}

// Cloud::traffic_snapshot against the eager settle it replaced
// (bench/settle_oracle.h): a private router, a freshly built resource table
// and fully seeded engines. Bit-identical on every stock profile, where
// almost no flow toggles inside the settle, and on the toggling background,
// where most flows build their engine mid-settle.
TEST(TrueRates, SnapshotBitIdenticalToTheEagerSettle) {
  std::size_t snapshots = 0;
  for (const ProviderProfile& profile :
       {cloud::ec2_2013(), cloud::ec2_2012(), cloud::rackspace(), toggling_profile()}) {
    for (std::uint64_t seed : {3, 17}) {
      Cloud cloud(profile, seed);
      cloud.allocate_vms(6);
      for (std::uint64_t epoch : {1, 2, 9, 40}) {
        const std::vector<double> got = cloud.traffic_snapshot(epoch).available_bps;
        const std::vector<double> want = bench::oracle_available_bps(cloud, seed, epoch);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0)
            << profile.name << " seed " << seed << " epoch " << epoch;
        ++snapshots;
      }
    }
  }
  EXPECT_EQ(snapshots, 4u * 2u * 4u);
}

TEST(TrueRates, DenseCappedBackgroundSharingTheProbesBottlenecks) {
  ProviderProfile profile = thin_fabric(cloud::ec2_2013(), 2e9);
  profile.bg_flow_count = 240;
  profile.bg_rate_cap_bps = 150e6;
  profile.bg_core_bias = 0.9;
  Coverage cov;
  EXPECT_EQ(sweep(profile, {8, 9}, {1, 4}, 8, cov), 0u);
  EXPECT_GT(cov.shares_capped_bottleneck, cov.pairs / 2);
  EXPECT_GT(cov.link_limited, cov.pairs / 4);
}

TEST(TrueRates, ConcurrentBatchesOnOneCloudAreIdentical) {
  Cloud cloud(cloud::ec2_2013(), 31);
  const auto vms = cloud.allocate_vms(8);
  const auto pairs = bench::all_ordered_pairs(vms);
  const std::vector<std::uint64_t> epochs = {1, 2, 3, 4};
  std::vector<std::vector<double>> expected;
  for (std::uint64_t e : epochs) expected.push_back(cloud.true_path_rates_bps(pairs, e));

  // Thread t runs every epoch starting from its own offset, so all four
  // epochs are in flight at once.
  std::vector<std::vector<std::vector<double>>> got(
      4, std::vector<std::vector<double>>(epochs.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < epochs.size(); ++k) {
        const std::size_t e = (t + k) % epochs.size();
        got[t][e] = cloud.true_path_rates_bps(pairs, epochs[e]);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t e = 0; e < epochs.size(); ++e) {
      ASSERT_EQ(got[t][e].size(), pairs.size());
      EXPECT_EQ(std::memcmp(got[t][e].data(), expected[e].data(),
                            pairs.size() * sizeof(double)),
                0)
          << "thread " << t << " epoch " << epochs[e];
    }
  }
}

TEST(TrueRates, OnePairCallIsTheBatchOfOne) {
  Cloud cloud(cloud::rackspace(), 44);
  const auto vms = cloud.allocate_vms(5);
  const auto pairs = bench::all_ordered_pairs(vms);
  const std::vector<double> batch = cloud.true_path_rates_bps(pairs, 3);
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    EXPECT_TRUE(same_bits(cloud.true_path_rate_bps(pairs[k].first, pairs[k].second, 3),
                          batch[k]));
  }
  EXPECT_TRUE(cloud.true_path_rates_bps({}, 3).empty());
}

TEST(TrueRates, OneSettlePerViewThroughTheObserver) {
  obs::Registry registry;
  obs::Tracer tracer;
  obs::Observer observer;
  observer.metrics = &registry;
  observer.tracer = &tracer;
  Cloud cloud(cloud::ec2_2013(), 12);
  cloud.set_observer(observer);
  const auto vms = cloud.allocate_vms(6);
  measure::true_cluster_view(cloud, vms, 2);

  const auto snap = registry.snapshot();
  const auto* settles = snap.find_counter("flowsim.background_settles");
  ASSERT_NE(settles, nullptr);
  EXPECT_EQ(settles->value, 1u);

  const auto parsed = testjson::JsonParser(tracer.to_json()).parse();
  ASSERT_TRUE(parsed.has_value());
  std::size_t spans = 0;
  for (const testjson::JsonValue& ev : parsed->find("traceEvents")->array) {
    if (ev.find("ph")->string != "X" || ev.find("name")->string != "cloud.true_rates") continue;
    ++spans;
    EXPECT_EQ(ev.find("args")->find("pairs")->number, 30.0);
  }
  EXPECT_EQ(spans, 1u);
}

// Sim::probe_rate against the flow it stands for: in a twin run to the same
// instant, the probe added as a real flow (registered last, arriving now)
// reads exactly the probed rate, rate caps, hoses and an unconstrained probe
// included. And a Sim that answered what-ifs continues like one that never
// did: pending capacity changes, flows added after the probes, ON-OFF churn
// and finite completions all land as if no probe had happened.
TEST(TrueRates, SimProbeRateEqualsTheAddedFlowAndLeavesTheSimulationUnchanged) {
  net::TreeParams tp;
  tp.host_link_bps = 2e9;
  const net::Topology topo = net::make_multi_rooted_tree(tp);
  const auto hosts = topo.nodes_of_kind(net::NodeKind::Host);
  const auto host = [&](Rng& rng) {
    return hosts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
  };
  constexpr double kNow = 0.3;
  flowsim::ResourceId hose = 0;
  // Background churn and finite flows, run to kNow, then a capacity change
  // left pending: the probe must answer for the new capacity and leave the
  // change for the next reallocation.
  const auto build = [&](flowsim::Sim& sim) {
    Rng rng(77);
    hose = sim.add_resource(8e8);
    for (int i = 0; i < 24; ++i) {
      flowsim::FlowSpec spec;
      spec.src = host(rng);
      spec.dst = host(rng);
      spec.flow_key = static_cast<std::uint64_t>(i);
      spec.rate_cap = i % 3 == 0 ? 3e8 : spec.rate_cap;
      if (i % 4 == 0) spec.extra_resources.push_back(hose);
      sim.add_on_off_flow(spec, 0.05, 0.05, i % 2 == 0, static_cast<std::uint64_t>(i) + 1);
    }
    for (int i = 0; i < 10; ++i) {
      flowsim::FlowSpec spec;
      spec.src = host(rng);
      spec.dst = host(rng);
      spec.bytes = rng.uniform(1e6, 2e7);
      spec.start_time = rng.uniform(0.0, 0.5);
      spec.flow_key = 1000 + static_cast<std::uint64_t>(i);
      sim.add_flow(spec);
    }
    sim.run_until(kNow);
    sim.set_resource_capacity(hose, 4e8);
  };
  const net::Router router(topo);
  flowsim::Sim probed(router), twin(router);
  build(probed);
  build(twin);

  // The last probe crosses no resource and reads the unconstrained rate.
  Rng rng(5);
  for (int p = 0; p < 8; ++p) {
    const bool last = p == 7;
    flowsim::FlowSpec spec;
    spec.src = host(rng);
    spec.dst = last ? spec.src : host(rng);
    spec.bytes = flowsim::kInfiniteBytes;
    spec.start_time = kNow;
    spec.flow_key = 500 + static_cast<std::uint64_t>(p);
    if (p % 2 == 1 && !last) spec.extra_resources.push_back(hose);
    if (p % 3 == 0) spec.rate_cap = 2e8;
    const double rate = probed.probe_rate(spec);

    flowsim::Sim added(router);
    build(added);
    const flowsim::FlowId id = added.add_flow(spec);
    added.run_until(kNow);
    EXPECT_TRUE(same_bits(rate, added.flow(id).rate_bps))
        << "probe " << p << ": " << rate << " vs " << added.flow(id).rate_bps;
  }

  for (flowsim::Sim* sim : {&probed, &twin}) {
    flowsim::FlowSpec late;
    late.src = hosts.front();
    late.dst = hosts.back();
    late.bytes = 5e6;
    late.start_time = 0.4;
    sim->add_flow(late);
    sim->run_to_completion(100.0);
  }
  ASSERT_EQ(probed.flow_count(), twin.flow_count());
  for (flowsim::FlowId f = 0; f < twin.flow_count(); ++f) {
    const flowsim::FlowState& a = probed.flow(f);
    const flowsim::FlowState& b = twin.flow(f);
    EXPECT_TRUE(same_bits(a.rate_bps, b.rate_bps)) << "flow " << f;
    EXPECT_TRUE(same_bits(a.bytes_received, b.bytes_received)) << "flow " << f;
    EXPECT_TRUE(same_bits(a.completion_time, b.completion_time)) << "flow " << f;
  }
  EXPECT_TRUE(same_bits(probed.makespan(), twin.makespan()));
  EXPECT_EQ(probed.reallocations(), twin.reallocations());
}

// The recorded waterfill's what-if answers against both oracles: a probe's
// rate equals max_min_rates over the active rows plus the probe's row, and
// the component recompute on a copy of the kernel. Recording and replaying
// leave the kernel as it was: active set, flow ids, rates, no dirt.
TEST(TrueRates, KernelProbeRateMatchesTheOracleAndLeavesTheKernelIntact) {
  Rng rng(2013);
  const double unconstrained = 1e12;
  std::size_t probes = 0, empty_rows = 0;
  for (int instance = 0; instance < 60; ++instance) {
    flowsim::MaxMinKernel kernel(unconstrained);
    const std::size_t n_res = static_cast<std::size_t>(rng.uniform_int(2, 10));
    std::vector<double> caps;
    for (std::size_t r = 0; r < n_res; ++r) {
      caps.push_back(rng.chance(0.1) ? 0.0 : rng.uniform(1e8, 1e10));
      kernel.add_resource(caps.back());
    }
    const auto random_row = [&] {
      std::vector<flowsim::ResourceId> row;
      const auto len = rng.uniform_int(0, 4);
      for (std::int64_t i = 0; i < len; ++i) {
        row.push_back(static_cast<flowsim::ResourceId>(
            rng.uniform_int(0, static_cast<std::int64_t>(n_res) - 1)));
      }
      return row;
    };
    std::vector<std::vector<flowsim::ResourceId>> rows;
    const auto n_flows = rng.uniform_int(1, 14);
    for (std::int64_t f = 0; f < n_flows; ++f) {
      rows.push_back(random_row());
      const std::size_t id = kernel.add_flow(rows.back().data(), rows.back().size());
      if (rng.chance(0.7)) kernel.activate(id);
    }
    kernel.recompute();
    const std::vector<std::size_t> active = kernel.active_flows();
    std::vector<std::vector<flowsim::ResourceId>> active_rows;
    for (std::size_t f : active) active_rows.push_back(rows[f]);
    const std::vector<double> settled =
        flowsim::max_min_rates(caps, active_rows, unconstrained);

    const flowsim::MaxMinKernel::WhatIf what_if = kernel.what_if();
    flowsim::MaxMinKernel scratch = kernel;
    for (int p = 0; p < 5; ++p) {
      const std::vector<flowsim::ResourceId> probe = random_row();
      if (probe.empty()) ++empty_rows;
      auto with_probe = active_rows;
      with_probe.push_back(probe);
      const double expected = flowsim::max_min_rates(caps, with_probe, unconstrained).back();
      EXPECT_TRUE(same_bits(what_if.rate(probe.data(), probe.size()), expected))
          << "instance " << instance << " probe " << p;
      EXPECT_TRUE(
          same_bits(bench::oracle_probe_rate(scratch, probe.data(), probe.size()), expected))
          << "instance " << instance << " probe " << p;
      EXPECT_EQ(kernel.flow_count(), rows.size());
      EXPECT_EQ(kernel.active_flows(), active);
      EXPECT_FALSE(kernel.dirty());
      ++probes;
    }
    for (std::size_t i = 0; i < active.size(); ++i) {
      EXPECT_TRUE(same_bits(kernel.rate(active[i]), settled[i]))
          << "instance " << instance << " flow " << active[i];
    }
  }
  EXPECT_EQ(probes, 300u);
  EXPECT_GT(empty_rows, 0u);
}

/// Distinct components of the active rows that `row` touches.
std::size_t components_touched(const std::vector<std::vector<flowsim::ResourceId>>& active_rows,
                               std::size_t n_res, const std::vector<flowsim::ResourceId>& row) {
  std::vector<std::size_t> parent(n_res);
  for (std::size_t r = 0; r < n_res; ++r) parent[r] = r;
  const auto root = [&](std::size_t r) {
    while (parent[r] != r) r = parent[r];
    return r;
  };
  std::vector<char> crossed(n_res, 0);
  for (const auto& active : active_rows) {
    for (flowsim::ResourceId r : active) {
      crossed[r] = 1;
      parent[root(r)] = root(active.front());
    }
  }
  std::vector<std::size_t> roots;
  for (flowsim::ResourceId r : row) {
    if (crossed[r]) roots.push_back(root(r));
  }
  std::sort(roots.begin(), roots.end());
  return static_cast<std::size_t>(std::unique(roots.begin(), roots.end()) - roots.begin());
}

// The randomized differential behind the replay: 100k probes over random
// kernels, each answered by WhatIf::rate, by the component recompute on a
// scratch copy and by max_min_rates, all bit for bit. Capacities are either
// continuous or small integer multiples (equal shares, so the lowest-id
// tie-break decides rounds), with zeros among them; rows repeat resources,
// probes copy active rows, and probe rows touch no component, one or
// several; a few exceed the replay's inline row slots. Between traces flows activate and deactivate, flows are added
// and capacities change, with the dirt left pending half the time: a
// recording depends on the active set and capacities only.
TEST(TrueRates, WhatIfReplayMatchesBothOraclesOnRandomKernels) {
  Rng rng(1709);
  const double unconstrained = 1e12;
  std::size_t probes = 0, zero_rates = 0, duplicate_entries = 0, copied_rows = 0, long_rows = 0;
  std::size_t touching[3] = {0, 0, 0};  // probes touching 0, 1, >= 2 components
  std::size_t mismatches = 0;
  for (int instance = 0; instance < 1000; ++instance) {
    flowsim::MaxMinKernel kernel(unconstrained);
    const bool integer_caps = instance % 2 == 0;
    const auto groups = static_cast<std::size_t>(rng.uniform_int(1, 4));
    const auto per_group = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const auto spares = static_cast<std::size_t>(rng.uniform_int(1, 3));
    const std::size_t n_res = groups * per_group + spares;  // spares: no flow crosses them
    const auto draw_cap = [&] {
      if (integer_caps) return 1e8 * static_cast<double>(rng.uniform_int(0, 4));
      return rng.chance(0.05) ? 0.0 : rng.uniform(1e8, 1e10);
    };
    for (std::size_t r = 0; r < n_res; ++r) kernel.add_resource(draw_cap());
    // kind 0: spare resources only; 1: within one group; 2: across groups.
    const auto random_row = [&](int kind, std::int64_t max_len = 5) {
      std::vector<flowsim::ResourceId> row;
      const auto len = rng.uniform_int(1, max_len);
      const auto group = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(groups) - 1));
      for (std::int64_t i = 0; i < len; ++i) {
        if (kind == 0) {
          row.push_back(groups * per_group + static_cast<std::size_t>(rng.uniform_int(
                                                 0, static_cast<std::int64_t>(spares) - 1)));
        } else if (kind == 1) {
          row.push_back(group * per_group + static_cast<std::size_t>(rng.uniform_int(
                                                0, static_cast<std::int64_t>(per_group) - 1)));
        } else {
          row.push_back(static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(groups * per_group) - 1)));
        }
      }
      return row;
    };
    std::vector<std::vector<flowsim::ResourceId>> rows;
    const auto add_flow = [&] {
      rows.push_back(rng.chance(0.1) ? std::vector<flowsim::ResourceId>{}
                                     : random_row(rng.chance(0.8) ? 1 : 2));
      const std::size_t id = kernel.add_flow(rows.back().data(), rows.back().size());
      if (rng.chance(0.7)) kernel.activate(id);
    };
    const auto n_flows = rng.uniform_int(1, 16);
    for (std::int64_t f = 0; f < n_flows; ++f) add_flow();

    for (int trace = 0; trace < 5; ++trace) {
      if (trace > 0) {
        const auto toggles = rng.uniform_int(1, 4);
        for (std::int64_t t = 0; t < toggles; ++t) {
          const auto f = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(rows.size()) - 1));
          if (kernel.is_active(f)) {
            kernel.deactivate(f);
          } else {
            kernel.activate(f);
          }
        }
        if (rng.chance(0.3)) add_flow();
        if (rng.chance(0.3)) {
          kernel.set_capacity(static_cast<flowsim::ResourceId>(rng.uniform_int(
                                  0, static_cast<std::int64_t>(n_res) - 1)),
                              draw_cap());
        }
      }
      if (rng.chance(0.5)) kernel.recompute();

      std::vector<std::vector<flowsim::ResourceId>> active_rows;
      for (std::size_t f : kernel.active_flows()) active_rows.push_back(rows[f]);
      const flowsim::MaxMinKernel::WhatIf what_if = kernel.what_if();
      flowsim::MaxMinKernel scratch = kernel;
      for (int p = 0; p < 20; ++p) {
        std::vector<flowsim::ResourceId> probe;
        if (!active_rows.empty() && rng.chance(0.1)) {
          probe = active_rows[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(active_rows.size()) - 1))];
          ++copied_rows;
        } else {
          const int kind = rng.chance(0.1) ? 0 : rng.chance(0.5) ? 1 : 2;
          // Now and then a row longer than WhatIf's inline slots.
          probe = random_row(kind, rng.chance(0.02) ? 24 : 5);
          if (kind == 2 && rng.chance(0.3)) {
            probe.push_back(groups * per_group);  // a spare alongside components
          }
        }
        std::vector<flowsim::ResourceId> sorted = probe;
        std::sort(sorted.begin(), sorted.end());
        if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
          ++duplicate_entries;
        }
        ++touching[std::min<std::size_t>(components_touched(active_rows, n_res, probe), 2)];
        if (probe.size() > flowsim::MaxMinKernel::WhatIf::kInlineRow) ++long_rows;

        auto with_probe = active_rows;
        with_probe.push_back(probe);
        const double expected =
            flowsim::max_min_rates(kernel.capacities(), with_probe, unconstrained).back();
        const double got = what_if.rate(probe.data(), probe.size());
        const double recomputed = bench::oracle_probe_rate(scratch, probe.data(), probe.size());
        if (!same_bits(got, expected) || !same_bits(recomputed, expected)) {
          if (++mismatches <= 10) {
            ADD_FAILURE() << "instance " << instance << " trace " << trace << " probe " << p
                          << ": replay " << got << ", recompute " << recomputed
                          << ", max_min_rates " << expected;
          }
        }
        if (expected == 0.0) ++zero_rates;
        ++probes;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(probes, 100000u);
  EXPECT_GT(touching[0], probes / 20);
  EXPECT_GT(touching[1], probes / 5);
  EXPECT_GT(touching[2], probes / 20);
  EXPECT_GT(zero_rates, probes / 100);
  EXPECT_GT(duplicate_entries, probes / 10);
  EXPECT_GT(copied_rows, probes / 20);
  EXPECT_GT(long_rows, 100u);
}

// The replay on settled clouds, where the batch uses it: random tenant rows
// (any VM pair, any ECMP key, sometimes a second hose or a repeated link)
// against the component recompute and max_min_rates over the settled
// sim's active rows. The thin-fabric profiles make the background decide
// many rates; the stock profile is the hose matrix.
TEST(TrueRates, WhatIfReplayMatchesBothOraclesOnSettledFabrics) {
  ProviderProfile dense = thin_fabric(cloud::ec2_2013(), 2e9);
  dense.bg_flow_count = 240;
  dense.bg_rate_cap_bps = 150e6;
  dense.bg_core_bias = 0.9;
  Rng rng(9001);
  std::size_t probes = 0, below_hose = 0;
  for (const ProviderProfile& profile :
       {thin_fabric(cloud::ec2_2013(), 2e9), dense, toggling_profile(), cloud::ec2_2013()}) {
    for (std::uint64_t seed : {4, 21}) {
      Cloud cloud(profile, seed);
      const auto vms = cloud.allocate_vms(8);
      for (std::uint64_t epoch : {1, 5}) {
        const auto bundle = cloud.make_sim(epoch);
        bundle->sim.run_until(Cloud::kBackgroundSettleS);
        const flowsim::Sim& sim = bundle->sim;
        std::vector<std::vector<flowsim::ResourceId>> active_rows;
        for (flowsim::FlowId f : sim.kernel().active_flows()) {
          std::vector<flowsim::ResourceId> row = sim.flow(f).spec.extra_resources;
          row.insert(row.end(), sim.flow(f).route.links.begin(), sim.flow(f).route.links.end());
          active_rows.push_back(std::move(row));
        }
        const flowsim::MaxMinKernel::WhatIf what_if = sim.what_if();
        flowsim::MaxMinKernel scratch = sim.kernel();
        std::vector<flowsim::ResourceId> row;
        for (int p = 0; p < 120; ++p) {
          const auto pick = [&] {
            return vms[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(vms.size()) - 1))];
          };
          const VmId src = pick();
          VmId dst = pick();
          while (dst == src) dst = pick();
          cloud.tenant_row(*bundle, src, dst, rng.engine()(), row);
          if (rng.chance(0.2)) row.push_back(bundle->vm_egress[pick()]);
          if (rng.chance(0.2)) row.push_back(row.back());

          auto with_probe = active_rows;
          with_probe.push_back(row);
          const double expected =
              flowsim::max_min_rates(sim.kernel().capacities(), with_probe, 400e9).back();
          EXPECT_TRUE(same_bits(what_if.rate(row.data(), row.size()), expected))
              << profile.name << " seed " << seed << " epoch " << epoch << " probe " << p;
          EXPECT_TRUE(same_bits(bench::oracle_probe_rate(scratch, row.data(), row.size()),
                                expected))
              << profile.name << " seed " << seed << " epoch " << epoch << " probe " << p;
          if (expected < cloud.vm_hose_bps(src)) ++below_hose;
          ++probes;
        }
      }
    }
  }
  EXPECT_EQ(probes, 4u * 2u * 2u * 120u);
  EXPECT_GT(below_hose, probes / 4);
}

}  // namespace
}  // namespace choreo
