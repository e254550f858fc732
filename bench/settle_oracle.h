#pragma once

// The background settle Cloud::traffic_snapshot replaced, kept outside the
// library as the differential oracle for the template copy and the lazy
// ON-OFF engines. Shared by tests/test_true_rates.cpp, which pins the
// snapshot bit-identical to it, and bench/micro_flowsim.cpp, which prices
// the two.
//
// Eager in every part the library now shares or skips: a private
// net::Router with an empty distance cache, the whole resource table built
// resource by resource (vswitches keyed in a hash map), and each background
// flow's std::mt19937_64 seeded in full and run through the settle window.
// The engines decide which background flows are ON at the settle instant;
// those arrive at t = 0 and the rest never arrive. Background flows are
// persistent, so their rates at an instant depend only on the set active
// then, and registering every flow in the library's order keeps each
// flow's id. (Toggles are taken as firing at their own time; the library's
// 1e-12 s event batching could differ only when two toggles fall within
// that slack of each other or of the settle instant.)

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "cloud/cloud.h"
#include "flowsim/sim.h"
#include "net/routing.h"
#include "true_rate_oracle.h"
#include "util/rng.h"

namespace choreo::bench {

/// TrafficSnapshot::available_bps for `epoch`, settled eagerly.
inline std::vector<double> oracle_available_bps(const cloud::Cloud& cloud,
                                                std::uint64_t cloud_seed,
                                                std::uint64_t epoch) {
  const net::Topology& topo = cloud.topology();
  const cloud::ProviderProfile& profile = cloud.profile();
  const net::Router router(topo);
  flowsim::Sim sim(router);
  for (cloud::VmId vm = 0; vm < cloud.vm_count(); ++vm) {
    sim.add_resource(cloud.vm_hose_bps(vm));
  }
  const std::vector<net::NodeId> hosts = topo.nodes_of_kind(net::NodeKind::Host);
  std::unordered_map<net::NodeId, flowsim::ResourceId> vswitch;
  for (net::NodeId host : hosts) {
    vswitch.emplace(host, sim.add_resource(profile.vswitch_rate_bps));
  }

  // Cloud::add_background's draws, in its order.
  Rng rng(cloud_substream(cloud_seed, epoch, 3));
  const auto pick = [&] {
    return hosts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
  };
  for (std::size_t i = 0; i < profile.bg_flow_count; ++i) {
    net::NodeId src, dst;
    if (rng.chance(profile.bg_core_bias) && topo.node(hosts.front()).pod >= 0) {
      do {
        src = pick();
        dst = pick();
      } while (src == dst || topo.node(src).pod == topo.node(dst).pod);
    } else {
      do {
        src = pick();
        dst = pick();
      } while (src == dst);
    }
    bool on = rng.chance(profile.bg_mean_on_s /
                         (profile.bg_mean_on_s + profile.bg_mean_off_s));
    Rng engine(cloud_substream(cloud_seed, epoch, 200 + i));
    double toggle = engine.exponential(on ? profile.bg_mean_on_s : profile.bg_mean_off_s);
    while (toggle <= cloud::Cloud::kBackgroundSettleS) {
      on = !on;
      toggle += engine.exponential(on ? profile.bg_mean_on_s : profile.bg_mean_off_s);
    }
    flowsim::FlowSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.bytes = flowsim::kInfiniteBytes;
    spec.start_time = on ? 0.0 : std::numeric_limits<double>::infinity();
    spec.flow_key = cloud_substream(cloud_seed, epoch, 100 + i);
    spec.rate_cap = profile.bg_rate_cap_bps;
    sim.add_flow(spec);
  }
  sim.run_until(cloud::Cloud::kBackgroundSettleS);

  const std::vector<flowsim::Sim::LinkLoad> loads = sim.link_loads();
  std::vector<double> available(loads.size());
  for (std::size_t l = 0; l < loads.size(); ++l) {
    const double cap = topo.link(l).capacity_bps;
    const double fair = cap / static_cast<double>(loads[l].flows + 1);
    available[l] = std::max(cap - loads[l].used_bps, fair);
  }
  return available;
}

}  // namespace choreo::bench
