#pragma once

// The per-pair ground-truth computations Cloud::true_path_rates_bps
// replaced, kept outside the library as differential oracles. Shared by
// tests/test_true_rates.cpp, which pins the batch bit-identical to them, and
// bench/micro_flowsim.cpp, which prices them.
//
// oracle_true_rate: one fresh fluid simulation per pair, the epoch's
// background plus the probe (the same tenant flow and ECMP key the batch
// uses, registered after the background flows), run to the settle instant,
// the probe's rate read.
//
// oracle_probe_rate: one what-if probe as a component recompute, the way the
// kernel answered probes before it recorded one waterfill per view.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cloud/cloud.h"
#include "flowsim/max_min_kernel.h"
#include "flowsim/sim.h"

namespace choreo::bench {

/// Cloud's per-epoch stream mixer (an internal of cloud.cpp). The probe's
/// ECMP key is stream 9 of (seed, epoch); if the two drift apart the
/// differential reports every multi-path pair as a mismatch.
inline std::uint64_t cloud_substream(std::uint64_t seed, std::uint64_t epoch,
                                     std::uint64_t salt) {
  std::uint64_t x = seed ^ (epoch * 0x9e3779b97f4a7c15ULL) ^ (salt * 0xbf58476d1ce4e5b9ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The probe src->dst in its own fresh simulation of `epoch`, returned with
/// the simulation so callers can inspect what it shared.
struct OracleRun {
  std::unique_ptr<cloud::Cloud::SimBundle> bundle;
  flowsim::FlowId probe = 0;
  double rate_bps = 0.0;
};

inline OracleRun oracle_true_rate(const cloud::Cloud& cloud, std::uint64_t cloud_seed,
                                  cloud::VmId src, cloud::VmId dst, std::uint64_t epoch) {
  OracleRun run;
  run.bundle = cloud.make_sim(epoch);
  run.probe = run.bundle->sim.add_flow(
      cloud.tenant_flow(*run.bundle, src, dst, flowsim::kInfiniteBytes, 0.0,
                        cloud_substream(cloud_seed, epoch, 9)));
  run.bundle->sim.run_until(cloud::Cloud::kBackgroundSettleS);
  run.rate_bps = run.bundle->sim.flow(run.probe).rate_bps;
  return run;
}

/// The rate a flow with `row` would get alongside `kernel`'s active set:
/// register the row last, activate it, re-waterfill the dirty region (the
/// component(s) the row touches, plus any dirt already pending), read its
/// rate, then deactivate and retire it. One recompute per probe. `kernel` is
/// a scratch copy: each call leaves one retired flow behind and the probed
/// components dirty, which the next call's recompute consumes.
inline double oracle_probe_rate(flowsim::MaxMinKernel& kernel, const flowsim::ResourceId* row,
                                std::size_t len) {
  const std::size_t probe = kernel.add_flow(row, len);
  kernel.activate(probe);
  kernel.recompute();
  const double rate = kernel.rate(probe);
  kernel.deactivate(probe);
  kernel.retire(probe);
  return rate;
}

/// Every ordered pair of `vms`, row-major — the order true_cluster_view asks.
inline std::vector<std::pair<cloud::VmId, cloud::VmId>> all_ordered_pairs(
    const std::vector<cloud::VmId>& vms) {
  std::vector<std::pair<cloud::VmId, cloud::VmId>> pairs;
  for (cloud::VmId a : vms) {
    for (cloud::VmId b : vms) {
      if (a != b) pairs.emplace_back(a, b);
    }
  }
  return pairs;
}

}  // namespace choreo::bench
