#pragma once

// The per-pair ground-truth computation Cloud::true_path_rates_bps replaced,
// kept outside the library as the differential oracle for the batched
// what-if solve. Shared by tests/test_true_rates.cpp, which pins the batch
// bit-identical to it, and bench/micro_flowsim.cpp, which prices the two.
//
// One fresh fluid simulation per pair: the epoch's background plus the
// probe (the same tenant flow and ECMP key the batch uses, registered after
// the background flows), run to the settle instant, the probe's rate read.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cloud/cloud.h"
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
