#pragma once

// Random packet-train specs, and the bit-identity comparison, for
// differential checks of the event-free train pass (packetsim/train_pass.h)
// against the event simulator. Shared by
// tests/test_train_pass.cpp, which pins bit-identity and coverage on it,
// and bench/micro_packetsim.cpp, which reports the fallback fraction.
//
// The corpus spans shaper on and off (off is the same-host vswitch path),
// idle_reset_s negative, zero and positive, 0-6 hops with zero-delay hops
// and drop-tail limits from 0 to 2 MB, back-to-back bursts (zero gap),
// timestamp jitter on and off, and "quantized" cases whose line, shaper and
// hop rates come from a few round values: with a hop rate equal to the
// emission rate, every arrival lands exactly on the previous departure, the
// tie instant where the drop decision depends on event order.

#include <cstdint>
#include <cstring>

#include "packetsim/train_pass.h"
#include "util/rng.h"

namespace choreo::bench {

inline packetsim::TrainSpec random_train_spec(Rng& rng) {
  packetsim::TrainSpec spec;
  packetsim::TrainParams& p = spec.params;
  p.bursts = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
  p.burst_length = static_cast<std::uint32_t>(rng.uniform_int(2, 60));
  p.packet_bytes = rng.chance(0.5) ? 1472 : static_cast<std::uint32_t>(rng.uniform_int(1, 1472));
  const double wire = p.packet_bytes + p.header_bytes;
  p.inter_burst_gap_s = rng.chance(0.3) ? 0.0 : rng.uniform(1e-6, 2e-3);

  constexpr double kRound[] = {1e9, 2e9, 4e9};
  const bool quantized = rng.chance(0.2);
  const auto pick_round = [&] { return kRound[rng.uniform_int(0, 2)]; };
  const auto rate = [&] { return quantized ? pick_round() : rng.uniform(50e6, 10e9); };
  p.line_rate_bps = quantized ? pick_round() : rng.uniform(1e9, 10e9);

  spec.shaper.enabled = rng.chance(0.6);
  // Hose-like rates, mostly below the line rate, so the bucket throttles.
  spec.shaper.rate_bps = quantized ? pick_round() : rng.uniform(50e6, 2e9);
  // At least one packet deep: a shallower bucket never passes a packet.
  spec.shaper.depth_bytes = wire + rng.uniform(0.0, rng.chance(0.5) ? 1e4 : 3e5);
  const std::int64_t reset = rng.uniform_int(0, 2);
  spec.shaper.idle_reset_s = reset == 0 ? -1.0 : reset == 1 ? 0.0 : rng.uniform(1e-5, 2e-3);

  const auto hops = rng.uniform_int(spec.shaper.enabled ? 0 : 1, 6);
  for (std::int64_t h = 0; h < hops; ++h) {
    packetsim::HopSpec hop;
    hop.rate_bps = rate();
    hop.delay_s = rng.chance(0.3) ? 0.0 : rng.uniform(1e-6, 1e-4);
    const double limit = rng.uniform(0.0, 1.0);
    hop.queue_bytes = limit < 0.1   ? 0.0
                      : limit < 0.3 ? rng.uniform(0.0, 4.0 * wire)
                      : limit < 0.65 ? rng.uniform(0.0, 2e6)
                                    : 2e6;
    spec.hops.push_back(hop);
  }

  spec.timestamp_jitter_s = rng.chance(0.5) ? 0.0 : 10e-6;
  spec.sink_seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1ll << 40));
  return spec;
}

/// Bit-identical records: every field, and times by memcmp so that even
/// -0.0 against 0.0 counts as a difference.
inline bool same_records(const packetsim::TrainRecords& a, const packetsim::TrainRecords& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].flow != b[i].flow || a[i].seq != b[i].seq || a[i].burst != b[i].burst ||
        a[i].wire_bytes != b[i].wire_bytes ||
        std::memcmp(&a[i].time, &b[i].time, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace choreo::bench
