#pragma once

#include <cstdint>
#include <deque>

#include "packetsim/event_queue.h"
#include "packetsim/packet.h"

namespace choreo::packetsim {

/// Token-bucket traffic shaper: models the hose-model egress rate limiting
/// that §4.3 finds at EC2 and Rackspace sources.
///
/// Tokens (bytes) refill at `rate_bps`; a packet passes immediately if the
/// bucket holds enough tokens, otherwise it waits in FIFO order. The `depth`
/// is the burst allowance, and it is the knob behind Fig 6's asymmetry:
///
///   * a *shallow* bucket (EC2-like) forces even short packet trains down to
///     the token rate, so 10x200-packet trains are already accurate;
///   * a *deep* bucket (Rackspace-like) lets bursts much smaller than the
///     depth through at line rate, so trains must be >= ~2000 packets before
///     they observe the enforced 300 Mbit/s.
///
/// `idle_reset_s` models credit-style hypervisor limiters that restore the
/// full burst allowance after a short idle period (>= the inter-burst gap
/// delta of §3.1); set it negative for a classic continuously-refilling
/// bucket.
class TokenBucket : public Element {
 public:
  TokenBucket(EventQueue& events, double rate_bps, double depth_bytes, Element* next,
              double idle_reset_s = -1.0);

  /// Absorbs float rounding between the scheduled wait and the refill
  /// integral; without it the wake-up can land a hair short of the packet
  /// size and reschedule forever.
  static constexpr double kByteTolerance = 1e-6;
  /// Added to every wake-up wait so the refill is guaranteed to cover the
  /// deficit.
  static constexpr double kWakeSlackS = 1e-9;

  void receive(const Packet& pkt, double now) override;

  double tokens() const { return tokens_; }
  double rate_bps() const { return rate_bps_; }

 private:
  void refill(double now);
  void pump(double now);

  EventQueue& events_;
  double rate_bps_;
  double depth_bytes_;
  Element* next_;
  double idle_reset_s_;

  double tokens_;
  double last_update_ = 0.0;
  double last_activity_ = -1.0;
  std::deque<Packet> queue_;
  bool draining_ = false;
};

}  // namespace choreo::packetsim
