#include "packetsim/token_bucket.h"

#include <algorithm>

namespace choreo::packetsim {

TokenBucket::TokenBucket(EventQueue& events, double rate_bps, double depth_bytes,
                         Element* next, double idle_reset_s)
    : events_(events),
      rate_bps_(rate_bps),
      depth_bytes_(depth_bytes),
      next_(next),
      idle_reset_s_(idle_reset_s),
      tokens_(depth_bytes) {
  CHOREO_REQUIRE(rate_bps > 0.0);
  CHOREO_REQUIRE(depth_bytes > 0.0);
  CHOREO_REQUIRE(next != nullptr);
}

void TokenBucket::refill(double now) {
  if (idle_reset_s_ >= 0.0 && last_activity_ >= 0.0 &&
      now - last_activity_ >= idle_reset_s_ && queue_.empty()) {
    tokens_ = depth_bytes_;
  } else {
    tokens_ = std::min(depth_bytes_, tokens_ + rate_bps_ / 8.0 * (now - last_update_));
  }
  last_update_ = now;
}

void TokenBucket::receive(const Packet& pkt, double now) {
  refill(now);
  last_activity_ = now;
  queue_.push_back(pkt);
  if (!draining_) pump(now);
}

void TokenBucket::pump(double now) {
  refill(now);
  last_activity_ = now;
  while (!queue_.empty() && tokens_ + kByteTolerance >= queue_.front().wire_bytes) {
    const Packet pkt = queue_.front();
    queue_.pop_front();
    tokens_ = std::max(0.0, tokens_ - pkt.wire_bytes);
    next_->receive(pkt, now);
  }
  if (queue_.empty()) {
    draining_ = false;
    return;
  }
  // Not enough tokens for the head packet: wake up when there are.
  draining_ = true;
  const double deficit = queue_.front().wire_bytes - tokens_;
  const double wait = deficit * 8.0 / rate_bps_ + kWakeSlackS;
  events_.schedule(now + wait, [this] { pump(events_.now()); });
}

}  // namespace choreo::packetsim
