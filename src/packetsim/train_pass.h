#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "packetsim/path.h"
#include "packetsim/sink.h"
#include "packetsim/udp_train.h"

namespace choreo::packetsim {

/// Everything that determines one §3.1 UDP packet train end to end: the
/// source shaper, the route's FIFO hops, the train's shape and the
/// receiver's timestamp noise (RecordingSink(timestamp_jitter_s, sink_seed)).
/// The train is flow 1, sent at t = 0 on a fresh clock.
struct TrainSpec {
  ShaperSpec shaper;
  std::vector<HopSpec> hops;
  TrainParams params;
  double timestamp_jitter_s = 0.0;
  std::uint64_t sink_seed = 0;
};

using TrainRecords = std::vector<RecordingSink::Record>;

/// Runs the train on the discrete-event simulator (EventQueue, Path,
/// send_train, RecordingSink) and returns the receiver's log. This is the
/// reference semantics run_train_pass reproduces.
TrainRecords run_train_events(const TrainSpec& spec);

/// What run_train_pass met in one train; the differential suite asserts its
/// corpus covers each kind.
struct TrainPassTally {
  std::uint64_t drops = 0;        ///< packets dropped at a full hop
  std::uint64_t agreed_ties = 0;  ///< tie instants where both event orders drop alike
  std::uint64_t wakeups = 0;      ///< shaper wake-ups (deficit wait plus 1 ns slack)
};

/// Event-free tandem pass over the same train. A train meets no feedback
/// and no competing packets, so every element's departures follow from its
/// own arrivals (the Lindley recursion) and the train is computed element
/// by element in O(packets x hops), with no event queue.
///
/// Returns records bit-identical to run_train_events(spec), or nullopt when
/// the pass cannot decide them without the event order: an arrival at a
/// busy hop at the very instant a packet departs, where counting the
/// departing packet or not changes the drop decision (or a negative
/// inter-burst gap, whose emissions are out of order). Throws
/// PreconditionError wherever Path, Link, TokenBucket or send_train would.
/// Thread-safe: scratch buffers are per thread. On a thread that has already
/// run a train at least this long, the returned vector is the only
/// allocation; a new thread (each multi-worker Cloud::run_train_round starts
/// its own) first sizes its scratch.
std::optional<TrainRecords> run_train_pass(const TrainSpec& spec,
                                           TrainPassTally* tally = nullptr);

}  // namespace choreo::packetsim
