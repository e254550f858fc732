#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "agent/measure_cycle.h"
#include "agent/options.h"
#include "agent/proto.h"
#include "measure/probe_scheduler.h"
#include "measure/view_cache.h"
#include "net/transport.h"

namespace choreo::agent {

/// The wire half of the agent plane's controller; the measurement cycle it
/// serves (planning, integration, the view) is a MeasureCycle. Per cycle it
/// fans the scheduled (pair, round) directives out to the owning host agents
/// as ProbeRequests. Incoming StatsReports pass a (generation, seq) guard —
/// stale generations are dropped, duplicates are re-acked but not
/// re-integrated — and their samples go to MeasureCycle::integrate, whose
/// monotone epoch guard keeps delivery order, duplication, and late arrivals
/// from corrupting the view. An agent seen restarting gets its whole
/// outgoing row re-probed in the next cycle (the state re-sync).
class ClusterAgent {
 public:
  /// Cumulative controller-side counters across all cycles.
  struct Stats {
    std::uint64_t reports_integrated = 0;
    std::uint64_t duplicates_dropped = 0;        ///< same (generation, seq) again
    std::uint64_t stale_generation_dropped = 0;  ///< report from a dead incarnation
    std::uint64_t samples_integrated = 0;
    std::uint64_t samples_superseded = 0;  ///< cache already had a newer/equal epoch
    std::uint64_t hellos = 0;
    std::uint64_t resyncs = 0;  ///< generation bumps observed (crash recoveries)
  };

  /// Serves `measure`, which must outlive this object; host agent i owns
  /// the outgoing pairs of view index i.
  explicit ClusterAgent(MeasureCycle& measure);

  /// Sends each host agent its share of `schedule` as one ProbeRequest.
  void send_requests(const measure::ProbeSchedule& schedule, std::uint64_t epoch,
                     std::uint64_t cycle, net::SimTransport& transport);

  /// Handles one delivered message (StatsReport / Hello), sending acks
  /// through `transport`.
  void deliver(const proto::Message& msg, std::uint64_t cycle, net::SimTransport& transport);

  const measure::ViewCache& cache() const { return measure_.cache(); }
  const Stats& stats() const { return stats_; }

  /// The newest generation the controller has accepted from `agent`.
  std::uint32_t known_generation(std::uint32_t agent) const;

 private:
  struct AgentState {
    std::uint32_t generation = 0;
    std::unordered_set<std::uint32_t> seen_seqs;  ///< of the current generation
  };

  /// Adopts a newer incarnation of `agent` and queues its row re-sync.
  void adopt_generation(std::uint32_t agent, std::uint32_t generation);

  MeasureCycle& measure_;
  std::vector<AgentState> agents_;
  Stats stats_;
};

}  // namespace choreo::agent
