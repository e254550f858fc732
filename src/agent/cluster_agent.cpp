#include "agent/cluster_agent.h"

#include "util/require.h"

namespace choreo::agent {

ClusterAgent::ClusterAgent(MeasureCycle& measure)
    : measure_(measure), agents_(measure.vms().size()) {}

void ClusterAgent::send_requests(const measure::ProbeSchedule& schedule,
                                 std::uint64_t epoch, std::uint64_t cycle,
                                 net::SimTransport& transport) {
  std::vector<proto::ProbeRequest> requests(agents_.size());
  for (std::size_t r = 0; r < schedule.rounds.size(); ++r) {
    for (const measure::ProbePair& p : schedule.rounds[r]) {
      requests[p.src].probes.push_back(proto::ProbeDirective{
          static_cast<std::uint32_t>(p.src), static_cast<std::uint32_t>(p.dst),
          static_cast<std::uint32_t>(r)});
    }
  }
  for (std::uint32_t a = 0; a < requests.size(); ++a) {
    if (requests[a].probes.empty()) continue;
    requests[a].agent = a;
    requests[a].epoch = epoch;
    transport.send(kClusterEndpoint, endpoint_of(a), proto::encode(requests[a]), cycle);
  }
}

void ClusterAgent::adopt_generation(std::uint32_t agent, std::uint32_t generation) {
  AgentState& st = agents_[agent];
  st.generation = generation;
  st.seen_seqs.clear();
  ++stats_.resyncs;
  // Whatever the agent measured before the crash is gone, and the cache may
  // hold estimates the new incarnation never produced: re-probe its whole
  // outgoing row next cycle.
  for (std::size_t dst = 0; dst < agents_.size(); ++dst) {
    if (dst != agent) measure_.require_probe(agent, dst);
  }
}

void ClusterAgent::deliver(const proto::Message& msg, std::uint64_t cycle,
                           net::SimTransport& transport) {
  switch (msg.type) {
    case proto::MsgType::kStatsReport: {
      const proto::StatsReport& report = msg.stats_report;
      if (report.agent >= agents_.size()) return;
      AgentState& st = agents_[report.agent];
      if (report.generation < st.generation) {
        // A dead incarnation's report still in flight. Never integrate and
        // never ack: the restarted agent does not own this seq number, and
        // the pre-crash sender no longer exists to retransmit.
        ++stats_.stale_generation_dropped;
        return;
      }
      // A report that outran the Hello adopts the new incarnation implicitly.
      if (report.generation > st.generation) adopt_generation(report.agent, report.generation);
      const proto::Ack ack{report.agent, report.generation, report.seq};
      if (!st.seen_seqs.insert(report.seq).second) {
        // Duplicate delivery (retransmit or transport copy): the ack may
        // have been lost, so re-ack — but integrate nothing.
        ++stats_.duplicates_dropped;
        transport.send(kClusterEndpoint, endpoint_of(report.agent), proto::encode(ack),
                       cycle);
        return;
      }
      const std::size_t n = agents_.size();
      for (const proto::RateSample& s : report.samples) {
        if (s.src >= n || s.dst >= n || s.src == s.dst) continue;
        if (measure_.integrate(s.src, s.dst, s.rate_bps, s.epoch)) {
          ++stats_.samples_integrated;
        } else {
          ++stats_.samples_superseded;
        }
      }
      ++stats_.reports_integrated;
      measure_.count_report();
      transport.send(kClusterEndpoint, endpoint_of(report.agent), proto::encode(ack),
                     cycle);
      break;
    }
    case proto::MsgType::kHello: {
      const proto::Hello& hello = msg.hello;
      if (hello.agent >= agents_.size()) return;
      AgentState& st = agents_[hello.agent];
      ++stats_.hellos;
      if (hello.generation > st.generation) adopt_generation(hello.agent, hello.generation);
      transport.send(kClusterEndpoint, endpoint_of(hello.agent),
                     proto::encode(proto::HelloAck{hello.agent, st.generation}), cycle);
      break;
    }
    default:
      break;  // the controller ignores message types hosts own
  }
}

std::uint32_t ClusterAgent::known_generation(std::uint32_t agent) const {
  CHOREO_REQUIRE(agent < agents_.size());
  return agents_[agent].generation;
}

}  // namespace choreo::agent
