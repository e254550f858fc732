// Fig 4: validation of the §3.2 cross-traffic estimator on the two ns-2
// topologies of Fig 3. A foreground bulk connection S1->R1 runs for 10
// seconds while background pairs follow an exponential ON-OFF model
// (mu = 5 s); the receiver-side throughput sampled every 10 ms is inverted
// to c = c1/c2 - 1.
//
// (a) simple topology: all pairs share one 1 Gbit/s link; the estimate
//     should track the actual number of ON background flows closely.
// (b) cloud topology: 1 G host links, 10 G ToR<->aggregate links; the
//     shared-link estimate only becomes informative once >= 10 flows
//     compete, so the estimated series floors around 9-10 (the paper:
//     "the smallest estimated value is 10").

#include "bench_common.h"
#include "flowsim/sim.h"
#include "measure/cross_traffic.h"
#include "net/topology.h"

namespace {

struct SeriesResult {
  std::vector<double> actual;
  std::vector<double> estimated;
};

SeriesResult run_experiment(bool cloud_topology, std::size_t pairs, std::uint64_t seed) {
  using namespace choreo;

  const double kSample = 0.01;
  const double kDuration = 10.0;

  // Build the Fig 3 topology.
  net::Topology topo;
  std::vector<net::NodeId> senders, receivers;
  double c1;  // the path rate used in the estimator
  if (cloud_topology) {
    net::TwoRackTopology t = net::make_two_rack_cloud(pairs);
    senders = t.senders;
    receivers = t.receivers;
    topo = std::move(t.topo);
    c1 = 10e9;  // the shared ToR->agg bottleneck
  } else {
    net::SharedLinkTopology t = net::make_shared_link(pairs);
    senders = t.senders;
    receivers = t.receivers;
    topo = std::move(t.topo);
    c1 = 1e9;
  }

  const net::Router router(topo);
  flowsim::Sim sim(router);
  flowsim::FlowSpec fg;
  fg.src = senders[0];
  fg.dst = receivers[0];
  fg.bytes = flowsim::kInfiniteBytes;
  fg.label = "foreground";
  const flowsim::FlowId probe = sim.add_flow(fg);

  std::vector<flowsim::FlowId> background;
  for (std::size_t i = 1; i < pairs; ++i) {
    flowsim::FlowSpec bg;
    bg.src = senders[i];
    bg.dst = receivers[i];
    bg.flow_key = i;
    background.push_back(sim.add_on_off_flow(bg, 5.0, 5.0, (i % 2) == 0, seed + i));
  }

  SeriesResult out;
  double last_bytes = 0.0;
  sim.add_sampler(kSample, kSample, [&](double) {
    const double bytes = sim.flow(probe).bytes_received;
    const double rate = (bytes - last_bytes) * 8.0 / kSample;
    last_bytes = bytes;
    out.estimated.push_back(choreo::measure::cross_traffic_estimate(rate, c1));
    double on = 0.0;
    for (flowsim::FlowId id : background) {
      if (sim.flow(id).on) on += 1.0;
    }
    out.actual.push_back(on);
  });
  sim.run_until(kDuration);
  return out;
}

void print_series(const char* name, const SeriesResult& r) {
  using namespace choreo;
  Table t({"t (s)", "actual c", "estimated c"});
  for (std::size_t i = 49; i < r.actual.size(); i += 100) {  // every second
    t.add_row({fmt(static_cast<double>(i + 1) * 0.01, 2), fmt(r.actual[i], 0),
               fmt(r.estimated[i], 1)});
  }
  std::cout << name << "\n" << t.to_string();
}

}  // namespace

int main() {
  using namespace choreo;
  using namespace choreo::bench;

  header("Fig 4(a): cross-traffic estimation, simple shared-link topology");
  const SeriesResult simple = run_experiment(false, 10, 7000);
  print_series("S1->R1 foreground, 9 ON-OFF background pairs, 1G shared link", simple);

  // Accuracy: mean absolute deviation between estimate and actual.
  std::vector<double> dev;
  for (std::size_t i = 0; i < simple.actual.size(); ++i) {
    dev.push_back(std::abs(simple.actual[i] - simple.estimated[i]));
  }
  const double mad_simple = mean(dev);
  std::cout << "mean |estimate - actual| = " << fmt(mad_simple, 2) << " connections\n";
  check(mad_simple < 1.0,
        "simple topology: estimate tracks actual within ~1 connection on average");

  header("Fig 4(b): cross-traffic estimation, two-rack cloud topology (10G aggregate)");
  const SeriesResult cloudy = run_experiment(true, 20, 9000);
  print_series("S1->R1 foreground, 19 ON-OFF background pairs, 10G shared uplink", cloudy);

  // The estimator cannot see fewer than ~9 competitors (1G host links cap
  // the probe), so its minimum should sit near 9-10 as in the paper.
  double est_min = 1e9, est_dev_high = 0.0;
  std::size_t high_samples = 0;
  for (std::size_t i = 0; i < cloudy.actual.size(); ++i) {
    est_min = std::min(est_min, cloudy.estimated[i]);
    if (cloudy.actual[i] >= 10.0) {
      est_dev_high += std::abs(cloudy.actual[i] - cloudy.estimated[i]);
      ++high_samples;
    }
  }
  std::cout << "estimate floor: " << fmt(est_min, 1) << " (paper: ~10)\n";
  check(est_min > 8.0 && est_min < 11.0, "cloud topology: estimated c floors near 9-10");
  if (high_samples > 0) {
    const double mad_high = est_dev_high / static_cast<double>(high_samples);
    std::cout << "mean |estimate - actual| when c >= 10: " << fmt(mad_high, 2) << "\n";
    check(mad_high < 2.5, "cloud topology: estimate tracks actual when c >= 10");
  }
  return finish();
}
