// Differential suite for the event-free train pass: on a seeded random
// corpus of shaper/hop/queue-limit chains, run_train_pass must return the
// event simulator's records bit for bit (drops included), or leave the train
// undecided at a tie instant. Also pins the Cloud's train path against a
// hand-built event simulation, the preconditions the pass shares with the
// event path, the fallback counters, and EventQueue::step()'s move.

#include <gtest/gtest.h>

#include "cloud/cloud.h"
#include "cloud/profile.h"
#include "obs/observer.h"
#include "packetsim/event_queue.h"
#include "packetsim/path.h"
#include "packetsim/sink.h"
#include "packetsim/train_pass.h"
#include "packetsim/udp_train.h"
#include "train_corpus.h"

namespace choreo::packetsim {
namespace {

using bench::same_records;

TEST(TrainPass, BitIdenticalToEventPathOnRandomCorpus) {
  constexpr int kCases = 3000;
  Rng rng(20130923);
  int decided = 0, undecided = 0, lossy = 0, agreed_tie_cases = 0, wakeup_cases = 0;
  int shaper_off = 0, reset_zero = 0, reset_positive = 0, zero_hops = 0, zero_gap = 0,
      jittered = 0;
  for (int c = 0; c < kCases; ++c) {
    const TrainSpec spec = bench::random_train_spec(rng);
    shaper_off += !spec.shaper.enabled;
    reset_zero += spec.shaper.enabled && spec.shaper.idle_reset_s == 0.0;
    reset_positive += spec.shaper.enabled && spec.shaper.idle_reset_s > 0.0;
    zero_hops += spec.hops.empty();
    zero_gap += spec.params.inter_burst_gap_s == 0.0;
    jittered += spec.timestamp_jitter_s > 0.0;

    const TrainRecords oracle = run_train_events(spec);
    TrainPassTally tally;
    const std::optional<TrainRecords> pass = run_train_pass(spec, &tally);
    if (!pass) {
      ++undecided;  // a tie the pass left to the event path: not a mismatch
      continue;
    }
    ++decided;
    ASSERT_TRUE(same_records(*pass, oracle)) << "corpus case " << c;
    const std::size_t sent =
        static_cast<std::size_t>(spec.params.bursts) * spec.params.burst_length;
    EXPECT_EQ(tally.drops, sent - oracle.size()) << "corpus case " << c;
    lossy += tally.drops > 0;
    agreed_tie_cases += tally.agreed_ties > 0;
    wakeup_cases += tally.wakeups > 0;
  }
  // The corpus must reach every regime the pass handles differently.
  EXPECT_GE(decided, kCases * 9 / 10);
  EXPECT_GE(undecided, 1);
  EXPECT_GE(lossy, 300);
  EXPECT_GE(agreed_tie_cases, 100);
  EXPECT_GE(wakeup_cases, 300);
  EXPECT_GE(shaper_off, 300);
  EXPECT_GE(reset_zero, 300);
  EXPECT_GE(reset_positive, 300);
  EXPECT_GE(zero_hops, 100);
  EXPECT_GE(zero_gap, 300);
  EXPECT_GE(jittered, 300);
}

/// A hop at exactly the emission rate with room for one packet only: each
/// arrival lands on the previous packet's departure, and whether it is
/// dropped depends on which of the two events runs first.
TrainSpec forced_tie_spec(double queue_bytes) {
  TrainSpec spec;
  spec.shaper.enabled = false;
  spec.params.line_rate_bps = 1e9;
  spec.hops.push_back(HopSpec{1e9, 0.0, queue_bytes});
  return spec;
}

TEST(TrainPass, TieDecisionsAgreeOrFallBack) {
  // 1.5 wire packets of buffer: counting the departing packet or not flips
  // the drop decision, so the pass leaves the train to the event path.
  const TrainSpec undecidable = forced_tie_spec(1.5 * 1500);
  EXPECT_FALSE(run_train_pass(undecidable).has_value());
  const TrainRecords oracle = run_train_events(undecidable);
  // Emissions are scheduled first, so on the event path the arrival runs
  // first, sees the hop busy and full, and every other packet is dropped.
  EXPECT_EQ(oracle.size(), 1000u);

  // With room for two packets the departing one never matters.
  const TrainSpec agreed = forced_tie_spec(2 * 1500);
  TrainPassTally tally;
  const std::optional<TrainRecords> pass = run_train_pass(agreed, &tally);
  ASSERT_TRUE(pass.has_value());
  EXPECT_EQ(tally.agreed_ties, 10u * 199u);  // every packet but each burst's first
  EXPECT_EQ(tally.drops, 0u);
  EXPECT_TRUE(same_records(*pass, run_train_events(agreed)));
}

TEST(TrainPass, ByteToleranceLetsAHairShallowBucketPass) {
  // A bucket 0.5 microbytes short of one packet passes it only through
  // TokenBucket::kByteTolerance; without it both paths would wait forever.
  TrainSpec spec;
  spec.params.bursts = 1;
  spec.params.burst_length = 5;
  const double wire = spec.params.packet_bytes + spec.params.header_bytes;
  spec.shaper.depth_bytes = wire - 0.5 * TokenBucket::kByteTolerance;
  spec.shaper.rate_bps = 1e9;
  const std::optional<TrainRecords> pass = run_train_pass(spec);
  ASSERT_TRUE(pass.has_value());
  EXPECT_TRUE(same_records(*pass, run_train_events(spec)));
  EXPECT_EQ(pass->size(), 5u);
}

TEST(TrainPass, NegativeGapIsLeftToTheEventPath) {
  // A burst lasts 200 x 12 us = 2.4 ms; a -1 ms gap starts the next one
  // before the last ends, so emissions are out of order but never negative.
  TrainSpec spec = forced_tie_spec(2e6);
  spec.params.inter_burst_gap_s = -1e-3;
  EXPECT_NO_THROW(run_train_events(spec));
  EXPECT_FALSE(run_train_pass(spec).has_value());
}

TEST(TrainPass, PreconditionsMatchTheEventPath) {
  const auto base = [] {
    TrainSpec spec;
    spec.hops.push_back(HopSpec{});
    return spec;
  };
  std::vector<std::pair<const char*, TrainSpec>> bad;
  {
    TrainSpec s = base();
    s.hops.clear();
    s.shaper.enabled = false;
    bad.emplace_back("no shaper, no hops", s);
  }
  {
    TrainSpec s = base();
    s.hops[0].rate_bps = 0.0;
    bad.emplace_back("hop rate 0", s);
  }
  {
    TrainSpec s = base();
    s.hops[0].delay_s = -1e-6;
    bad.emplace_back("negative hop delay", s);
  }
  {
    TrainSpec s = base();
    s.hops[0].queue_bytes = -1.0;
    bad.emplace_back("negative queue limit", s);
  }
  {
    TrainSpec s = base();
    s.shaper.rate_bps = 0.0;
    bad.emplace_back("shaper rate 0", s);
  }
  {
    TrainSpec s = base();
    s.shaper.depth_bytes = 0.0;
    bad.emplace_back("shaper depth 0", s);
  }
  {
    TrainSpec s = base();
    s.params.bursts = 0;
    bad.emplace_back("no bursts", s);
  }
  {
    TrainSpec s = base();
    s.params.burst_length = 1;
    bad.emplace_back("burst of one", s);
  }
  {
    TrainSpec s = base();
    s.params.packet_bytes = 0;
    bad.emplace_back("empty packets", s);
  }
  {
    TrainSpec s = base();
    s.params.line_rate_bps = 0.0;
    bad.emplace_back("line rate 0", s);
  }
  for (const auto& [what, spec] : bad) {
    EXPECT_THROW(run_train_events(spec), PreconditionError) << what;
    EXPECT_THROW(run_train_pass(spec), PreconditionError) << what;
  }

  // The train shapes a caller can get wrong through the Cloud.
  cloud::Cloud provider(cloud::ec2_2013(), 3);
  const auto vms = provider.allocate_vms(2);
  const cloud::Cloud::TrafficSnapshot snapshot = provider.traffic_snapshot(1);
  for (const auto& [what, spec] : bad) {
    if (spec.params.bursts >= 1 && spec.params.burst_length >= 2 && spec.params.packet_bytes >= 1) {
      continue;
    }
    EXPECT_THROW(provider.run_train_in_snapshot(vms[0], vms[1], spec.params, snapshot),
                 PreconditionError)
        << what;
  }
}

TEST(TrainPass, WarmPassIsReusableAcrossShapes) {
  // Per-thread scratch must not leak state from a long train into a short one.
  Rng rng(7);
  TrainSpec big = bench::random_train_spec(rng);
  big.params.bursts = 4;
  big.params.burst_length = 60;
  TrainSpec small = forced_tie_spec(2e6);
  small.params.bursts = 1;
  small.params.burst_length = 2;
  for (int i = 0; i < 3; ++i) {
    for (const TrainSpec* spec : {&big, &small}) {
      const std::optional<TrainRecords> pass = run_train_pass(*spec);
      if (pass) {
        EXPECT_TRUE(same_records(*pass, run_train_events(*spec)));
      }
    }
  }
}

/// Every ordered VM pair: the Cloud's train equals Path + send_train built
/// by hand from the spec the Cloud reports.
void expect_cloud_trains_match_hand_built(cloud::ProviderProfile profile) {
  // Pack some VMs onto shared hosts so the vswitch (no-shaper) path is hit.
  profile.colocate_prob = 0.3;
  cloud::Cloud provider(profile, 11);
  const std::vector<cloud::VmId> vms = provider.allocate_vms(7);
  const cloud::Cloud::TrafficSnapshot snapshot = provider.traffic_snapshot(3);
  const TrainParams params;  // §3.1: K=10 bursts of B=200
  int shaped = 0, vswitch = 0;
  for (cloud::VmId src : vms) {
    for (cloud::VmId dst : vms) {
      if (src == dst) continue;
      const TrainSpec spec = provider.train_spec_in_snapshot(src, dst, params, snapshot);
      (spec.shaper.enabled ? shaped : vswitch) += 1;
      EventQueue events;
      RecordingSink sink(spec.timestamp_jitter_s, spec.sink_seed);
      Path path(events, spec.shaper, spec.hops, &sink);
      send_train(events, path.entry(), spec.params, /*flow_id=*/1, /*start_time=*/0.0);
      events.run();
      EXPECT_TRUE(same_records(provider.run_train_in_snapshot(src, dst, params, snapshot),
                               sink.records()))
          << profile.name << " " << src << "->" << dst;
    }
  }
  EXPECT_GT(shaped, 0);
  EXPECT_GT(vswitch, 0);
}

TEST(TrainPass, CloudTrainsMatchHandBuiltEventPathEc2) {
  expect_cloud_trains_match_hand_built(cloud::ec2_2013());
}

TEST(TrainPass, CloudTrainsMatchHandBuiltEventPathRackspace) {
  expect_cloud_trains_match_hand_built(cloud::rackspace());
}

std::uint64_t counter(const obs::Registry& registry, const char* name) {
  const auto snap = registry.snapshot();
  const auto* c = snap.find_counter(name);
  return c ? c->value : 0;
}

TEST(TrainPass, CloudCountsTrainsAndFallbacks) {
  obs::Registry registry;
  obs::Observer observer;
  observer.metrics = &registry;

  cloud::Cloud normal(cloud::ec2_2013(), 5);
  normal.set_observer(observer);
  const auto vms = normal.allocate_vms(2);
  normal.run_train(vms[0], vms[1], TrainParams{}, 1);
  EXPECT_EQ(counter(registry, "packetsim.trains"), 1u);
  EXPECT_EQ(counter(registry, "packetsim.train_fallbacks"), 0u);

  // Same-host VMs whose vswitch runs at exactly the vNIC rate, with packets
  // so large that two overflow its 2 MB buffer: the forced tie of
  // TieDecisionsAgreeOrFallBack, reached through the Cloud.
  cloud::ProviderProfile tie = cloud::ec2_2013();
  tie.colocate_prob = 1.0;
  tie.vswitch_rate_bps = tie.vnic_rate_bps;
  cloud::Cloud tied(tie, 5);
  tied.set_observer(observer);
  const auto pair = tied.allocate_vms(2);
  TrainParams huge;
  huge.packet_bytes = 1'000'000;
  const auto records = tied.run_train(pair[0], pair[1], huge, 1);
  EXPECT_EQ(records.size(), 1000u);  // the event path drops every other packet
  EXPECT_EQ(counter(registry, "packetsim.trains"), 2u);
  EXPECT_EQ(counter(registry, "packetsim.train_fallbacks"), 1u);
}

/// Counts copies (not moves) of itself.
struct CopyCounter {
  int* copies;
  explicit CopyCounter(int* c) : copies(c) {}
  CopyCounter(const CopyCounter& o) : copies(o.copies) { ++*copies; }
  CopyCounter(CopyCounter&& o) noexcept : copies(o.copies) {}
  CopyCounter& operator=(const CopyCounter& o) {
    copies = o.copies;
    ++*copies;
    return *this;
  }
  CopyCounter& operator=(CopyCounter&& o) noexcept {
    copies = o.copies;
    return *this;
  }
};

TEST(EventQueue, StepMovesTheCallbackOut) {
  EventQueue q;
  int copies = 0, fired = 0;
  for (int i = 0; i < 64; ++i) {
    CopyCounter probe(&copies);
    q.schedule(static_cast<double>(i % 7), [probe = std::move(probe), &fired] {
      (void)probe;
      ++fired;
    });
  }
  const int after_schedule = copies;
  while (q.step()) {
  }
  EXPECT_EQ(fired, 64);
  EXPECT_EQ(copies - after_schedule, 0);
}

}  // namespace
}  // namespace choreo::packetsim
