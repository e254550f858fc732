#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "flowsim/max_min.h"

namespace choreo::flowsim {

/// Incremental max-min fair-share kernel.
///
/// Semantically this computes exactly what `max_min_rates` computes over the
/// currently *active* flows — that function is kept verbatim as the
/// differential oracle, and `test_flowsim_differential` pins this kernel
/// bit-identical to it (exact double equality) over a randomized corpus. The
/// difference is purely mechanical:
///
///   * the flow -> resource incidence lives in one flat CSR array, appended
///     once per flow (a flow's resource set never changes after
///     registration) instead of being rebuilt as nested vectors on every
///     recompute;
///   * each recompute builds a reverse resource -> flow index (counting sort
///     into reused scratch), so freezing the flows of a bottleneck visits
///     only the flows crossing it, not every flow against every resource;
///   * recomputation is scoped to the dirty region: resources carry a
///     connected-component label over the sharing graph of active flows, and
///     an activate/deactivate/capacity event only re-waterfills the
///     component(s) it touched — flows in untouched components keep their
///     rates, which per-component independence makes bit-identical to a full
///     recompute;
///   * every scratch structure is a reused member buffer, so steady-state
///     recomputes perform zero heap allocations once warm.
///
/// Tie-breaking matches the oracle exactly: the bottleneck is the loaded
/// resource with the smallest share, lowest id first; its flows freeze in
/// ascending flow id; a frozen flow's capacity subtraction walks its CSR row
/// in registration order (extra resources before route links, as `Sim`
/// registers them) with the same max(0, .) clamp.
///
/// Component labels are maintained as an over-approximation: activations
/// union components eagerly, deactivations never split them. Each scoped
/// recompute relabels the region it actually visited via a union-find over
/// the region's active flows, so stale merges resolve one recompute later —
/// the region is only ever a superset of the true dirty components, never a
/// subset, which is what correctness needs.
class MaxMinKernel {
 public:
  /// `unconstrained_rate` is assigned to active flows whose resource row is
  /// empty (same role as the oracle's parameter).
  explicit MaxMinKernel(double unconstrained_rate);

  // ---- structure ----------------------------------------------------------

  ResourceId add_resource(double capacity_bps);
  /// Changes a capacity and marks the resource's component dirty.
  void set_capacity(ResourceId id, double capacity_bps);
  double capacity(ResourceId id) const { return capacity_[id]; }
  const std::vector<double>& capacities() const { return capacity_; }
  std::size_t resource_count() const { return capacity_.size(); }

  /// Registers a flow's (immutable) resource row; the flow starts inactive.
  /// Rows may legally be empty, contain duplicates, or reference any
  /// already-registered resource. Returns the flow's id (dense, in
  /// registration order).
  std::size_t add_flow(const ResourceId* row, std::size_t len);
  std::size_t flow_count() const { return row_begin_.size(); }

  // ---- activity -----------------------------------------------------------

  /// Marks the flow active (it competes for its resources) and dirties its
  /// component(s). Empty-row flows get `unconstrained_rate` immediately and
  /// dirty nothing. No-op if already active.
  void activate(std::size_t flow);
  /// Marks the flow inactive and dirties its component. No-op if inactive.
  void deactivate(std::size_t flow);
  bool is_active(std::size_t flow) const { return active_flag_[flow] != 0; }

  /// Currently active flows, ascending by id. `Sim` iterates this instead of
  /// every flow ever created, so long sessions don't degrade linearly.
  const std::vector<std::size_t>& active_flows() const { return active_; }

  /// Releases the flow's CSR row (the flow must be inactive and stay so).
  /// Row storage is compacted once enough of it is dead; flow ids and live
  /// rows are unaffected.
  void retire(std::size_t flow);

  // ---- rates --------------------------------------------------------------

  bool dirty() const { return dirty_; }

  /// Re-waterfills the dirty region and returns the flows whose rate was
  /// recomputed (ascending). Flows outside the returned region keep their
  /// previous rate, bit-identical to what a full recompute would produce.
  /// Returns an empty region when nothing is dirty.
  const std::vector<std::size_t>& recompute();

  /// Last rate computed for the flow (before any per-flow cap the caller
  /// applies). Meaningful only while the flow is active.
  double rate(std::size_t flow) const { return rate_[flow]; }

  class WhatIf;
  /// Records one waterfill of every active flow, from the capacities and
  /// the active set alone (pending dirt and stored rates play no part), and
  /// returns it as a what-if solver: WhatIf::rate answers "what rate would a
  /// flow with this row get if it joined the active set now" without
  /// touching the kernel. The recording is sized by the resources active
  /// flows cross, not by the resource table.
  WhatIf what_if() const;

  // ---- introspection ------------------------------------------------------

  struct Stats {
    std::uint64_t recomputes = 0;        ///< recompute() calls that did work
    std::uint64_t region_flows = 0;      ///< cumulative flows re-waterfilled
    std::uint64_t region_resources = 0;  ///< cumulative resources visited
    std::uint64_t waterfill_rounds = 0;  ///< cumulative bottleneck freezes
    std::uint64_t row_compactions = 0;   ///< CSR storage compactions
  };
  const Stats& stats() const { return stats_; }
  /// Region size of the most recent non-empty recompute.
  std::size_t last_region_flows() const { return region_flows_.size(); }

 private:
  /// row_begin_ sentinel for a retired flow (its row storage was released).
  static constexpr std::size_t kRetiredRow = static_cast<std::size_t>(-1);

  void mark_resource_dirty(ResourceId r);
  std::size_t find_root(std::size_t r);
  void compact_rows();

  double unconstrained_rate_;

  // Resources.
  std::vector<double> capacity_;
  std::vector<std::size_t> label_;       // resource -> component label (a resource id)
  std::vector<char> label_dirty_;        // indexed by label
  std::vector<std::size_t> dirty_labels_;  // for O(dirty) clearing
  bool dirty_ = false;

  // Flow -> resource incidence, CSR.
  std::vector<std::size_t> row_begin_;
  std::vector<std::uint32_t> row_len_;
  std::vector<ResourceId> row_data_;
  std::size_t dead_row_slots_ = 0;

  // Activity.
  std::vector<std::size_t> active_;  // sorted ascending
  std::vector<char> active_flag_;    // flow -> currently active?

  std::vector<double> rate_;

  // Scratch reused across recomputes (allocation-free once warm).
  std::vector<std::size_t> region_flows_;
  std::vector<ResourceId> region_res_;
  std::vector<ResourceId> live_res_;
  std::vector<std::size_t> uf_parent_;     // per resource, region-local validity
  std::vector<std::uint64_t> res_stamp_;   // per resource, region membership epoch
  std::vector<std::uint64_t> frozen_stamp_;  // per flow, freeze epoch
  std::vector<double> remaining_;          // per resource
  std::vector<std::size_t> load_;          // per resource, unfrozen flows
  std::vector<std::size_t> rev_begin_;     // per resource, into rev_flows_
  std::vector<std::size_t> rev_fill_;      // per resource, fill cursor
  std::vector<std::size_t> rev_flows_;     // reverse index payload
  std::uint64_t epoch_ = 0;

  Stats stats_;
};

/// One recorded waterfill of a kernel's active set (MaxMinKernel::what_if),
/// answering what-if probes by replay.
///
/// The recording keeps every waterfill round as (share, bottleneck,
/// component) and, per resource an active flow crosses, its (remaining,
/// load) after every round that touched it. rate(row) walks only the rounds
/// of the components the row's resources belong to, in recorded order. At
/// each round the row's resources take the share remaining/(load + m), where
/// m is the resource's multiplicity in the row. The probe freezes at the
/// first round where a row resource beats the recorded bottleneck (a lower
/// share, or an equal share and a lower id), or where the bottleneck is
/// itself a row resource; its rate is then the row's smallest share. A row
/// resource whose remaining reaches 0 gives rate 0 at once. If no round
/// freezes the probe, its rate is the row's smallest share after the last
/// round.
///
/// This is bit-identical to activating the probe and recomputing
/// (max_min_rates over the active rows plus the probe's row). Components
/// waterfill independently, and a recorded round is the smallest head over
/// all components: a row that beats a round of a component it does not
/// touch also beats the next round of one it does, so those rounds can be
/// skipped. Until the probe
/// freezes, every round picks the same bottleneck and freezes the same flows
/// with the same subtractions as the recording: only the row's resources
/// see a different share, and none of them beat it. When the recorded
/// bottleneck lies in the row, its share with the probe is lower (or both
/// are 0), so a row resource wins that round.
///
/// A WhatIf answers for the active set and capacities it recorded. It reads
/// the capacities of resources no active flow crosses from its kernel, so
/// it must not outlive the kernel or outlast a capacity change. rate() is
/// const and,
/// for rows of up to kInlineRow distinct resources, allocation-free, so one
/// recording may serve many threads.
class MaxMinKernel::WhatIf {
 public:
  static constexpr std::size_t kInlineRow = 16;

  /// Rate a flow with resource row `row` (duplicates count with their
  /// multiplicity) would get alongside the recorded active set; an empty row
  /// gets the kernel's unconstrained rate.
  double rate(const ResourceId* row, std::size_t len) const;

 private:
  friend class MaxMinKernel;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  struct Round {
    double share;
    std::size_t bottleneck;  // index into res_
    std::size_t component;
  };
  /// A resource's state after round `round` (1-based; 0 is before any).
  struct State {
    std::size_t round;
    std::size_t load;
    double remaining;
  };
  /// One distinct resource of a probed row.
  struct Slot {
    ResourceId res;
    std::size_t local;  // index into res_, or kNone
    std::size_t mult;
    std::size_t state;  // index into hist_ (unused when local == kNone)
    double remaining;
    std::size_t load;
  };
  /// A touched component's next unreplayed round.
  struct Cursor {
    std::size_t component;
    std::size_t next;  // index into component_rounds_
  };

  double rate_with(const ResourceId* row, std::size_t len, Slot* slots,
                   Cursor* cursors) const;
  /// Index of `r` in res_, or kNone.
  std::size_t local_of(ResourceId r) const;

  const MaxMinKernel* kernel_ = nullptr;
  std::vector<ResourceId> res_;              // ascending
  std::vector<std::size_t> res_component_;   // per res_
  std::vector<std::size_t> hist_begin_;      // per res_, into hist_
  std::vector<std::size_t> hist_end_;        // per res_
  std::vector<State> hist_;
  std::vector<Round> rounds_;                // round k is rounds_[k - 1]
  std::vector<std::size_t> component_begin_;  // per component + 1, into component_rounds_
  std::vector<std::size_t> component_rounds_;  // round indices, ascending per component
};

}  // namespace choreo::flowsim
