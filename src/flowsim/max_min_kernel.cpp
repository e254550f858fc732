#include "flowsim/max_min_kernel.h"

#include <algorithm>
#include <limits>

#include "util/require.h"

namespace choreo::flowsim {

MaxMinKernel::MaxMinKernel(double unconstrained_rate)
    : unconstrained_rate_(unconstrained_rate) {
  CHOREO_REQUIRE(unconstrained_rate > 0.0);
}

ResourceId MaxMinKernel::add_resource(double capacity_bps) {
  CHOREO_REQUIRE(capacity_bps >= 0.0);
  const ResourceId id = capacity_.size();
  capacity_.push_back(capacity_bps);
  label_.push_back(id);  // fresh resources are their own singleton component
  label_dirty_.push_back(0);
  return id;
}

void MaxMinKernel::set_capacity(ResourceId id, double capacity_bps) {
  CHOREO_REQUIRE(id < capacity_.size());
  CHOREO_REQUIRE(capacity_bps >= 0.0);
  capacity_[id] = capacity_bps;
  mark_resource_dirty(id);
}

std::size_t MaxMinKernel::add_flow(const ResourceId* row, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) CHOREO_REQUIRE(row[i] < capacity_.size());
  const std::size_t id = row_begin_.size();
  row_begin_.push_back(row_data_.size());
  row_len_.push_back(static_cast<std::uint32_t>(len));
  row_data_.insert(row_data_.end(), row, row + len);
  active_flag_.push_back(0);
  rate_.push_back(0.0);
  frozen_stamp_.push_back(0);
  return id;
}

void MaxMinKernel::mark_resource_dirty(ResourceId r) {
  const std::size_t label = label_[r];
  if (!label_dirty_[label]) {
    label_dirty_[label] = 1;
    dirty_labels_.push_back(label);
  }
  dirty_ = true;
}

void MaxMinKernel::activate(std::size_t flow) {
  CHOREO_REQUIRE(flow < row_begin_.size());
  CHOREO_REQUIRE_MSG(row_begin_[flow] != kRetiredRow, "cannot activate a retired flow");
  if (active_flag_[flow]) return;
  active_flag_[flow] = 1;
  active_.insert(std::lower_bound(active_.begin(), active_.end(), flow), flow);
  const std::uint32_t len = row_len_[flow];
  if (len == 0) {
    // No shared resources: the oracle gives such flows `unconstrained_rate`
    // without touching any other flow, so no component is dirtied.
    rate_[flow] = unconstrained_rate_;
    return;
  }
  const std::size_t b = row_begin_[flow];
  for (std::uint32_t i = 0; i < len; ++i) mark_resource_dirty(row_data_[b + i]);
}

void MaxMinKernel::deactivate(std::size_t flow) {
  CHOREO_REQUIRE(flow < row_begin_.size());
  if (!active_flag_[flow]) return;
  active_flag_[flow] = 0;
  active_.erase(std::lower_bound(active_.begin(), active_.end(), flow));
  const std::size_t b = row_begin_[flow];
  for (std::uint32_t i = 0; i < row_len_[flow]; ++i) mark_resource_dirty(row_data_[b + i]);
}

void MaxMinKernel::retire(std::size_t flow) {
  CHOREO_REQUIRE(flow < row_begin_.size());
  CHOREO_REQUIRE_MSG(!active_flag_[flow], "cannot retire an active flow");
  if (row_begin_[flow] == kRetiredRow) return;
  dead_row_slots_ += row_len_[flow];
  row_len_[flow] = 0;
  row_begin_[flow] = kRetiredRow;
  if (dead_row_slots_ > 4096 && dead_row_slots_ * 2 > row_data_.size()) compact_rows();
}

void MaxMinKernel::compact_rows() {
  // Rows were appended in flow order, so live rows can slide toward the front
  // in one forward pass without overlap hazards.
  std::size_t out = 0;
  for (std::size_t f = 0; f < row_begin_.size(); ++f) {
    if (row_begin_[f] == kRetiredRow) continue;
    const std::size_t b = row_begin_[f];
    row_begin_[f] = out;
    for (std::uint32_t i = 0; i < row_len_[f]; ++i) row_data_[out++] = row_data_[b + i];
  }
  row_data_.resize(out);
  dead_row_slots_ = 0;
  ++stats_.row_compactions;
}

double MaxMinKernel::probe_rate(const ResourceId* row, std::size_t len) {
  const std::size_t probe = add_flow(row, len);
  activate(probe);
  recompute();
  const double r = rate_[probe];
  deactivate(probe);
  // The probe's row is the tail of every per-flow array (no retire or
  // compaction can run in between), so popping it restores the flow table.
  row_data_.resize(row_begin_[probe]);
  row_begin_.pop_back();
  row_len_.pop_back();
  active_flag_.pop_back();
  rate_.pop_back();
  frozen_stamp_.pop_back();
  return r;
}

std::size_t MaxMinKernel::find_root(std::size_t r) {
  while (uf_parent_[r] != r) {
    uf_parent_[r] = uf_parent_[uf_parent_[r]];  // path halving
    r = uf_parent_[r];
  }
  return r;
}

const std::vector<std::size_t>& MaxMinKernel::recompute() {
  region_flows_.clear();
  if (!dirty_) return region_flows_;
  ++epoch_;
  // Per-resource scratch is sized here rather than in add_resource, so a
  // kernel that holds only a resource table (the cloud's fabric template)
  // stays small.
  if (res_stamp_.size() < capacity_.size()) {
    const std::size_t n = capacity_.size();
    uf_parent_.resize(n);
    res_stamp_.resize(n);
    remaining_.resize(n);
    load_.resize(n);
    rev_begin_.resize(n);
    rev_fill_.resize(n);
  }

  // 1. Region = every active flow in a dirty component. An active flow's
  // resources either all share one label, or (for flows activated since the
  // last recompute) all carry labels the activation itself dirtied — either
  // way, testing the first row entry is sufficient.
  for (const std::size_t f : active_) {
    if (row_len_[f] == 0) continue;
    if (label_dirty_[label_[row_data_[row_begin_[f]]]]) region_flows_.push_back(f);
  }

  // 2. Collect the region's resources and relabel them with a union-find
  // over the region's flows, so components that split since the last pass
  // are separated again for future scoping.
  region_res_.clear();
  for (const std::size_t f : region_flows_) {
    const std::size_t b = row_begin_[f];
    const std::uint32_t len = row_len_[f];
    for (std::uint32_t i = 0; i < len; ++i) {
      const ResourceId r = row_data_[b + i];
      if (res_stamp_[r] != epoch_) {
        res_stamp_[r] = epoch_;
        uf_parent_[r] = r;
        region_res_.push_back(r);
      }
    }
    std::size_t root = find_root(row_data_[b]);
    for (std::uint32_t i = 1; i < len; ++i) {
      const std::size_t other = find_root(row_data_[b + i]);
      if (other == root) continue;
      if (other < root) {
        uf_parent_[root] = other;
        root = other;
      } else {
        uf_parent_[other] = root;
      }
    }
  }
  for (const ResourceId r : region_res_) label_[r] = find_root(r);

  // 3. Dirt is consumed: components with no active flow have no rates to fix.
  for (const std::size_t label : dirty_labels_) label_dirty_[label] = 0;
  dirty_labels_.clear();
  dirty_ = false;
  if (region_flows_.empty()) return region_flows_;

  ++stats_.recomputes;
  stats_.region_flows += region_flows_.size();
  stats_.region_resources += region_res_.size();

  // 4. Waterfill setup over the region only. Sorting the resource list keeps
  // the oracle's lowest-id tie-break for equal bottleneck shares.
  std::sort(region_res_.begin(), region_res_.end());
  for (const ResourceId r : region_res_) {
    remaining_[r] = capacity_[r];
    load_[r] = 0;
  }
  for (const std::size_t f : region_flows_) {
    const std::size_t b = row_begin_[f];
    for (std::uint32_t i = 0; i < row_len_[f]; ++i) ++load_[row_data_[b + i]];
  }
  // Reverse resource -> flow index, counting-sorted so each resource's flow
  // list ascends by id (the oracle's freeze order).
  std::size_t total = 0;
  for (const ResourceId r : region_res_) {
    rev_begin_[r] = total;
    rev_fill_[r] = 0;
    total += load_[r];
  }
  if (rev_flows_.size() < total) rev_flows_.resize(total);
  for (const std::size_t f : region_flows_) {
    const std::size_t b = row_begin_[f];
    for (std::uint32_t i = 0; i < row_len_[f]; ++i) {
      const ResourceId r = row_data_[b + i];
      rev_flows_[rev_begin_[r] + rev_fill_[r]++] = f;
    }
  }

  // 5. Progressive filling. live_res_ drops saturated/empty resources as it
  // scans, so late rounds touch only what is still contested.
  std::size_t unfrozen = region_flows_.size();
  live_res_.assign(region_res_.begin(), region_res_.end());
  while (unfrozen > 0) {
    double best_share = std::numeric_limits<double>::infinity();
    ResourceId best = capacity_.size();
    std::size_t out = 0;
    for (const ResourceId r : live_res_) {
      if (load_[r] == 0) continue;  // fully frozen: drop from the live list
      live_res_[out++] = r;
      const double share = remaining_[r] / static_cast<double>(load_[r]);
      if (share < best_share) {
        best_share = share;
        best = r;
      }
    }
    live_res_.resize(out);
    CHOREO_ASSERT(best < capacity_.size());
    ++stats_.waterfill_rounds;

    const std::size_t rb = rev_begin_[best];
    const std::size_t rn = rev_fill_[best];
    for (std::size_t s = 0; s < rn; ++s) {
      const std::size_t f = rev_flows_[rb + s];
      if (frozen_stamp_[f] == epoch_) continue;
      frozen_stamp_[f] = epoch_;
      rate_[f] = best_share;
      --unfrozen;
      const std::size_t b = row_begin_[f];
      for (std::uint32_t i = 0; i < row_len_[f]; ++i) {
        const ResourceId r = row_data_[b + i];
        remaining_[r] = std::max(0.0, remaining_[r] - best_share);
        --load_[r];
      }
    }
  }
  return region_flows_;
}

}  // namespace choreo::flowsim
