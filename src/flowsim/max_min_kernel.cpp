#include "flowsim/max_min_kernel.h"

#include <algorithm>
#include <limits>
#include <numeric>

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

MaxMinKernel::WhatIf MaxMinKernel::what_if() const {
  WhatIf w;
  w.kernel_ = this;

  // Region: every resource an active flow crosses, ascending, so scanning
  // it in order keeps the lowest-id tie-break. Rows are re-expressed as
  // region indices.
  std::vector<std::size_t> flows;  // active flows with a non-empty row
  std::vector<std::size_t> row_begin{0};
  for (const std::size_t f : active_) {
    const std::uint32_t len = row_len_[f];
    if (len == 0) continue;
    flows.push_back(f);
    const std::size_t b = row_begin_[f];
    w.res_.insert(w.res_.end(), row_data_.begin() + static_cast<std::ptrdiff_t>(b),
                  row_data_.begin() + static_cast<std::ptrdiff_t>(b + len));
    row_begin.push_back(w.res_.size());
  }
  std::vector<std::size_t> rows(w.res_.begin(), w.res_.end());
  std::sort(w.res_.begin(), w.res_.end());
  w.res_.erase(std::unique(w.res_.begin(), w.res_.end()), w.res_.end());
  const std::size_t n = w.res_.size();
  for (std::size_t& r : rows) r = w.local_of(r);

  std::vector<double> remaining(n);
  std::vector<std::size_t> load(n, 0);
  for (std::size_t i = 0; i < n; ++i) remaining[i] = capacity_[w.res_[i]];
  for (const std::size_t r : rows) ++load[r];

  // Components: union-find over each flow's row, numbered densely in
  // ascending resource order.
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto root = [&](std::size_t r) {
    while (parent[r] != r) r = parent[r] = parent[parent[r]];
    return r;
  };
  for (std::size_t k = 0; k < flows.size(); ++k) {
    const std::size_t first = root(rows[row_begin[k]]);
    for (std::size_t i = row_begin[k] + 1; i < row_begin[k + 1]; ++i) {
      const std::size_t other = root(rows[i]);
      if (other != first) parent[other] = first;
    }
  }
  w.res_component_.assign(n, WhatIf::kNone);
  std::size_t components = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t& label = w.res_component_[root(i)];
    if (label == WhatIf::kNone) label = components++;
    w.res_component_[i] = label;
  }

  // Reverse index, resource -> flows in ascending id (the freeze order).
  std::vector<std::size_t> rev_begin(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) rev_begin[i + 1] = rev_begin[i] + load[i];
  std::vector<std::size_t> rev(rows.size());
  std::vector<std::size_t> fill(rev_begin.begin(), rev_begin.end() - 1);
  for (std::size_t k = 0; k < flows.size(); ++k) {
    for (std::size_t i = row_begin[k]; i < row_begin[k + 1]; ++i) rev[fill[rows[i]]++] = k;
  }

  // History: a round that touches a resource freezes at least one of the
  // distinct flows crossing it, so load + 1 states always suffice.
  w.hist_begin_.resize(n);
  w.hist_end_.resize(n);
  std::size_t slots = 0;
  for (std::size_t i = 0; i < n; ++i) {
    w.hist_begin_[i] = slots;
    slots += load[i] + 1;
  }
  w.hist_.resize(slots);
  for (std::size_t i = 0; i < n; ++i) {
    w.hist_[w.hist_begin_[i]] = WhatIf::State{0, load[i], remaining[i]};
    w.hist_end_[i] = w.hist_begin_[i] + 1;
  }

  // The waterfill recompute() runs, over every component at once.
  std::vector<char> frozen(flows.size(), 0);
  std::vector<std::size_t> live(n);
  std::iota(live.begin(), live.end(), std::size_t{0});
  std::vector<std::size_t> touched_in(n, 0);  // last round that touched a resource
  std::vector<std::size_t> touched;
  std::size_t unfrozen = flows.size();
  while (unfrozen > 0) {
    double best_share = std::numeric_limits<double>::infinity();
    std::size_t best = n;
    std::size_t out = 0;
    for (const std::size_t r : live) {
      if (load[r] == 0) continue;
      live[out++] = r;
      const double share = remaining[r] / static_cast<double>(load[r]);
      if (share < best_share) {
        best_share = share;
        best = r;
      }
    }
    live.resize(out);
    CHOREO_ASSERT(best < n);
    w.rounds_.push_back(WhatIf::Round{best_share, best, w.res_component_[best]});
    const std::size_t round = w.rounds_.size();

    touched.clear();
    for (std::size_t s = rev_begin[best]; s < rev_begin[best + 1]; ++s) {
      const std::size_t k = rev[s];
      if (frozen[k]) continue;
      frozen[k] = 1;
      --unfrozen;
      for (std::size_t i = row_begin[k]; i < row_begin[k + 1]; ++i) {
        const std::size_t r = rows[i];
        remaining[r] = std::max(0.0, remaining[r] - best_share);
        --load[r];
        if (touched_in[r] != round) {
          touched_in[r] = round;
          touched.push_back(r);
        }
      }
    }
    for (const std::size_t r : touched) {
      w.hist_[w.hist_end_[r]++] = WhatIf::State{round, load[r], remaining[r]};
    }
  }

  // Each component's rounds, in recorded order.
  w.component_begin_.assign(components + 1, 0);
  for (const WhatIf::Round& rd : w.rounds_) ++w.component_begin_[rd.component + 1];
  std::partial_sum(w.component_begin_.begin(), w.component_begin_.end(),
                   w.component_begin_.begin());
  w.component_rounds_.resize(w.rounds_.size());
  std::vector<std::size_t> next(w.component_begin_.begin(), w.component_begin_.end() - 1);
  for (std::size_t k = 0; k < w.rounds_.size(); ++k) {
    w.component_rounds_[next[w.rounds_[k].component]++] = k;
  }
  return w;
}

std::size_t MaxMinKernel::WhatIf::local_of(ResourceId r) const {
  const auto it = std::lower_bound(res_.begin(), res_.end(), r);
  return it != res_.end() && *it == r ? static_cast<std::size_t>(it - res_.begin()) : kNone;
}

double MaxMinKernel::WhatIf::rate(const ResourceId* row, std::size_t len) const {
  CHOREO_REQUIRE(kernel_ != nullptr);
  if (len == 0) return kernel_->unconstrained_rate_;
  if (len <= kInlineRow) {
    Slot slots[kInlineRow];
    Cursor cursors[kInlineRow];
    return rate_with(row, len, slots, cursors);
  }
  std::vector<Slot> slots(len);
  std::vector<Cursor> cursors(len);
  return rate_with(row, len, slots.data(), cursors.data());
}

double MaxMinKernel::WhatIf::rate_with(const ResourceId* row, std::size_t len, Slot* slots,
                                       Cursor* cursors) const {
  // Distinct row resources with their multiplicity and recorded start state;
  // the distinct components they belong to.
  std::size_t n_slots = 0, n_cursors = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const ResourceId r = row[i];
    CHOREO_REQUIRE(r < kernel_->capacity_.size());
    Slot* slot = slots;
    while (slot != slots + n_slots && slot->res != r) ++slot;
    if (slot != slots + n_slots) {
      ++slot->mult;
      continue;
    }
    ++n_slots;
    slot->res = r;
    slot->mult = 1;
    slot->local = local_of(r);
    if (slot->local == kNone) {
      slot->remaining = kernel_->capacity_[r];
      slot->load = 0;
      continue;
    }
    slot->state = hist_begin_[slot->local];
    slot->remaining = hist_[slot->state].remaining;
    slot->load = hist_[slot->state].load;
    const std::size_t c = res_component_[slot->local];
    Cursor* cursor = cursors;
    while (cursor != cursors + n_cursors && cursor->component != c) ++cursor;
    if (cursor == cursors + n_cursors) cursors[n_cursors++] = Cursor{c, component_begin_[c]};
  }

  // The row's smallest share with the probe on it, lowest id first.
  double min_share = 0.0;
  ResourceId min_res = 0;
  const auto row_min = [&] {
    min_share = std::numeric_limits<double>::infinity();
    for (const Slot* s = slots; s != slots + n_slots; ++s) {
      if (s->remaining == 0.0) return true;
      const double share = s->remaining / static_cast<double>(s->load + s->mult);
      if (s == slots || share < min_share || (share == min_share && s->res < min_res)) {
        min_share = share;
        min_res = s->res;
      }
    }
    return false;
  };
  if (row_min()) return 0.0;

  for (;;) {
    // The touched components' next round, in recorded order.
    Cursor* due = nullptr;
    std::size_t k = kNone;
    for (Cursor* c = cursors; c != cursors + n_cursors; ++c) {
      if (c->next == component_begin_[c->component + 1]) continue;
      if (component_rounds_[c->next] < k) {
        k = component_rounds_[c->next];
        due = c;
      }
    }
    if (due == nullptr) return min_share;
    ++due->next;

    // Freeze: a row resource beats the recorded bottleneck, or is it.
    const Round& rd = rounds_[k];
    if (min_share < rd.share || (min_share == rd.share && min_res < res_[rd.bottleneck])) {
      return min_share;
    }
    for (const Slot* s = slots; s != slots + n_slots; ++s) {
      if (s->local == rd.bottleneck) return min_share;
    }
    // Replay: the row's resources take their recorded state after round k.
    bool changed = false;
    for (Slot* s = slots; s != slots + n_slots; ++s) {
      if (s->local == kNone || s->state + 1 == hist_end_[s->local]) continue;
      const State& after = hist_[s->state + 1];
      if (after.round != k + 1) continue;
      ++s->state;
      s->remaining = after.remaining;
      s->load = after.load;
      changed = true;
    }
    if (changed && row_min()) return 0.0;
  }
}

}  // namespace choreo::flowsim
