#include "machine/flow.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hpp"

namespace columbia::machine {

namespace {
/// Completion slop: flows projected to finish within this of the wake
/// time complete together (absorbs float rounding in remaining/rate;
/// sub-picosecond at the simulated timescales, far below any physical
/// distinction the models make).
double completion_eps(double now) { return 1e-12 * (now + 1.0); }

/// Headroom below this is treated as saturation: the add parks rather
/// than admitting a near-zero-rate flow.
constexpr double kMinHeadroom = 1e-9;

/// Min-heap order for completion entries; seq breaks time ties, so the
/// pop order (and therefore continuation scheduling order) is a total
/// order independent of heap internals.
bool due_after(const FlowSolver::Due& a, const FlowSolver::Due& b) {
  if (a.time != b.time) return a.time > b.time;
  return a.seq > b.seq;
}
}  // namespace

FlowSolver::FlowSolver(sim::Engine& engine,
                       std::vector<double> link_capacities)
    : engine_(&engine), link_capacity_(std::move(link_capacities)) {
  for (double c : link_capacity_) {
    COL_REQUIRE(c >= 1.0, "flow link capacity below one slot");
  }
  const std::size_t n = link_capacity_.size();
  solve_deadline_ = std::numeric_limits<double>::infinity();
  link_used_.assign(n, 0.0);
  link_waiters_.assign(n, {});
  link_unfrozen_.assign(n, 0);
  link_stamp_.assign(n, 0);
  link_adj_at_.assign(n, 0);
  link_adj_end_.assign(n, 0);
}

FlowSolver::~FlowSolver() {
  // Defensive: revoke an armed wake so a later engine run cannot call
  // into a destroyed solver (normal runs drain the queue before teardown).
  if (wake_pending_) engine_->cancel_scheduled(wake_token_);
}

void FlowSolver::heap_push(Due d) {
  comp_heap_.push_back(d);
  std::push_heap(comp_heap_.begin(), comp_heap_.end(), due_after);
}

void FlowSolver::start_flow(const PathRef& path, double bytes,
                            double rate_cap, double latency,
                            sim::Callback done) {
  COL_REQUIRE(bytes > 0.0, "flow with no payload");
  COL_REQUIRE(rate_cap > 0.0, "flow with a non-positive rate cap");
  COL_REQUIRE(latency >= 0.0, "negative flow latency");
  COL_REQUIRE(path.nlinks >= 1 && path.nlinks <= kMaxPathLinks,
              "flow path link count out of range");
  const double now = engine_->now();

  int slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<int>(flows_.size());
    flows_.emplace_back();
  }
  Flow& f = flows_[static_cast<std::size_t>(slot)];
  f = Flow{};
  f.remaining = bytes;
  f.rate_cap = rate_cap;
  f.latency = latency;
  f.accounted = now;
  f.completion_time = std::numeric_limits<double>::infinity();
  f.seq = next_seq_++;
  f.done = done;
  f.links = path.links;
  f.nlinks = path.nlinks;
  f.alive = true;
  order_.emplace_back(slot, f.seq);
  ++alive_;
  ++flows_started_;

  // Lazy admission: grant the smallest free headroom across the path,
  // capped at one slot (existing rates untouched — no solve, no event),
  // or park on the first blocked link until a completion frees capacity.
  const int blocked = try_admit(slot, now, -1);
  if (blocked >= 0) {
    f.parked_on = blocked;
    link_waiters_[static_cast<std::size_t>(blocked)].emplace_back(slot, f.seq);
    ++parked_count_;
  }
  if (++events_since_solve_ >= refresh_quota() && solve_deadline_ > now) {
    // Fairness refresh due: settle with one full re-solve at this
    // timestamp (a same-timestamp burst is solved once).
    solve_deadline_ = now;
  }
  arm_wake();
}

int FlowSolver::try_admit(int slot, double now, int from_link) {
  Flow& f = flows_[static_cast<std::size_t>(slot)];
  // Resume sequential acquisition at the first unheld hop; earlier hops
  // stay held, exactly like a Resource chain mid-acquire. Forward-only
  // motion is what makes the admission cascade terminate: a parked flow
  // either extends its chain or is admitted, never retreats.
  for (int k = f.nheld; k < f.nlinks; ++k) {
    const int l = f.links[static_cast<std::size_t>(k)];
    const auto li = static_cast<std::size_t>(l);
    const double free_slots = link_capacity_[li] - link_used_[li];
    // A link with queued waiters refuses new entrants (FIFO order), except
    // the queue this flow is currently front of.
    if (free_slots <= kMinHeadroom ||
        (l != from_link && !link_waiters_[li].empty())) {
      return l;
    }
    const double hold = free_slots < 1.0 ? free_slots : 1.0;
    f.holds[static_cast<std::size_t>(k)] = hold;
    link_used_[li] += hold;
    f.nheld = k + 1;
  }
  // Whole path held: the flow drains at its narrowest hold; the excess
  // over that share returns to each wider link's headroom.
  double share = 1.0;
  for (int j = 0; j < f.nlinks; ++j) {
    const double h = f.holds[static_cast<std::size_t>(j)];
    if (h < share) share = h;
  }
  for (int j = 0; j < f.nlinks; ++j) {
    link_used_[static_cast<std::size_t>(
        f.links[static_cast<std::size_t>(j)])] -=
        f.holds[static_cast<std::size_t>(j)] - share;
  }
  f.share = share;
  f.rate = share * f.rate_cap;
  f.accounted = now;
  f.completion_time = now + f.remaining / f.rate;
  f.parked_on = -1;
  f.nheld = 0;
  heap_push(Due{f.completion_time, f.seq, slot});
  ++headroom_admissions_;
  return -1;
}

void FlowSolver::admit_waiters(const std::array<int, kMaxPathLinks>& links,
                               int nlinks, double now) {
  for (int k = 0; k < nlinks; ++k) {
    drain_list_.push_back(links[static_cast<std::size_t>(k)]);
  }
  while (!drain_list_.empty()) {
    const int l = drain_list_.back();
    drain_list_.pop_back();
    auto& wl = link_waiters_[static_cast<std::size_t>(l)];
    std::size_t i = 0;
    while (i < wl.size()) {
      const auto [slot, seq] = wl[i];
      Flow& w = flows_[static_cast<std::size_t>(slot)];
      if (!w.alive || w.seq != seq || w.share >= 0.0) {
        // Stale: completed-and-reused slot residue.
        wl.erase(wl.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      const int blocked = try_admit(slot, now, l);
      if (blocked == l) break;  // still no headroom here; FIFO stalls
      wl.erase(wl.begin() + static_cast<std::ptrdiff_t>(i));
      if (blocked >= 0) {
        // Extended the held chain but blocked downstream: move to that
        // queue (only holds were added, nothing freed — no cascade). The
        // next waiter here sees any residual headroom on the next pass
        // of this inner loop.
        w.parked_on = blocked;
        link_waiters_[static_cast<std::size_t>(blocked)].emplace_back(slot,
                                                                      seq);
      } else {
        // Admitted: the excess of its holds over the final share went
        // back to its links' headroom; cascade through them.
        --parked_count_;
        for (int j = 0; j < w.nlinks; ++j) {
          drain_list_.push_back(w.links[static_cast<std::size_t>(j)]);
        }
      }
    }
  }
}

void FlowSolver::on_wake() {
  wake_pending_ = false;
  const double now = engine_->now();
  pop_due(now);
  if (now >= solve_deadline_) {
    solve_deadline_ = std::numeric_limits<double>::infinity();
  }
  if (alive_ > 0 && events_since_solve_ >= refresh_quota()) solve(now);
  arm_wake();
}

void FlowSolver::pop_due(double now) {
  const double eps = completion_eps(now);
  while (!comp_heap_.empty() && comp_heap_.front().time <= now + eps) {
    const Due d = comp_heap_.front();
    std::pop_heap(comp_heap_.begin(), comp_heap_.end(), due_after);
    comp_heap_.pop_back();
    Flow& f = flows_[static_cast<std::size_t>(d.slot)];
    if (!f.alive || f.seq != d.seq) continue;  // stale entry
    // The drain is done: release the shares and run the flow's callback
    // `latency` later (wire latency folded into this one event).
    engine_->schedule_at(now + f.latency, f.done);
    for (int k = 0; k < f.nlinks; ++k) {
      link_used_[static_cast<std::size_t>(
          f.links[static_cast<std::size_t>(k)])] -= f.share;
    }
    const auto links = f.links;
    const int nlinks = f.nlinks;
    f.alive = false;
    f.done = {};
    free_.push_back(d.slot);
    --alive_;
    ++flows_completed_;
    ++events_since_solve_;
    // Hand the freed capacity to parked flows before the next pop so
    // FIFO handoffs happen at the release timestamp, like the event
    // backend's Resource grant.
    admit_waiters(links, nlinks, now);
  }
}

void FlowSolver::solve(double now) {
  ++solves_;
  events_since_solve_ = 0;
  solve_deadline_ = std::numeric_limits<double>::infinity();

  // Compact the admission-order list and advance every survivor's byte
  // counter to `now` (exact: rates are constant since each flow's last
  // accounting point).
  std::size_t kept = 0;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const auto [slot, seq] = order_[i];
    Flow& f = flows_[static_cast<std::size_t>(slot)];
    if (!f.alive || f.seq != seq) continue;
    const double dt = now - f.accounted;
    if (dt > 0.0) {
      f.remaining -= f.rate * dt;
      if (f.remaining < 0.0) f.remaining = 0.0;
      f.accounted = now;
    }
    order_[kept++] = order_[i];
  }
  order_.resize(kept);
  COL_CHECK(kept == alive_, "flow order list out of sync");

  // Max-min progressive filling over the *running* flows, in admission
  // order. Parked flows stay queued: they contribute their upstream holds
  // to the rebuilt ledger but receive no share until their FIFO grants.
  touched_.clear();
  running_.clear();
  ++stamp_;
  std::size_t path_entries = 0;
  for (const auto& [slot, seq] : order_) {
    Flow& f = flows_[static_cast<std::size_t>(slot)];
    for (int k = 0; k < f.nlinks; ++k) {
      const int l = f.links[static_cast<std::size_t>(k)];
      const auto li = static_cast<std::size_t>(l);
      if (link_stamp_[li] != stamp_) {
        link_stamp_[li] = stamp_;
        link_used_[li] = 0.0;  // ledger rebuilt from scratch below
        link_unfrozen_[li] = 0;
        touched_.push_back(l);
      }
    }
    if (f.parked_on >= 0) continue;
    f.share = -1.0;
    running_.push_back(slot);
    path_entries += static_cast<std::size_t>(f.nlinks);
    for (int k = 0; k < f.nlinks; ++k) {
      ++link_unfrozen_[static_cast<std::size_t>(
          f.links[static_cast<std::size_t>(k)])];
    }
  }
  // Parked holds go back onto the clean ledger before the filling, so
  // running flows share only what the waiting chains left free.
  for (const auto& [slot, seq] : order_) {
    Flow& f = flows_[static_cast<std::size_t>(slot)];
    if (f.parked_on < 0) continue;
    for (int j = 0; j < f.nheld; ++j) {
      link_used_[static_cast<std::size_t>(
          f.links[static_cast<std::size_t>(j)])] +=
          f.holds[static_cast<std::size_t>(j)];
    }
  }
  // CSR adjacency link -> crossing flows. Filling by an admission-order
  // scan leaves each per-link list in ascending admission order.
  std::size_t at = 0;
  for (const int l : touched_) {
    const auto li = static_cast<std::size_t>(l);
    link_adj_at_[li] = at;
    at += static_cast<std::size_t>(link_unfrozen_[li]);
    link_adj_end_[li] = at;
  }
  adj_.resize(path_entries);
  for (std::size_t i = 0; i < running_.size(); ++i) {
    const Flow& f = flows_[static_cast<std::size_t>(running_[i])];
    for (int k = 0; k < f.nlinks; ++k) {
      const auto li =
          static_cast<std::size_t>(f.links[static_cast<std::size_t>(k)]);
      adj_[link_adj_at_[li]++] = static_cast<int>(i);
    }
  }
  // Rewind the fill cursors to list starts (the ends stay put).
  for (const int l : touched_) {
    const auto li = static_cast<std::size_t>(l);
    link_adj_at_[li] = link_adj_end_[li] -
                       static_cast<std::size_t>(link_unfrozen_[li]);
  }

  // Min-heap of (fill level, link): the smallest per-flow slot share any
  // link can still offer. Entries go stale as freezes consume capacity —
  // a link's level only grows (max-min monotonicity), so a popped entry
  // whose level moved is re-pushed lazily with the current value. Ties
  // break on link index: deterministic pop order.
  const auto heap_cmp = [](const std::pair<double, int>& a,
                           const std::pair<double, int>& b) {
    return a.first != b.first ? a.first > b.first : a.second > b.second;
  };
  level_heap_.clear();
  for (const int l : touched_) {
    const auto li = static_cast<std::size_t>(l);
    if (link_unfrozen_[li] <= 0) continue;  // only parked flows cross it
    level_heap_.emplace_back((link_capacity_[li] - link_used_[li]) /
                                 static_cast<double>(link_unfrozen_[li]),
                             l);
  }
  std::make_heap(level_heap_.begin(), level_heap_.end(), heap_cmp);

  std::size_t remaining = running_.size();
  while (remaining > 0 && !level_heap_.empty()) {
    std::pop_heap(level_heap_.begin(), level_heap_.end(), heap_cmp);
    const auto [level, l] = level_heap_.back();
    level_heap_.pop_back();
    // A level >= 1 means every remaining flow fits under its own rate cap
    // (stale entries only under-report, so the heap minimum is a safe
    // bound): stop filling.
    if (level >= 1.0) break;
    const auto li = static_cast<std::size_t>(l);
    if (link_unfrozen_[li] <= 0) continue;  // fully frozen since pushed
    const double cur = (link_capacity_[li] - link_used_[li]) /
                       static_cast<double>(link_unfrozen_[li]);
    if (cur != level) {
      level_heap_.emplace_back(cur, l);
      std::push_heap(level_heap_.begin(), level_heap_.end(), heap_cmp);
      continue;
    }
    // This link is the current bottleneck: freeze its unfrozen flows at
    // `cur` and charge their other links.
    for (std::size_t p = link_adj_at_[li]; p < link_adj_end_[li]; ++p) {
      Flow& f = flows_[static_cast<std::size_t>(
          running_[static_cast<std::size_t>(adj_[p])])];
      if (f.share >= 0.0) continue;
      f.share = cur;
      --remaining;
      for (int k = 0; k < f.nlinks; ++k) {
        const auto l2 =
            static_cast<std::size_t>(f.links[static_cast<std::size_t>(k)]);
        link_used_[l2] += cur;
        --link_unfrozen_[l2];
        if (l2 != li && link_unfrozen_[l2] > 0) {
          level_heap_.emplace_back((link_capacity_[l2] - link_used_[l2]) /
                                       static_cast<double>(link_unfrozen_[l2]),
                                   static_cast<int>(l2));
          std::push_heap(level_heap_.begin(), level_heap_.end(), heap_cmp);
        }
      }
    }
    COL_CHECK(link_unfrozen_[li] == 0, "bottleneck link not fully frozen");
  }
  // Whatever the filling never constrained runs at its own rate cap; the
  // uncharged unit shares go onto the ledger so later lazy admissions see
  // the true residual headroom.
  for (const int slot : running_) {
    Flow& f = flows_[static_cast<std::size_t>(slot)];
    if (f.share < 0.0) {
      f.share = 1.0;
      for (int k = 0; k < f.nlinks; ++k) {
        link_used_[static_cast<std::size_t>(
            f.links[static_cast<std::size_t>(k)])] += 1.0;
      }
    }
    f.rate = f.share * f.rate_cap;
  }

  // Every running rate changed: rebuild projected finish times and the
  // heap. Parked flows stay queued (no completion to project) and keep
  // their FIFO positions.
  comp_heap_.clear();
  for (const int slot : running_) {
    Flow& f = flows_[static_cast<std::size_t>(slot)];
    COL_CHECK(f.rate > 0.0, "solved flow with zero rate");
    f.completion_time = now + f.remaining / f.rate;
    comp_heap_.push_back(Due{f.completion_time, f.seq, slot});
  }
  std::make_heap(comp_heap_.begin(), comp_heap_.end(), due_after);
}

void FlowSolver::arm_wake() {
  double target = solve_deadline_;
  if (!comp_heap_.empty() && comp_heap_.front().time < target) {
    target = comp_heap_.front().time;
  }
  if (target == std::numeric_limits<double>::infinity()) {
    if (wake_pending_) {
      engine_->cancel_scheduled(wake_token_);
      wake_pending_ = false;
    }
    return;
  }
  const double now = engine_->now();
  if (target < now) target = now;
  if (wake_pending_) {
    // An earlier (or equal) pending wake fires first and re-arms from
    // there; only a strictly-later pending wake must be retargeted.
    if (wake_target_ <= target) return;
    engine_->cancel_scheduled(wake_token_);
  }
  wake_token_ = engine_->schedule_cancellable_at(
      target, sim::Callback::method<&FlowSolver::on_wake>(this));
  wake_pending_ = true;
  wake_target_ = target;
}

}  // namespace columbia::machine
