#pragma once
/// \file flow.hpp
/// Fluid bandwidth-sharing solver behind TransportModel::Flow.
///
/// A bulk transfer becomes a *flow*: a remaining-bytes counter draining at
/// a rate the solver assigns, crossing the same links (per-CPU injection,
/// per-SHUB bus ports, per-node spine pool, per-node fabric channels) the
/// event backend models as FIFO Resources. Where the event backend queues
/// one holder per slot, the fluid model shares: each flow receives a
/// normalized share s in (0, 1] of one slot — s = 1 reproduces the
/// uncontended per-stream rate `cap` exactly — subject to a per-link
/// budget of `capacity` slots (the event model's unit count). Shares are
/// assigned max-min fair by progressive filling (SimGrid-style, at
/// message granularity).
///
/// The solver is *lazy*: rates are piecewise-constant between full
/// re-solves, which keeps per-message cost O(log n) instead of O(n):
///   * Completions need no solve. Each flow's finish time is exact while
///     rates are constant, so due flows pop off a (time, seq) min-heap;
///     their shares return to their links' headroom ledger.
///   * Adds are admitted against that headroom ledger: a new flow takes
///     min(1, headroom) across its links — in steady pipelined traffic
///     the predecessor on the same path just freed exactly the fair
///     share, so admission reproduces the fair allocation with no solve
///     and no event.
///   * Contention beyond capacity reproduces the event backend's
///     sequential acquire-and-hold discipline: a flow whose path hits a
///     full link (or a link with queued waiters) parks in that link's
///     FIFO and *holds* the free capacity it already claimed on upstream
///     links, exactly like a Resource acquirer that waits at hop k while
///     holding hops 0..k-1. Held capacity is idle — this deliberate
///     non-work-conserving behavior is what makes random-ring-style
///     patterns contend as hard as they do on the real machine. A
///     completion hands its freed capacity to waiters in park order,
///     O(1) per handoff, cascading through released holds.
///   * Fairness drift between *running* flows is bounded by a refresh
///     quota: after max(16, active/4) add/complete events, a zero-delay
///     settle runs a full max-min re-solve over the running set (parked
///     flows keep waiting; their holds charge the ledger), rebuilding
///     the ledger and the heap from scratch so float drift never
///     accumulates.
/// The allocation is a pure function of the active flow set and the event
/// history (fixed iteration order, ties broken on indices), so repeated
/// runs are byte-identical.
///
/// A completed flow's callback runs `latency` seconds after its drain
/// finishes (wire/protocol latency is folded into the completion event),
/// so one transfer costs one engine event plus a shared, amortized
/// settle/solve — this is where the flow backend's event-count and
/// wall-time headroom over the per-hop event model comes from on
/// contention-heavy patterns. The solver's own wake-up is one cancellable
/// callback event, retargeted as the flow set changes; an armed wake is
/// not a live task, so it never hides a deadlock.

#include <array>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/engine.hpp"

namespace columbia::machine {

class FlowSolver {
 public:
  /// Up to injection + egress + spine + ingress.
  static constexpr int kMaxPathLinks = 4;

  /// The link indices one transfer crosses (indices into the capacity
  /// vector the solver was built with).
  struct PathRef {
    std::array<int, kMaxPathLinks> links{};
    int nlinks = 0;
  };

  /// `link_capacities[l]` is link l's slot budget (the event model's
  /// Resource capacity: 1 for injection and bus ports, num_buses/2 for
  /// the spine pool, links_per_node for fabric channels).
  FlowSolver(sim::Engine& engine, std::vector<double> link_capacities);
  ~FlowSolver();
  FlowSolver(const FlowSolver&) = delete;
  FlowSolver& operator=(const FlowSolver&) = delete;

  /// Registers a flow of `bytes` over `path`, draining at min(rate_cap,
  /// fair share); an event runs `done` `latency` seconds after the drain
  /// completes.
  void start_flow(const PathRef& path, double bytes, double rate_cap,
                  double latency, sim::Callback done);

  /// Awaitable form of start_flow: resumes the awaiter instead.
  auto drain(const PathRef& path, double bytes, double rate_cap,
             double latency) {
    struct Awaiter {
      FlowSolver* solver;
      PathRef path;
      double bytes;
      double rate_cap;
      double latency;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        solver->start_flow(path, bytes, rate_cap, latency,
                           sim::Callback::resume(h));
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, path, bytes, rate_cap, latency};
  }

  // --- observability -------------------------------------------------------
  std::uint64_t flows_started() const { return flows_started_; }
  std::uint64_t flows_completed() const { return flows_completed_; }
  /// Full max-min re-solves (settles + quota refreshes), not per-flow.
  std::uint64_t solves() const { return solves_; }
  /// Flows admitted against link headroom with no solve at all.
  std::uint64_t headroom_admissions() const { return headroom_admissions_; }
  std::size_t active_flows() const { return alive_; }
  std::size_t num_links() const { return link_capacity_.size(); }

  /// Completion-heap entry; (time, seq) gives a deterministic total order.
  /// Public so the file-local heap comparator can name it.
  struct Due {
    double time;
    std::uint64_t seq;
    int slot;
  };

 private:
  struct Flow {
    double remaining;         ///< bytes left at `accounted` time
    double rate_cap;          ///< uncontended per-stream rate (bytes/s)
    double latency;           ///< tail added after the drain completes
    double rate = 0.0;        ///< current allocation
    double share = -1.0;      ///< normalized slot share behind `rate`
    double accounted = 0.0;   ///< sim time `remaining` is valid at
    double completion_time;   ///< projected finish under `rate`
    int parked_on = -1;       ///< blocked link while share < 0, else unused
    std::uint64_t seq = 0;    ///< admission ticket (stale-entry guard)
    sim::Callback done;
    std::array<int, kMaxPathLinks> links{};
    /// Capacity held idle on links[0..nheld) while parked (the event
    /// backend's hold-while-queued, fluidized to min(1, what was free)).
    std::array<double, kMaxPathLinks> holds{};
    int nheld = 0;
    int nlinks = 0;
    bool alive = false;
  };

  /// The wake event: completes due flows, settles, re-arms.
  void on_wake();
  /// Pops and completes every heap entry due at `now`; each completion
  /// hands its freed capacity to parked waiters in park order.
  void pop_due(double now);
  /// Continues `slot`'s sequential link acquisition from its first unheld
  /// hop, charging a hold of min(1, headroom) per hop passed. Returns -1
  /// and starts the flow once the whole path is held (draining at the
  /// narrowest hold; excess returns to the ledger); otherwise returns the
  /// blocking link (full, or FIFO-occupied — `from_link` is the queue the
  /// flow is currently front of and is exempt from that check). Forward
  /// motion only: holds are never retracted before admission.
  int try_admit(int slot, double now, int from_link);
  /// Admits waiters parked on the given links, FIFO per link, stopping at
  /// the first still-blocked waiter; capacity released by an admission
  /// (holds, or a smaller running share) cascades via a worklist.
  void admit_waiters(const std::array<int, kMaxPathLinks>& links, int nlinks,
                     double now);
  /// Full max-min progressive filling over the alive flows: advances
  /// their byte counters, re-fairs every rate (lazy min-heap over link
  /// fill levels, CSR link->flow adjacency; O(n log) not O(n^2)),
  /// rebuilds the headroom ledger and the completion heap.
  void solve(double now);
  /// Arms (or retargets) the single pending wake toward the earliest of
  /// the heap top and any pending settle.
  void arm_wake();
  void heap_push(Due d);
  std::uint64_t refresh_quota() const {
    return alive_ / 4 > 16 ? alive_ / 4 : 16;
  }

  sim::Engine* engine_;
  std::vector<double> link_capacity_;
  std::vector<Flow> flows_;   ///< slot storage; dead slots on free list
  std::vector<int> free_;     ///< LIFO free slots (deterministic reuse)
  /// Admission order as (slot, seq); compacted at solves. The seq tag
  /// drops entries for dead incarnations when a slot is reused between
  /// solves.
  std::vector<std::pair<int, std::uint64_t>> order_;
  std::size_t alive_ = 0;
  std::uint64_t next_seq_ = 1;

  /// Headroom ledger: slots claimed per link by current shares. Kept
  /// incrementally between solves, rebuilt from scratch by each solve.
  std::vector<double> link_used_;
  /// FIFO of (slot, seq) parked per link. Entries go stale when a solve
  /// admits everyone (share turns non-negative) or a slot is reused;
  /// stale entries are skipped on drain.
  std::vector<std::vector<std::pair<int, std::uint64_t>>> link_waiters_;

  std::vector<Due> comp_heap_;  ///< min-heap on (time, seq)
  std::uint64_t events_since_solve_ = 0;
  std::size_t parked_count_ = 0;  ///< alive flows waiting at rate zero
  /// Time a zero-delay fairness settle is owed (+inf when none); armed at
  /// `now` when the refresh quota trips so a same-timestamp burst is
  /// solved once.
  double solve_deadline_;
  std::vector<int> drain_list_;  ///< admit_waiters cascade worklist

  // Per-solve scratch, stamp-cleared so a solve touches only the links its
  // flows cross.
  std::vector<int> link_unfrozen_;
  std::vector<std::uint32_t> link_stamp_;
  std::vector<std::size_t> link_adj_at_;
  std::vector<std::size_t> link_adj_end_;
  std::vector<int> adj_;
  std::vector<int> running_;  ///< slots the filling ranges over, per solve
  std::vector<std::pair<double, int>> level_heap_;
  std::vector<int> touched_;
  std::uint32_t stamp_ = 0;

  bool wake_pending_ = false;
  double wake_target_ = 0.0;
  std::uint64_t wake_token_ = 0;

  std::uint64_t flows_started_ = 0;
  std::uint64_t flows_completed_ = 0;
  std::uint64_t solves_ = 0;
  std::uint64_t headroom_admissions_ = 0;
};

}  // namespace columbia::machine
