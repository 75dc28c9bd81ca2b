#pragma once
/// \file world.hpp
/// Simulated MPI: ranks, point-to-point messaging with eager/rendezvous
/// protocols, and the standard collective algorithms, all executing on the
/// contended machine Network.
///
/// Programs are coroutines: each rank runs `CoTask<void> program(Rank&)`.
/// Message *timing* comes from the machine model; message *semantics*
/// (matching on (source, tag), non-overtaking order, collective
/// synchronization) are implemented for real, so benchmark communication
/// patterns are exercised exactly as written. The protocol below a send
/// runs without coroutine frames: each message's Envelope holds a
/// World::Delivery and its Network::Transfer, stepped by callback events.
/// An eager send starts its delivery from an event and returns after the
/// buffer copy; a rendezvous send awaits the same delivery after the
/// clear-to-send.

#include <coroutine>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "machine/network.hpp"
#include "machine/placement.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"
#include "sim/trigger.hpp"
#include "simmpi/observer.hpp"

namespace columbia::simmpi {

/// Wildcard for Rank::recv source/tag matching (MPI_ANY_SOURCE/TAG).
inline constexpr int kAny = -1;

/// Sender-side reliability knobs, consulted only when a fault model is
/// attached (clean runs never query it). A delivery attempt the model
/// drops costs the sender `timeout * backoff^attempt` before the
/// retransmission; after `max_retries` retransmissions the message is
/// abandoned — the matched receive then never completes and the engine
/// surfaces the stall as a sim::DeadlockError (simcheck reports it as a
/// Deadlock diagnostic).
struct RetryPolicy {
  int max_retries = 6;
  double timeout = 50e-6;
  double backoff = 2.0;
};

/// A received message's metadata (payload optional, used by value-bearing
/// operations in tests).
struct Message {
  int source = 0;
  int tag = 0;
  double bytes = 0.0;
  std::vector<double> payload;
};

class World;

/// Handle for a nonblocking operation (MPI_Request). Move-only; complete
/// it with Rank::wait / Rank::wait_all. For irecv, the received message is
/// available from wait's return / the request after completion.
class Request {
 public:
  Request() = default;
  Request(Request&&) noexcept = default;
  Request& operator=(Request&&) noexcept = default;
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  bool valid() const { return state_ != nullptr; }
  /// True once the operation finished (send: delivered; recv: matched and
  /// delivered).
  bool test() const;

  /// Internal completion record (public so the detached drivers in the
  /// implementation can reach it; not part of the user API).
  struct State {
    explicit State(sim::Engine& e) : done(e) {}
    sim::Trigger done;
    bool complete = false;
    std::uint64_t check_serial = 0;  // observer request id (0 = untracked)
    Message message;  // irecv only
  };

 private:
  friend class Rank;
  std::shared_ptr<State> state_;
};

/// Per-process handle: the simulated MPI API surface.
class Rank {
 public:
  int rank() const { return rank_; }
  int size() const;
  sim::Engine& engine() const;
  /// Global CPU this rank is pinned to.
  int cpu() const { return cpu_; }

  // --- point-to-point ----------------------------------------------------
  /// Blocking send (eager below the threshold, rendezvous above).
  sim::CoTask<void> send(int dst, double bytes, int tag = 0);
  /// Send carrying actual data (for correctness-bearing tests/collectives).
  sim::CoTask<void> send_value(int dst, std::vector<double> data,
                               int tag = 0);
  /// Blocking receive matching (src, tag); kAny acts as a wildcard.
  sim::CoTask<Message> recv(int src = kAny, int tag = kAny);
  /// Concurrent send+receive (both sides may use rendezvous).
  sim::CoTask<void> sendrecv(int dst, double send_bytes, int src,
                             int tag = 0);

  // --- nonblocking point-to-point (MPI_Isend/Irecv/Wait/Waitall) ----------
  /// Starts a send; the returned request completes at delivery.
  Request isend(int dst, double bytes, int tag = 0);
  /// Posts a receive; the returned request completes when matched+delivered.
  Request irecv(int src = kAny, int tag = kAny);
  /// Blocks until the request completes; returns the message for irecv
  /// (empty Message for isend).
  sim::CoTask<Message> wait(Request& request);
  /// Blocks until every request completes.
  sim::CoTask<void> wait_all(std::vector<Request>& requests);

  // --- collectives (cost-bearing, implemented over p2p) --------------------
  sim::CoTask<void> barrier();
  sim::CoTask<void> bcast(int root, double bytes);
  sim::CoTask<void> reduce(int root, double bytes);
  sim::CoTask<void> allreduce(double bytes);
  /// Value-bearing allreduce(sum); returns the reduced vector on all ranks.
  sim::CoTask<std::vector<double>> allreduce_sum(std::vector<double> data);
  /// All-to-all personalized exchange algorithm choice (ablation study:
  /// the scheduled pairwise exchange avoids the incast storm of posting
  /// everything at once).
  enum class AlltoallAlgo {
    Pairwise,  ///< n-1 contention-disjoint rounds (XOR / rotation schedule)
    Flood,     ///< post all sends and receives simultaneously
  };

  /// All-to-all; `bytes_per_pair` to every other rank.
  sim::CoTask<void> alltoall(double bytes_per_pair,
                             AlltoallAlgo algo = AlltoallAlgo::Pairwise);
  /// Ring allgather; each rank contributes `bytes_per_rank`.
  sim::CoTask<void> allgather(double bytes_per_rank);
  /// Value-bearing ring allgather: returns the concatenation of every
  /// rank's block in rank order (blocks may differ in size).
  sim::CoTask<std::vector<double>> allgather_values(
      std::vector<double> mine);
  /// Value-bearing all-to-all: `send[q]` goes to rank q; returns one block
  /// per source rank (pairwise-exchange schedule).
  sim::CoTask<std::vector<std::vector<double>>> alltoall_values(
      std::vector<std::vector<double>> send);

  // --- local time --------------------------------------------------------
  /// Advances this rank's clock by `seconds` of computation.
  sim::CoTask<void> compute(double seconds);

  /// Accumulated time spent inside communication calls.
  double comm_seconds() const { return comm_seconds_; }
  /// Accumulated time spent in compute().
  double compute_seconds() const { return compute_seconds_; }
  /// Accumulated time spent blocked in storage I/O (filled by simio's
  /// rank-attributed file operations; simmpi itself never adds to it).
  double io_seconds() const { return io_seconds_; }
  /// Adds `seconds` of blocked I/O time (called by simio's File wrappers,
  /// which also emit the matching SpanKind::Io span).
  void note_io_seconds(double seconds) { io_seconds_ += seconds; }

 private:
  friend class World;

  struct Envelope;  // defined after World, whose Delivery it holds
  struct PendingRecv {
    explicit PendingRecv(sim::Engine& e) : ready(e) {}
    int src = 0;
    int tag = 0;
    Envelope* matched = nullptr;
    std::uint64_t check_id = 0;  // observer op id (0 = untracked)
    sim::Trigger ready;
  };

  sim::CoTask<void> send_impl(int dst, double bytes,
                              std::vector<double> payload, int tag);
  /// Deposits an envelope into this rank's mailbox (called by the sender).
  void deposit(std::unique_ptr<Envelope> env);
  static bool matches(int want_src, int want_tag, const Envelope& env);

  World* world_ = nullptr;
  int rank_ = 0;
  int cpu_ = 0;
  double comm_seconds_ = 0.0;
  double compute_seconds_ = 0.0;
  double io_seconds_ = 0.0;
  /// Count of messages this rank has sent; feeds the fault model's
  /// per-message verdict. Deliberately independent of the observer id
  /// space so `--check`/`--profile` cannot perturb fault draws.
  std::uint64_t send_serial_ = 0;
  std::deque<std::unique_ptr<Envelope>> unexpected_;
  std::deque<PendingRecv*> pending_;
};

/// One simulated MPI job: N ranks placed on a cluster, run to completion.
class World {
 public:
  using Program = std::function<sim::CoTask<void>(Rank&)>;

  /// Messages up to this size use the eager protocol (SGI MPT default-ish).
  static constexpr double kEagerThreshold = 16.0 * 1024;

  World(sim::Engine& engine, machine::Network& network,
        machine::Placement placement);
  ~World();

  int size() const { return static_cast<int>(ranks_.size()); }
  sim::Engine& engine() const { return *engine_; }
  machine::Network& network() const { return *network_; }
  Rank& rank(int r);

  /// Spawns every rank's program and runs the engine to completion.
  /// Returns the simulated makespan (seconds from launch to last exit).
  double run(const Program& program);

  /// Optional event observer (see observer.hpp). The observer must
  /// outlive the run. A World constructed under a RunContext owns one
  /// product of each of its observer factories (fanning events out to all
  /// of them when there is more than one). Per-rank
  /// compute/communication span tracing goes through the engine's span
  /// sink instead (sim::Engine::set_span_sink).
  void set_observer(CommObserver* observer) { observer_ = observer; }
  CommObserver* observer() const { return observer_; }
  /// Allocates the next operation id (internal, used by Rank's hooks).
  std::uint64_t next_check_id() { return next_check_id_++; }

  /// Attaches a fault model to this job: compute bursts stretch, the
  /// network degrades (forwarded to Network::set_fault_model), and message
  /// deliveries run the retry loop. The model must outlive the World;
  /// nullptr restores clean behaviour. A World constructed under a
  /// RunContext with a fault factory owns its product and attaches it
  /// automatically.
  void set_fault_model(machine::FaultModel* model) {
    fault_model_ = model;
    network_->set_fault_model(model);
  }
  const machine::FaultModel* fault_model() const { return fault_model_; }

  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// Delivery attempts the fault model dropped.
  std::uint64_t messages_dropped() const { return messages_dropped_; }
  /// Retransmissions after a dropped attempt.
  std::uint64_t retries() const { return retries_; }
  /// Messages abandoned with retries exhausted (each leaves a receiver
  /// permanently blocked).
  std::uint64_t messages_lost() const { return messages_lost_; }

  /// One message's trip to its receiver (internal, held in the message's
  /// Envelope next to its Network::Transfer): the fault verdict, extra
  /// delay, timeout with backoff and retry around the transfer, each step
  /// a callback event. Clean, faulted and flow deliveries all take it. On
  /// delivery it fires `delivered`; delivered or lost for good, it then
  /// resumes the rendezvous sender awaiting it, if any. A lost message
  /// never fires `delivered`, so the matched receive stalls and the
  /// engine surfaces a DeadlockError.
  class Delivery {
   public:
    Delivery(World& world, sim::Trigger& delivered, int src_cpu,
             int dst_cpu, double bytes, std::uint64_t serial)
        : world_(&world),
          delivered_(&delivered),
          src_cpu_(src_cpu),
          dst_cpu_(dst_cpu),
          bytes_(bytes),
          serial_(serial) {}

    /// Sets out now; an eager send schedules this as an event.
    void depart() {
      if (set_out()) resume_sender();
    }

    /// Awaitable: sets out now and resumes the awaiter when the trip
    /// ends.
    auto trip() {
      struct Awaiter {
        Delivery& d;
        bool await_ready() const noexcept { return false; }
        bool await_suspend(std::coroutine_handle<> h) {
          d.sender_ = sim::Callback::resume(h);
          return !d.set_out();
        }
        void await_resume() const noexcept {}
      };
      return Awaiter{*this};
    }

   private:
    // Each step returns true when the trip ended inside it; the event
    // entry points then resume the sender.
    bool set_out();
    bool attempt();
    bool transmit();
    void after_delay();
    void after_backoff();
    void arrived();
    void resume_sender() {
      if (sender_) sender_();
    }

    World* world_;
    sim::Trigger* delivered_;
    int src_cpu_;
    int dst_cpu_;
    double bytes_;
    std::uint64_t serial_;  ///< the fault model's per-message key
    int attempt_ = 0;
    double wait_ = 0.0;  ///< the next loss-detection timeout
    machine::Network::Transfer transfer_;
    sim::Callback sender_;
  };

  /// Mean over ranks of time spent in communication calls. Overlapping
  /// operations (sendrecv halves, wait-all members) each count their own
  /// duration, so this can exceed wall time; it measures "time inside
  /// MPI", not the makespan share.
  double mean_comm_seconds() const;
  /// Mean over ranks of compute time.
  double mean_compute_seconds() const;
  /// Maximum over ranks of compute time (the critical path's work).
  double max_compute_seconds() const;
  /// Mean over ranks of time blocked in storage I/O.
  double mean_io_seconds() const;
  /// Maximum over ranks of time blocked in storage I/O.
  double max_io_seconds() const;

 private:
  sim::Task rank_main(Rank& r, const Program& program);

  sim::Engine* engine_;
  machine::Network* network_;
  machine::Placement placement_;
  CommObserver* observer_ = nullptr;
  std::vector<std::shared_ptr<CommObserver>> owned_observers_;  // factory products
  std::unique_ptr<ObserverFanout> fanout_;  // when several factories installed
  machine::FaultModel* fault_model_ = nullptr;
  std::shared_ptr<machine::FaultModel> fault_model_owned_;  // factory product
  RetryPolicy retry_policy_;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t messages_lost_ = 0;
  std::uint64_t next_check_id_ = 1;
  std::vector<std::unique_ptr<Rank>> ranks_;
};

struct Rank::Envelope {
  Envelope(World& world, int src_cpu, int dst_cpu, double size,
           std::uint64_t serial)
      : bytes(size),
        delivered(world.engine()),
        rts_matched(world.engine()),
        delivery(world, delivered, src_cpu, dst_cpu, size, serial) {}
  int src = 0;
  int tag = 0;
  double bytes = 0.0;
  std::vector<double> payload;
  bool eager = true;
  bool claimed = false;  // already matched to a receive
  std::uint64_t check_id = 0;  // observer op id (0 = untracked)
  sim::Trigger delivered;    // data arrived at receiver
  sim::Trigger rts_matched;  // rendezvous handshake (unused when eager)
  World::Delivery delivery;  // the message's trip, eager or rendezvous
};

}  // namespace columbia::simmpi
