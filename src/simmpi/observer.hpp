#pragma once
/// \file observer.hpp
/// Communication-event hooks for the simulated MPI layer.
///
/// A `CommObserver` attached to a `World` (World::set_observer, or through
/// the observer factories of the installed sim::RunContext) receives one
/// callback per semantic event: operation posted / matched / completed,
/// request lifecycle, collective entry, rank exit, and end-of-run
/// finalize. Observers are pure listeners — they never interact with the
/// engine, so an attached observer cannot change simulated timing or
/// matching; reports stay byte-identical.
///
/// The concrete analyzers built on these hooks are `simcheck::Checker`
/// (src/simcheck) and `simprof::Profiler` (src/simprof); this header keeps
/// simmpi free of any dependency on them. Several observers can coexist:
/// each analyzer adds its own factory to the RunContext, and a World
/// constructed under it fans events out to all of their products
/// (ObserverFanout).

#include <cstdint>
#include <utility>
#include <vector>

namespace columbia::simmpi {

class World;

/// Collective operations, for call-sequence consistency checking.
enum class CollOp {
  Barrier,
  Bcast,
  Reduce,
  Allreduce,
  AllreduceSum,
  Alltoall,
  Allgather,
  AllgatherValues,
  AlltoallValues,
};

const char* coll_op_name(CollOp op);

/// One message eligible for a receive at its match point. More than one
/// candidate at a wildcard match means the outcome depends on arrival
/// order — a nondeterminism hazard on a real machine.
struct Candidate {
  int source = 0;
  int tag = 0;
};

/// Event listener. All methods default to no-ops so observers implement
/// only what they need. Operation ids are unique per World (sends and
/// receives share the id space); request serials are a separate space.
class CommObserver {
 public:
  virtual ~CommObserver() = default;

  /// A send posted its envelope. `rendezvous` = above the eager threshold.
  virtual void on_send_posted(std::uint64_t id, int rank, int dst, int tag,
                              double bytes, bool rendezvous) {
    (void)id, (void)rank, (void)dst, (void)tag, (void)bytes, (void)rendezvous;
  }
  /// The sender's blocking call returned (eager: after the library copy,
  /// possibly long before any receive matches the message).
  virtual void on_send_completed(std::uint64_t id) { (void)id; }

  /// A receive was posted with the given (src, tag) pattern (kAny wildcards).
  virtual void on_recv_posted(std::uint64_t id, int rank, int src, int tag) {
    (void)id, (void)rank, (void)src, (void)tag;
  }
  /// The receive claimed the message sent as op `send_id`. `eligible` lists
  /// every unclaimed pending message that matched the pattern at this
  /// moment, in queue order; eligible[0] is the claimed one.
  virtual void on_recv_matched(std::uint64_t recv_id, std::uint64_t send_id,
                               const std::vector<Candidate>& eligible) {
    (void)recv_id, (void)send_id, (void)eligible;
  }
  /// The receive's message finished arriving (transfer + latency done, or
  /// it was already waiting in the library buffer); fires just before the
  /// receiver-side software costs, so `completed - delivered` is the local
  /// matching/copy time and `delivered` bounds the wire wait.
  virtual void on_recv_delivered(std::uint64_t id) { (void)id; }
  /// The receive delivered its message to the caller.
  virtual void on_recv_completed(std::uint64_t id) { (void)id; }

  /// isend/irecv created a request. Requests must be retired with
  /// wait/wait_all; `on_request_waited` fires when that happens.
  virtual void on_request_posted(int rank, std::uint64_t serial, bool is_send,
                                 int peer, int tag) {
    (void)rank, (void)serial, (void)is_send, (void)peer, (void)tag;
  }
  virtual void on_request_waited(int rank, std::uint64_t serial) {
    (void)rank, (void)serial;
  }

  /// A rank entered a collective. `root` is -1 for rootless collectives;
  /// `bytes` is -1 when per-rank sizes may legitimately differ
  /// (allgather_values / alltoall_values).
  virtual void on_collective(int rank, CollOp op, int root, double bytes) {
    (void)rank, (void)op, (void)root, (void)bytes;
  }

  /// A rank's program returned.
  virtual void on_rank_finished(int rank) { (void)rank; }

  /// The run drained normally (every process finished). Not called on
  /// deadlock — the engine's deadlock hook fires instead.
  virtual void on_finalize() {}
};

/// Fans every callback out to a list of child observers, in registration
/// order. A World constructed under a RunContext with several observer
/// factories owns one of these wrapping all of their products, so
/// `--check` and `--profile` compose. Children are borrowed, not owned.
class ObserverFanout final : public CommObserver {
 public:
  explicit ObserverFanout(std::vector<CommObserver*> children)
      : children_(std::move(children)) {}

  void on_send_posted(std::uint64_t id, int rank, int dst, int tag,
                      double bytes, bool rendezvous) override;
  void on_send_completed(std::uint64_t id) override;
  void on_recv_posted(std::uint64_t id, int rank, int src, int tag) override;
  void on_recv_matched(std::uint64_t recv_id, std::uint64_t send_id,
                       const std::vector<Candidate>& eligible) override;
  void on_recv_delivered(std::uint64_t id) override;
  void on_recv_completed(std::uint64_t id) override;
  void on_request_posted(int rank, std::uint64_t serial, bool is_send,
                         int peer, int tag) override;
  void on_request_waited(int rank, std::uint64_t serial) override;
  void on_collective(int rank, CollOp op, int root, double bytes) override;
  void on_rank_finished(int rank) override;
  void on_finalize() override;

 private:
  std::vector<CommObserver*> children_;
};

}  // namespace columbia::simmpi
