#pragma once
/// \file run_context.hpp
/// `RunContext` — what one run arms, installed per host thread.
///
/// A run (one core::Evaluator::evaluate, one test body) builds a
/// RunContext value and installs it with a `RunScope` on the thread that
/// drives it. The construction sites that used to read process-global
/// slots read the installed context instead:
///   * machine::Network and hpcc::Beff default to its `transport`;
///   * simmpi::World owns one product of each `world_observers` factory
///     (simcheck, simprof) and a `world_faults` model (simfault);
///   * simomp::OmpModel::region_time calls every `region_observers` entry
///     (simcheck validates regions, simprof counts them);
///   * sim::Engine::run adds the events it processed to `events`.
/// The analyzers' arming functions (simcheck::arm_check,
/// simprof::arm_profile, simfault::arm_faults) install factories whose
/// products publish into a sink the factory shares, so a context owns
/// everything its run produced. Runs under different contexts share
/// nothing and may overlap on any threads.
///
/// Threading: the installed pointer is thread_local, the engine's own
/// current-engine idiom. core::run_scenarios re-installs the caller's
/// context around each scenario closure on each pool worker, so a
/// parallel sweep is armed exactly like a sequential one. Arm a context
/// before installing it; while installed, only `events` and the sinks
/// change, and factories and observers may be called from several
/// threads at once.
///
/// Layering: the members are typed in the vocabulary of the layers that
/// read them. This header only forward-declares those types, so the
/// engine library depends on nothing above it.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace columbia {
namespace machine {
enum class TransportModel;
class FaultModel;
}  // namespace machine
namespace simmpi {
class World;
class CommObserver;
}  // namespace simmpi
namespace simomp {
struct RegionSpec;
}  // namespace simomp
}  // namespace columbia

namespace columbia::sim {

/// A thread-safe total of per-World results: `merge` folds one part in
/// under a mutex, and since every T::merge is commutative, the order in
/// which Worlds finish on pool threads cannot change the total. `take`
/// moves the total out and resets it.
template <typename T>
class Sink {
 public:
  void merge(const T& part) {
    std::lock_guard<std::mutex> lock(mu_);
    total_.merge(part);
  }
  T take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(total_, T{});
  }

 private:
  std::mutex mu_;
  T total_{};
};

struct RunContext {
  using ObserverFactory =
      std::function<std::shared_ptr<simmpi::CommObserver>(simmpi::World&)>;
  /// Single slot: two fault models cannot compose on one network. A null
  /// product leaves the World clean.
  using FaultFactory =
      std::function<std::shared_ptr<machine::FaultModel>(simmpi::World&)>;
  /// Called at every region_time() evaluation, before argument
  /// validation, so it also sees specs the contracts reject.
  using RegionObserver =
      std::function<void(const simomp::RegionSpec&, int nthreads)>;

  /// Backend of Networks built without an explicit one. Value-initialized
  /// to machine::TransportModel::Event.
  machine::TransportModel transport{};
  std::vector<ObserverFactory> world_observers;
  FaultFactory world_faults;
  std::vector<RegionObserver> region_observers;
  /// Engine events processed under this context, on any thread.
  std::atomic<std::uint64_t> events{0};
};

/// The context installed on this thread, or nullptr.
RunContext* current_run_context();

/// Installs a context on this thread for the scope's lifetime and
/// restores the previous one on every exit path, exceptions included, so
/// a pool worker never carries one job's context into the next. nullptr
/// installs none.
class RunScope {
 public:
  explicit RunScope(RunContext* ctx);
  explicit RunScope(RunContext& ctx) : RunScope(&ctx) {}
  ~RunScope();
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

 private:
  RunContext* prev_;
};

}  // namespace columbia::sim
