// Unit tests for the discrete-event engine: time ordering (including
// same-time and cancellable events, callbacks among coroutine resumes),
// coroutine lifecycles, nested CoTask value/exception propagation,
// when_all joins, triggers, contended resources (callback and coroutine
// waiters), barriers, deadlock detection, and determinism.

#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "sim/barrier.hpp"
#include "sim/engine.hpp"
#include "sim/join.hpp"
#include "sim/resource.hpp"
#include "sim/run_context.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"
#include "sim/trigger.hpp"

namespace columbia::sim {
namespace {

Task delayer(Engine& eng, std::vector<double>& log, double dt) {
  co_await eng.delay(dt);
  log.push_back(eng.now());
}

TEST(Engine, DelaysFireInTimeOrder) {
  Engine eng;
  std::vector<double> log;
  eng.spawn(delayer(eng, log, 3.0));
  eng.spawn(delayer(eng, log, 1.0));
  eng.spawn(delayer(eng, log, 2.0));
  eng.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_DOUBLE_EQ(log[0], 1.0);
  EXPECT_DOUBLE_EQ(log[1], 2.0);
  EXPECT_DOUBLE_EQ(log[2], 3.0);
  EXPECT_EQ(eng.live_tasks(), 0u);
}

TEST(Engine, TiesBreakInSpawnOrder) {
  Engine eng;
  std::vector<int> order;
  auto tagger = [](Engine& e, std::vector<int>& ord, int id) -> Task {
    co_await e.delay(1.0);
    ord.push_back(id);
  };
  for (int i = 0; i < 8; ++i) eng.spawn(tagger(eng, order, i));
  eng.run();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, SequentialDelaysAccumulate) {
  Engine eng;
  double final_time = -1.0;
  auto prog = [](Engine& e, double& t) -> Task {
    co_await e.delay(0.5);
    co_await e.delay(0.25);
    co_await e.delay(0.25);
    t = e.now();
  };
  eng.spawn(prog(eng, final_time));
  eng.run();
  EXPECT_DOUBLE_EQ(final_time, 1.0);
}

TEST(Engine, SchedulingInPastThrows) {
  Engine eng;
  auto prog = [](Engine& e) -> Task {
    co_await e.delay(1.0);
    e.schedule_at(0.5, std::noop_coroutine());  // in the past
  };
  eng.spawn(prog(eng));
  EXPECT_THROW(eng.run(), ContractError);
}

CoTask<int> child_value(Engine& eng) {
  co_await eng.delay(2.0);
  co_return 17;
}

CoTask<int> middle(Engine& eng) {
  const int v = co_await child_value(eng);
  co_await eng.delay(1.0);
  co_return v + 1;
}

TEST(Engine, NestedCoTaskPropagatesValuesAndTime) {
  Engine eng;
  int result = 0;
  double t_end = 0.0;
  auto prog = [](Engine& e, int& r, double& t) -> Task {
    r = co_await middle(e);
    t = e.now();
  };
  eng.spawn(prog(eng, result, t_end));
  eng.run();
  EXPECT_EQ(result, 18);
  EXPECT_DOUBLE_EQ(t_end, 3.0);
}

CoTask<void> throwing_child(Engine& eng) {
  co_await eng.delay(0.1);
  throw std::runtime_error("child failed");
}

TEST(Engine, ChildExceptionPropagatesToAwaiter) {
  Engine eng;
  std::string caught;
  auto prog = [](Engine& e, std::string& msg) -> Task {
    try {
      co_await throwing_child(e);
    } catch (const std::runtime_error& ex) {
      msg = ex.what();
    }
  };
  eng.spawn(prog(eng, caught));
  eng.run();
  EXPECT_EQ(caught, "child failed");
}

TEST(Engine, UncaughtTaskExceptionSurfacesFromRun) {
  Engine eng;
  auto prog = [](Engine& e) -> Task {
    co_await e.delay(0.1);
    throw std::runtime_error("boom");
  };
  eng.spawn(prog(eng));
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Trigger, WakesAllWaitersAtFireTime) {
  Engine eng;
  Trigger trig(eng);
  std::vector<double> woke;
  auto waiter = [](Engine& e, Trigger& t, std::vector<double>& w) -> Task {
    co_await t.wait();
    w.push_back(e.now());
  };
  auto firer = [](Engine& e, Trigger& t) -> Task {
    co_await e.delay(5.0);
    t.fire();
  };
  eng.spawn(waiter(eng, trig, woke));
  eng.spawn(waiter(eng, trig, woke));
  eng.spawn(firer(eng, trig));
  eng.run();
  ASSERT_EQ(woke.size(), 2u);
  EXPECT_DOUBLE_EQ(woke[0], 5.0);
  EXPECT_DOUBLE_EQ(woke[1], 5.0);
}

TEST(Trigger, ResumesWaitersInWaitOrder) {
  // Waiter i waits at t = 3 - i, so the wait order (2, 1, 0) is the
  // reverse of the spawn order.
  Engine eng;
  Trigger trig(eng);
  std::vector<int> order;
  auto waiter = [](Engine& e, Trigger& t, std::vector<int>& ord,
                   int id) -> Task {
    co_await e.delay(3.0 - id);
    co_await t.wait();
    ord.push_back(id);
  };
  auto firer = [](Engine& e, Trigger& t) -> Task {
    co_await e.delay(5.0);
    t.fire();
  };
  for (int i = 0; i < 3; ++i) eng.spawn(waiter(eng, trig, order, i));
  eng.spawn(firer(eng, trig));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
}

TEST(Trigger, WaitAfterFireDoesNotSuspend) {
  Engine eng;
  Trigger trig(eng);
  double woke = -1.0;
  auto late = [](Engine& e, Trigger& t, double& w) -> Task {
    co_await e.delay(10.0);
    co_await t.wait();  // already fired at t=1
    w = e.now();
  };
  auto firer = [](Engine& e, Trigger& t) -> Task {
    co_await e.delay(1.0);
    t.fire();
  };
  eng.spawn(late(eng, trig, woke));
  eng.spawn(firer(eng, trig));
  eng.run();
  EXPECT_DOUBLE_EQ(woke, 10.0);
}

TEST(Resource, SerializesWhenOverCapacity) {
  Engine eng;
  Resource res(eng, 1);
  std::vector<double> done;
  auto user = [](Engine& e, Resource& r, std::vector<double>& d) -> Task {
    co_await r.use_for(1.0);
    d.push_back(e.now());
  };
  for (int i = 0; i < 3; ++i) eng.spawn(user(eng, res, done));
  eng.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(done[1], 2.0);
  EXPECT_DOUBLE_EQ(done[2], 3.0);
  EXPECT_EQ(res.available(), 1);
}

TEST(Resource, ParallelWithinCapacity) {
  Engine eng;
  Resource res(eng, 4);
  std::vector<double> done;
  auto user = [](Engine& e, Resource& r, std::vector<double>& d) -> Task {
    co_await r.use_for(1.0);
    d.push_back(e.now());
  };
  for (int i = 0; i < 4; ++i) eng.spawn(user(eng, res, done));
  eng.run();
  for (double t : done) EXPECT_DOUBLE_EQ(t, 1.0);
}

TEST(Resource, FifoNoOvertaking) {
  Engine eng;
  Resource res(eng, 2);
  std::vector<int> order;
  // First user takes both units; a big request (2) queues, then a small (1).
  // FIFO means the small request must NOT overtake the big one.
  auto first = [](Engine& e, Resource& r, std::vector<int>& o) -> Task {
    co_await r.acquire(2);
    co_await e.delay(1.0);
    r.release(2);
    o.push_back(0);
  };
  auto big = [](Engine& e, Resource& r, std::vector<int>& o) -> Task {
    co_await e.delay(0.1);
    co_await r.acquire(2);
    o.push_back(1);
    co_await e.delay(1.0);
    r.release(2);
  };
  auto small = [](Engine& e, Resource& r, std::vector<int>& o) -> Task {
    co_await e.delay(0.2);
    co_await r.acquire(1);
    o.push_back(2);
    r.release(1);
  };
  eng.spawn(first(eng, res, order));
  eng.spawn(big(eng, res, order));
  eng.spawn(small(eng, res, order));
  eng.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);  // big granted before small despite arriving first
  EXPECT_EQ(order[2], 2);
}

TEST(Resource, OverCapacityRequestThrows) {
  Engine eng;
  Resource res(eng, 2);
  EXPECT_THROW(res.acquire(3), ContractError);
}

TEST(Barrier, ReleasesAllAtLastArrival) {
  Engine eng;
  Barrier bar(eng, 3);
  std::vector<double> times;
  auto member = [](Engine& e, Barrier& b, std::vector<double>& ts,
                   double dt) -> Task {
    co_await e.delay(dt);
    co_await b.arrive_and_wait();
    ts.push_back(e.now());
  };
  eng.spawn(member(eng, bar, times, 1.0));
  eng.spawn(member(eng, bar, times, 2.0));
  eng.spawn(member(eng, bar, times, 3.0));
  eng.run();
  ASSERT_EQ(times.size(), 3u);
  for (double t : times) EXPECT_DOUBLE_EQ(t, 3.0);
  EXPECT_EQ(bar.generation(), 1u);
}

TEST(Barrier, ReusableAcrossGenerations) {
  Engine eng;
  Barrier bar(eng, 2);
  int rounds_done = 0;
  auto member = [](Engine& e, Barrier& b, int& done, double dt) -> Task {
    for (int round = 0; round < 5; ++round) {
      co_await e.delay(dt);
      co_await b.arrive_and_wait();
    }
    ++done;
  };
  eng.spawn(member(eng, bar, rounds_done, 1.0));
  eng.spawn(member(eng, bar, rounds_done, 2.5));
  eng.run();
  EXPECT_EQ(rounds_done, 2);
  EXPECT_EQ(bar.generation(), 5u);
  EXPECT_DOUBLE_EQ(eng.now(), 12.5);  // slowest member dominates each round
}

TEST(Engine, DeadlockDetected) {
  Engine eng;
  Trigger never(eng);
  auto stuck = [](Trigger& t) -> Task { co_await t.wait(); };
  eng.spawn(stuck(never));
  EXPECT_THROW(eng.run(), DeadlockError);
}

TEST(Engine, DeterministicTimelineAcrossRuns) {
  auto run_once = []() {
    Engine eng;
    Resource res(eng, 3);
    Barrier bar(eng, 5);
    std::vector<double> times;
    auto prog = [](Engine& e, Resource& r, Barrier& b,
                   std::vector<double>& ts, int id) -> Task {
      co_await e.delay(0.1 * id);
      co_await r.use_for(0.7);
      co_await b.arrive_and_wait();
      ts.push_back(e.now());
    };
    for (int i = 0; i < 5; ++i) eng.spawn(prog(eng, res, bar, times, i));
    eng.run();
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Trace, SpanSinkSeamDeliversSpansAndNames) {
  struct Collector final : SpanSink {
    std::vector<Span> spans;
    void on_span(const Span& s) override { spans.push_back(s); }
  } sink;
  Engine eng;
  EXPECT_EQ(eng.span_sink(), nullptr);
  eng.set_span_sink(&sink);
  ASSERT_EQ(eng.span_sink(), &sink);
  eng.span_sink()->on_span({7, SpanKind::Io, 1.0, 2.5});
  ASSERT_EQ(sink.spans.size(), 1u);
  EXPECT_EQ(sink.spans[0].actor, 7);
  EXPECT_EQ(sink.spans[0].kind, SpanKind::Io);
  EXPECT_DOUBLE_EQ(sink.spans[0].duration(), 1.5);
  EXPECT_EQ(to_string(SpanKind::Compute), "compute");
  EXPECT_EQ(to_string(SpanKind::Communication), "comm");
  EXPECT_EQ(to_string(SpanKind::Io), "io");
  EXPECT_EQ(to_string(SpanKind::Wire), "wire");
  eng.set_span_sink(nullptr);
  EXPECT_EQ(eng.span_sink(), nullptr);
}

TEST(Engine, ManyTasksScale) {
  Engine eng;
  Barrier bar(eng, 2048);
  auto member = [](Engine& e, Barrier& b, int id) -> Task {
    co_await e.delay(1e-6 * id);
    co_await b.arrive_and_wait();
  };
  for (int i = 0; i < 2048; ++i) eng.spawn(member(eng, bar, i));
  eng.run();
  EXPECT_EQ(eng.live_tasks(), 0u);
  EXPECT_NEAR(eng.now(), 1e-6 * 2047, 1e-12);
}

TEST(Engine, ManyShortLivedTasksReapPromptly) {
  // Regression test for the old O(n·m) reap: a spawner that churns
  // through ~10k tasks, each finishing at a distinct time while many
  // peers are still live, so every reap used to linear-scan the owned
  // list per finished handle. With swap-remove reaping this completes
  // in well under a second; before the fix it was quadratic.
  Engine eng;
  constexpr int kTasks = 10000;
  int finished = 0;
  auto shortlived = [](Engine& e, int& done, int id) -> Task {
    co_await e.delay(1e-6 * (1 + id % 97));
    ++done;
  };
  auto spawner = [&](Engine& e) -> Task {
    for (int i = 0; i < kTasks; ++i) {
      e.spawn(shortlived(e, finished, i));
      if (i % 64 == 0) co_await e.delay(1e-7);
    }
  };
  eng.spawn(spawner(eng));
  eng.run();
  EXPECT_EQ(finished, kTasks);
  EXPECT_EQ(eng.live_tasks(), 0u);
}

// --- ordering at one instant: events queued for t before t, events
// scheduled during t, and cancellable events --------------------------------

TEST(Engine, EventsQueuedForTRunBeforeEventsScheduledDuringT) {
  // "a" and "b" were queued for t = 1 at t = 0. "a" fires the trigger at
  // t = 1 and then yields for zero time; both wake-ups are scheduled
  // during t = 1, so they run after "b", in the order they were made.
  Engine eng;
  Trigger trig(eng);
  std::vector<std::string> order;
  auto first = [](Engine& e, Trigger& t,
                  std::vector<std::string>& ord) -> Task {
    co_await e.delay(1.0);
    ord.push_back("a");
    t.fire();
    co_await e.delay(0.0);
    ord.push_back("a-after-yield");
  };
  auto second = [](Engine& e, std::vector<std::string>& ord) -> Task {
    co_await e.delay(1.0);
    ord.push_back("b");
  };
  auto waiter = [](Trigger& t, std::vector<std::string>& ord) -> Task {
    co_await t.wait();
    ord.push_back("woken");
  };
  eng.spawn(first(eng, trig, order));
  eng.spawn(second(eng, order));
  eng.spawn(waiter(trig, order));
  eng.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "woken",
                                             "a-after-yield"}));
  EXPECT_DOUBLE_EQ(eng.now(), 1.0);
}

/// Where a coroutine parked on a cancellable event, and its token.
struct Parked {
  std::coroutine_handle<> handle;
  std::uint64_t token = 0;
};

/// Awaitable: parks the awaiter on a cancellable event at time `t`.
struct ParkCancellable {
  Engine& engine;
  Time t;
  Parked& parked;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    parked.handle = h;
    parked.token = engine.schedule_cancellable_at(t, Callback::resume(h));
  }
  void await_resume() const noexcept {}
};

TEST(Engine, CancellableEventAtNowRunsInSeqOrder) {
  // At t = 1 three tasks each schedule one more event for t = 1, in spawn
  // order: a zero delay, a cancellable event, a zero delay. They resume
  // in that order.
  Engine eng;
  std::vector<std::string> order;
  Parked parked;
  auto yielder = [](Engine& e, std::vector<std::string>& ord,
                    std::string name) -> Task {
    co_await e.delay(1.0);
    co_await e.delay(0.0);
    ord.push_back(name);
  };
  auto cancellable = [](Engine& e, Parked& p,
                        std::vector<std::string>& ord) -> Task {
    co_await e.delay(1.0);
    co_await ParkCancellable{e, e.now(), p};
    ord.push_back("cancellable");
  };
  eng.spawn(yielder(eng, order, "before"));
  eng.spawn(cancellable(eng, parked, order));
  eng.spawn(yielder(eng, order, "after"));
  eng.run();
  EXPECT_EQ(order, (std::vector<std::string>{"before", "cancellable",
                                             "after"}));
}

TEST(Engine, CancelledEventLeavesNoTrace) {
  // The victim parks on a cancellable event at t = 5; at t = 1 the
  // canceller revokes it and reschedules the victim for t = 2, the way the
  // flow solver retargets its wake-up.
  Engine eng;
  std::vector<double> resumed;
  Parked parked;
  auto victim = [](Engine& e, Parked& p, std::vector<double>& log) -> Task {
    co_await ParkCancellable{e, 5.0, p};
    log.push_back(e.now());
  };
  auto canceller = [](Engine& e, Parked& p) -> Task {
    co_await e.delay(1.0);
    e.cancel_scheduled(p.token);
    e.schedule_at(2.0, p.handle);
  };
  eng.spawn(victim(eng, parked, resumed));
  eng.spawn(canceller(eng, parked));
  eng.run();
  EXPECT_EQ(resumed, (std::vector<double>{2.0}));
  EXPECT_DOUBLE_EQ(eng.now(), 2.0);
  // Two spawns, the canceller's wake at 1 and the victim's at 2; the
  // revoked event at 5 does not count.
  EXPECT_EQ(eng.events_processed(), 4u);
  EXPECT_EQ(eng.live_tasks(), 0u);
}

// --- callback events, mixed waiters and when_all children -------------------

/// A callback target: logs its name when an event calls it.
struct Step {
  std::vector<std::string>* log;
  std::string name;
  void run() { log->push_back(name); }
};

/// Awaitable: suspends and leaves the handle in `slot` for someone else
/// to schedule.
struct Park {
  std::coroutine_handle<>& slot;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { slot = h; }
  void await_resume() const noexcept {}
};

Task parked(std::coroutine_handle<>& slot, std::vector<std::string>& log,
            std::string name) {
  co_await Park{slot};
  log.push_back(std::move(name));
}

struct MixedSchedule {
  std::vector<std::coroutine_handle<>> resumes;  // lane, heap, cancellable
  std::vector<Step> steps;  // lane x2, heap x2, cancellable
};

Task schedule_mixed(Engine& e, MixedSchedule& m) {
  co_await e.delay(1.0);
  auto step = [&m](std::size_t i) {
    return Callback::method<&Step::run>(&m.steps[i]);
  };
  // Same instant: the lane.
  e.schedule_at(1.0, step(0));
  e.schedule_at(1.0, m.resumes[0]);
  e.schedule_at(1.0, step(1));
  // Later instant: the heap, with cancellable events among the rest.
  e.schedule_at(2.0, m.resumes[1]);
  e.schedule_at(2.0, step(2));
  (void)e.schedule_cancellable_at(2.0, step(4));
  (void)e.schedule_cancellable_at(2.0, Callback::resume(m.resumes[2]));
  e.schedule_at(2.0, step(3));
}

TEST(Callback, RunsInSeqOrderWithCoroutineResumes) {
  Engine eng;
  std::vector<std::string> log;
  MixedSchedule m;
  m.resumes.resize(3);
  m.steps = {{&log, "lane-callback-1"},
             {&log, "lane-callback-2"},
             {&log, "heap-callback-1"},
             {&log, "heap-callback-2"},
             {&log, "cancellable-callback"}};
  eng.spawn(parked(m.resumes[0], log, "lane-resume"));
  eng.spawn(parked(m.resumes[1], log, "heap-resume"));
  eng.spawn(parked(m.resumes[2], log, "cancellable-resume"));
  eng.spawn(schedule_mixed(eng, m));
  eng.run();
  EXPECT_EQ(log, (std::vector<std::string>{
                     "lane-callback-1", "lane-resume", "lane-callback-2",
                     "heap-resume", "heap-callback-1", "cancellable-callback",
                     "cancellable-resume", "heap-callback-2"}));
  // Three spawns parked, the scheduler's spawn and wake, and eight
  // scheduled events.
  EXPECT_EQ(eng.events_processed(), 13u);
  EXPECT_EQ(eng.live_tasks(), 0u);
}

/// A callback waiter on a Resource: logs its grant time, then releases.
struct GrantLogger {
  Engine* engine;
  Resource* resource;
  std::vector<std::string>* log;
  std::string name;
  void granted() {
    log->push_back(name + "@" + std::to_string(engine->now()).substr(0, 3));
    resource->release();
  }
};

Task hold_for(Engine& e, Resource& r, std::vector<std::string>& log,
              std::string name, double dt) {
  co_await r.acquire();
  log.push_back(name + "@" + std::to_string(e.now()).substr(0, 3));
  co_await e.delay(dt);
  r.release();
}

Task enqueue(Resource& r, GrantLogger& waiter, bool& granted_at_once) {
  granted_at_once = r.acquire(1, Callback::method<&GrantLogger::granted>(
                                     &waiter));
  co_return;
}

TEST(Resource, GrantsMixedCallbackAndCoroutineWaitersFifo) {
  Engine eng;
  Resource res(eng, 1);
  std::vector<std::string> log;
  GrantLogger b{&eng, &res, &log, "b"};
  GrantLogger d{&eng, &res, &log, "d"};
  bool b_at_once = true;
  bool d_at_once = true;
  eng.spawn(hold_for(eng, res, log, "holder", 1.0));
  eng.spawn(hold_for(eng, res, log, "a", 1.0));
  eng.spawn(enqueue(res, b, b_at_once));
  eng.spawn(hold_for(eng, res, log, "c", 1.0));
  eng.spawn(enqueue(res, d, d_at_once));
  eng.run();
  EXPECT_FALSE(b_at_once);
  EXPECT_FALSE(d_at_once);
  EXPECT_EQ(log, (std::vector<std::string>{"holder@0.0", "a@1.0", "b@2.0",
                                           "c@2.0", "d@3.0"}));
  EXPECT_EQ(res.available(), 1);
  // Free with nobody queued: granted at once, no event.
  GrantLogger e{&eng, &res, &log, "e"};
  EXPECT_TRUE(res.acquire(1, Callback::method<&GrantLogger::granted>(&e)));
  EXPECT_EQ(res.available(), 0);
}

CoTask<void> wait_then_throw(Engine& e, double dt) {
  co_await e.delay(dt);
  throw std::runtime_error("child failed");
}

CoTask<void> wait_for(Engine& e, double dt) { co_await e.delay(dt); }

Task join_failing(Engine& e, bool& joined) {
  std::vector<CoTask<void>> children;
  children.push_back(wait_for(e, 2.0));
  children.push_back(wait_then_throw(e, 1.0));
  co_await when_all(e, std::move(children));
  joined = true;
}

TEST(WhenAll, ChildExceptionSurfacesFromRun) {
  Engine eng;
  bool joined = false;
  eng.spawn(join_failing(eng, joined));
  EXPECT_THROW(eng.run(), std::runtime_error);
  // Right after the failing child's event; the sibling is still waiting
  // and is destroyed with the engine.
  EXPECT_DOUBLE_EQ(eng.now(), 1.0);
  EXPECT_FALSE(joined);
}

/// Counts destructions of the frame-held copy (moved-from copies do not
/// count).
struct Counted {
  int* destroyed;
  explicit Counted(int& d) : destroyed(&d) {}
  Counted(Counted&& other) noexcept
      : destroyed(std::exchange(other.destroyed, nullptr)) {}
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  Counted& operator=(Counted&&) = delete;
  ~Counted() {
    if (destroyed != nullptr) ++*destroyed;
  }
};

CoTask<void> counted_child(Engine& e, double dt,
                           [[maybe_unused]] Counted frame_local) {
  co_await e.delay(dt);
}

CoTask<int> last_child(Engine& e, double dt, const int& destroyed,
                       int& seen) {
  co_await e.delay(dt);
  seen = destroyed;
  co_return 7;
}

Task join_two(Engine& e, int& destroyed, int& seen) {
  co_await when_all(e, counted_child(e, 1.0, Counted(destroyed)),
                    last_child(e, 2.0, destroyed, seen));
}

TEST(WhenAll, FreesAFinishedChildBeforeItsLastSiblingFinishes) {
  Engine eng;
  int destroyed = 0;
  int seen = -1;
  eng.spawn(join_two(eng, destroyed, seen));
  eng.run();
  EXPECT_EQ(seen, 1) << "the first child's frame outlived its event";
  EXPECT_EQ(destroyed, 1);
  EXPECT_DOUBLE_EQ(eng.now(), 2.0);
  EXPECT_EQ(eng.live_tasks(), 0u);
}

TEST(Engine, EventAccountingTracksRuns) {
  const std::uint64_t global_before = total_events_processed();
  Engine eng;
  std::vector<double> log;
  eng.spawn(delayer(eng, log, 1.0));
  eng.spawn(delayer(eng, log, 2.0));
  eng.run();
  EXPECT_GE(eng.events_processed(), 2u);
  EXPECT_GE(eng.run_wall_seconds(), 0.0);
  EXPECT_GE(eng.events_per_second(), 0.0);
  // The process-wide counter accumulates every engine's events.
  EXPECT_GE(total_events_processed() - global_before, eng.events_processed());
}

TEST(RunContext, EngineRunCountsIntoTheInstalledContextOnly) {
  RunContext outer;
  RunContext inner;
  std::vector<double> log;
  Engine a;
  a.spawn(delayer(a, log, 1.0));
  Engine b;
  b.spawn(delayer(b, log, 1.0));
  b.spawn(delayer(b, log, 2.0));
  {
    const RunScope outer_scope(outer);
    a.run();
    {
      const RunScope inner_scope(inner);
      b.run();
    }
  }
  EXPECT_EQ(outer.events.load(), a.events_processed());
  EXPECT_EQ(inner.events.load(), b.events_processed());
}

TEST(RunContext, ScopeRestoresThePreviousContextOnEveryExitPath) {
  EXPECT_EQ(current_run_context(), nullptr);
  RunContext outer;
  RunContext inner;
  {
    const RunScope outer_scope(outer);
    EXPECT_EQ(current_run_context(), &outer);
    try {
      const RunScope inner_scope(inner);
      EXPECT_EQ(current_run_context(), &inner);
      throw std::runtime_error("unwind");
    } catch (const std::runtime_error&) {
    }
    EXPECT_EQ(current_run_context(), &outer);
    {
      const RunScope none(nullptr);
      EXPECT_EQ(current_run_context(), nullptr);
    }
    EXPECT_EQ(current_run_context(), &outer);
  }
  EXPECT_EQ(current_run_context(), nullptr);
}

}  // namespace
}  // namespace columbia::sim
