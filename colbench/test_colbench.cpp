// Tests of the benchmark's own machinery: the percentile rule, the CSV
// gate, the closed loop's window, span self time, and that probe figures
// are derived from the probes' own counts.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <thread>

#include "common/table.hpp"
#include "gate.hpp"
#include "loop.hpp"
#include "probes.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace colbench {
namespace {

std::vector<double> ramp(int n) {
  std::vector<double> xs;
  for (int i = n; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  return xs;
}

TEST(Percentile, P99NeedsTenSamplesBeyondIt) {
  const Tail t = tail(ramp(1000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 1000u);
}

TEST(Percentile, FallsBackToHighestPercentileWithTenBeyond) {
  const Tail t = tail(ramp(500));  // p99 would have only 5 beyond it
  EXPECT_EQ(t.percentile, 98.0);
  EXPECT_EQ(t.value, 490.0);
  EXPECT_EQ(t.beyond, 10u);

  const Tail t25 = tail(ramp(25));
  EXPECT_EQ(t25.percentile, 60.0);
  EXPECT_EQ(t25.value, 15.0);
  EXPECT_EQ(t25.beyond, 10u);
}

TEST(Percentile, TooFewSamplesGiveTheMedian) {
  const Tail t = tail({3.0, 1.0, 9.0});
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.value, 3.0);
  EXPECT_EQ(t.samples, 3u);
  EXPECT_EQ(tail(ramp(10)).value, 5.5);
  // Up to 20 samples the percentile with 10 beyond it is not above the
  // median, so the median stands in for the tail.
  EXPECT_EQ(tail(ramp(11)).value, 6.0);
  EXPECT_EQ(tail(ramp(20)).value, 10.5);
}

TEST(Percentile, Median) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

class GateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::current_path() / "colbench_gate_test";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    columbia::Table t("Gate: test table (1)", {"CPUs", "time (s)"});
    t.add_row({64, columbia::Cell(1.25, 3)});
    t.add_row({128, columbia::Cell(0.75, 3)});
    report_.tables.push_back(t);
    write(artifact_file_name("exp", 0, t.title()), t.csv());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void write(const std::string& name, const std::string& bytes) {
    std::ofstream(dir_ / name, std::ios::binary) << bytes;
  }

  std::filesystem::path dir_;
  columbia::core::Report report_;
};

TEST_F(GateTest, CommittedBytesPass) {
  EXPECT_EQ(artifact_file_name("exp", 0, "Gate: test table (1)"),
            "exp_0_Gate__test_table__1_.csv");
  const CsvGate gate(dir_, "exp");
  EXPECT_EQ(gate.mismatches(report_), 0u);
}

TEST_F(GateTest, AlteredCsvCountsAsFailure) {
  std::string csv = report_.tables[0].csv();
  csv[csv.size() - 2] = csv[csv.size() - 2] == '5' ? '6' : '5';
  write(artifact_file_name("exp", 0, report_.tables[0].title()), csv);
  const CsvGate gate(dir_, "exp");
  std::string diff;
  EXPECT_EQ(gate.mismatches(report_, &diff), 1u);
  EXPECT_EQ(diff, "exp_0_Gate__test_table__1_.csv");
}

TEST_F(GateTest, MissingArtifactCountsAsFailure) {
  write("exp_1_Another_table.csv", "x\n1\n");
  write("exp-other_0_Unrelated.csv", "ignored\n");
  const CsvGate gate(dir_, "exp");
  EXPECT_EQ(gate.committed_files(), 2u);
  EXPECT_EQ(gate.mismatches(report_), 1u);
}

TEST(ClosedLoop, NeverExceedsItsWindow) {
  constexpr int kWindow = 4;
  constexpr std::size_t kRequests = 300;
  // A fake service: three workers complete queued requests after a short
  // random delay; every third request completes inline, like a cache hit.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<ClosedLoop::Done> queue;
  bool stop = false;
  std::atomic<int> in_service{0};
  std::atomic<int> max_in_service{0};
  auto note_start = [&] {
    const int now = ++in_service;
    int seen = max_in_service.load();
    while (now > seen && !max_in_service.compare_exchange_weak(seen, now)) {
    }
  };
  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&, w] {
      std::mt19937 rng(static_cast<unsigned>(w));
      for (;;) {
        ClosedLoop::Done done;
        {
          std::unique_lock lock(mu);
          cv.wait(lock, [&] { return stop || !queue.empty(); });
          if (queue.empty()) return;
          done = std::move(queue.front());
          queue.pop_front();
        }
        std::this_thread::sleep_for(std::chrono::microseconds(rng() % 300));
        --in_service;
        done();
      }
    });
  }
  const ClosedLoop loop(kWindow);
  const auto r = loop.run(
      [&](std::size_t index, ClosedLoop::Done done) {
        note_start();
        if (index % 3 == 0) {
          --in_service;
          done();
          return;
        }
        std::lock_guard lock(mu);
        queue.push_back(std::move(done));
        cv.notify_one();
      },
      [](std::size_t sent) { return sent < kRequests; });
  {
    std::lock_guard lock(mu);
    stop = true;
  }
  cv.notify_all();
  for (auto& w : workers) w.join();

  EXPECT_EQ(r.sent, kRequests);
  EXPECT_EQ(in_service.load(), 0);
  EXPECT_LE(r.max_outstanding, static_cast<std::size_t>(kWindow));
  EXPECT_LE(max_in_service.load(), kWindow);
  EXPECT_EQ(r.max_outstanding, static_cast<std::size_t>(kWindow));
  EXPECT_GT(r.wall_s, 0.0);
}

TEST(Tracer, SelfTimeSubtractsTheUnionOfChildren) {
  using C = Tracer::Clock;
  const C::time_point t0{};
  auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  Tracer tr(t0);
  const int parent = tr.add("parent", at(0), at(10));
  tr.add("child", at(1), at(3), parent);
  tr.add("child", at(2), at(5), parent);   // overlaps the first child
  tr.add("child", at(8), at(12), parent);  // runs past the parent's end
  for (const auto& s : tr.summarize()) {
    if (s.name == "parent") {
      EXPECT_NEAR(s.total_s, 0.010, 1e-12);
      EXPECT_NEAR(s.self_s, 0.004, 1e-12);  // 10 - [1,5] - [8,10]
    } else {
      EXPECT_EQ(s.count, 3u);
      EXPECT_NEAR(s.self_s, s.total_s, 1e-12);
    }
  }
}

void expect_own_count(const ProbeResult& p, std::uint64_t expected) {
  EXPECT_EQ(p.count, expected) << p.name;
  EXPECT_GT(p.wall_s, 0.0) << p.name;
  EXPECT_DOUBLE_EQ(p.ns_per_op(),
                   p.wall_s * 1e9 / static_cast<double>(expected))
      << p.name;
}

TEST(Probes, FiguresComeFromTheProbesOwnCounts) {
  Tracer tracer(Tracer::Clock::now());
  expect_own_count(probe_resume(8, 50, 7, &tracer), 8u * 50u);
  expect_own_count(probe_spawn(1000, nullptr), 1000u);
  expect_own_count(probe_trigger(5, 40, nullptr), 5u * 40u);
  expect_own_count(probe_resource(6, 30, nullptr), 6u * 30u);
  expect_own_count(probe_pingpong("eager", 2048.0, 10, nullptr), 2u * 10u);
  expect_own_count(probe_halo(1024.0, 2, nullptr), 252u * 6u * 2u);
  expect_own_count(probe_alltoall("a2a", 4, 2048.0, 3, 0, nullptr),
                   3u * 4u * 3u);
  expect_own_count(probe_alltoall("a2a.flow", 8, 65536.0, 1, 2, nullptr),
                   8u * 7u);
  const TransferProbe flow = probe_transfer(true, 4096.0, 1, 7, nullptr);
  expect_own_count(flow.result, 2048u);
  EXPECT_GT(flow.flows_completed, 0u);

  // The timed call is a child span of its probe.
  bool saw_run = false;
  for (const auto& s : tracer.summarize()) {
    if (s.name == "Engine::run") saw_run = s.count == 1;
  }
  EXPECT_TRUE(saw_run);
}

}  // namespace
}  // namespace colbench
