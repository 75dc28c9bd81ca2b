// Tests for the characterization harness: registry completeness (every
// paper artifact covered), report rendering, the report/artifact writer,
// and spot-checks that the fast drivers produce the paper's qualitative
// results end-to-end.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>

#include "core/experiment.hpp"

namespace columbia::core {
namespace {

TEST(Registry, CoversEveryPaperArtifact) {
  // The evaluation section has 6 tables (1-6) and 6 result figures
  // (5-11 minus the photographs 1-4), plus the §4.2 stride study: 13
  // artifacts the registry must reproduce.
  const std::set<std::string> expected{
      "table1", "table2", "table3", "table4", "table5", "table6",
      "fig5",   "fig6",   "fig7",   "fig8",   "fig9",   "fig10",
      "fig11",  "sec42"};
  std::set<std::string> have;
  for (const auto& e : experiment_registry()) {
    if (e.id.rfind("ablation-", 0) != 0 && e.id.rfind("ext-", 0) != 0) {
      have.insert(e.id);
    }
  }
  EXPECT_EQ(have, expected);
  EXPECT_EQ(paper_artifact_count(), 14);
}

// Ids name output files (CSVs and profile artifacts) as they are, so they
// stay within [a-z0-9-].
TEST(Registry, IdsAreUniqueAndRunnable) {
  std::set<std::string> seen;
  for (const auto& e : experiment_registry()) {
    EXPECT_TRUE(seen.insert(e.id).second) << "duplicate id " << e.id;
    EXPECT_FALSE(e.id.empty());
    EXPECT_EQ(e.id.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789-"),
              std::string::npos)
        << e.id;
    EXPECT_TRUE(static_cast<bool>(e.run_exec)) << e.id;
    EXPECT_FALSE(e.paper_ref.empty()) << e.id;
  }
}

TEST(Registry, FindExperiment) {
  EXPECT_NE(find_experiment("table5"), nullptr);
  EXPECT_EQ(find_experiment("table99"), nullptr);
  EXPECT_EQ(find_experiment("fig11")->paper_ref, "Sec. 4.6.2, Fig. 11");
}

TEST(Writer, FailsNamingTheFileWhenItsParentIsARegularFile) {
  const auto blocker = std::filesystem::path(testing::TempDir()) /
                       ("test_core_blocker." + std::to_string(::getpid()));
  std::ofstream(blocker) << "not a directory\n";
  std::string error;
  EXPECT_FALSE(write_report_csvs(table1_node_characteristics(), "table1",
                                 blocker, error));
  EXPECT_NE(error.find((blocker / "table1_0_").string()), std::string::npos)
      << error;
  const auto profile = blocker / "table1.profile.json";
  EXPECT_FALSE(write_file(profile, "{}\n", error));
  EXPECT_EQ(error, "cannot write " + profile.string());
  std::filesystem::remove(blocker);
}

TEST(Drivers, Table1RendersNodeCharacteristics) {
  const auto report = table1_node_characteristics();
  ASSERT_EQ(report.tables.size(), 1u);
  const auto text = report.render();
  EXPECT_NE(text.find("NUMAlink4"), std::string::npos);
  EXPECT_NE(text.find("3.28"), std::string::npos);  // BX2b Tflop/s
}

TEST(Drivers, Sec42StrideShowsTriadRatio) {
  const auto report = sec42_cpu_stride();
  ASSERT_EQ(report.tables.size(), 1u);
  // Row 2 col 2: the spread/dense Triad ratio, ~1.9 (paper §4.2).
  const double ratio = std::stod(report.tables[0].at(2, 2));
  EXPECT_NEAR(ratio, 1.9, 0.15);
}

TEST(Drivers, Table2ShowsBx2bAdvantage) {
  const auto report = table2_ins3d();
  ASSERT_EQ(report.tables.size(), 1u);
  const auto& t = report.tables[0];
  ASSERT_EQ(t.num_rows(), 7u);
  // Every 36-group row's ratio column lands near 1.5.
  for (std::size_t row = 1; row < t.num_rows(); ++row) {
    const double ratio = std::stod(t.at(row, 3));
    EXPECT_GT(ratio, 1.35) << "row " << row;
    EXPECT_LT(ratio, 1.85) << "row " << row;
  }
}

TEST(Drivers, AblationGroupingShowsConnectivityWin) {
  const auto report = ablation_grouping_strategies();
  const auto& t = report.tables[0];
  for (std::size_t row = 0; row < t.num_rows(); ++row) {
    const double smart_internal = std::stod(t.at(row, 2));
    const double naive_internal = std::stod(t.at(row, 4));
    EXPECT_GT(smart_internal, naive_internal) << "row " << row;
  }
}

TEST(Drivers, AblationAlltoallScheduleTradeoff) {
  const auto report = ablation_alltoall_algorithms();
  const auto& t = report.tables[0];
  ASSERT_EQ(t.num_rows(), 3u);
  // 8-byte messages: the flood overlaps round trips and wins clearly.
  EXPECT_LT(std::stod(t.at(0, 3)), 0.8);
  // 256 KiB messages: the unscheduled flood convoys on the shared SHUB
  // ports (head-of-line blocking) — the pairwise schedule wins.
  EXPECT_GT(std::stod(t.at(2, 3)), 1.5);
}

}  // namespace
}  // namespace columbia::core
