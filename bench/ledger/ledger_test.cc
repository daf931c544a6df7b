// Oracle and invariance checks for the cost ledger, on shrunken variants of
// every workload (6×6 grid, 500 entries or a 2 MB item):
//  * the split runner reproduces wl::run_pdd_grid / wl::run_retrieval_grid
//    bit for bit;
//  * the untraced, traced and sampled passes agree (run() checks this and
//    reports it through Result::correct);
//  * every run reports exactly the metrics BENCHMARK.json declares, with
//    the declared units.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ledger.h"
#include "tools/report_reader.h"

namespace pds::ledger {
namespace {

using NameUnit = std::pair<std::string, std::string>;

std::vector<NameUnit> declared(const char* section) {
  std::ifstream in(PDS_LEDGER_BENCHMARK_JSON);
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  const std::optional<tools::JsonValue> root =
      tools::parse_json(text.str(), &error);
  EXPECT_TRUE(root.has_value()) << error;
  std::vector<NameUnit> out;
  if (!root.has_value()) return out;
  const tools::JsonValue* list = root->find(section);
  EXPECT_TRUE(list != nullptr && list->is_array()) << section;
  if (list == nullptr) return out;
  for (const tools::JsonValue& m : list->items) {
    const tools::JsonValue* name = m.find("name");
    const tools::JsonValue* unit = m.find("unit");
    if (name != nullptr && unit != nullptr) {
      out.emplace_back(name->text, unit->text);
    }
  }
  return out;
}

std::vector<NameUnit> reported(const Result& res) {
  std::vector<NameUnit> out;
  for (const Metric& m : res.metrics) out.emplace_back(m.name, m.unit);
  return out;
}

std::string problems(const Result& res) {
  std::string out;
  for (const std::string& p : res.problems) out += p + "\n";
  return out;
}

class LedgerWorkload : public ::testing::TestWithParam<std::string> {
 protected:
  [[nodiscard]] Workload workload() const {
    const Workload* w = find_workload(GetParam());
    EXPECT_NE(w, nullptr);
    return shrunk(*w);
  }
};

TEST_P(LedgerWorkload, SplitRunnerMatchesHarness) {
  const Workload w = workload();
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const ScenarioRun r = run_scenario(w, seed);
    const Outcome oracle = run_oracle(w, seed);
    EXPECT_TRUE(same_outcome(r.outcome, oracle)) << "seed " << seed;
    EXPECT_EQ(r.outcome.failed_sessions, 0u) << "seed " << seed;
    EXPECT_GT(r.outcome.delivered, 0u);
    EXPECT_GT(r.outcome.sim_done_s, 0.0);
  }
}

TEST_P(LedgerWorkload, UntracedRunReportsDeclaredEndToEndMetrics) {
  const Result res = run(workload(), Options{.seed = 3, .scenarios = 2});
  EXPECT_TRUE(res.correct) << problems(res);
  EXPECT_EQ(res.failed, 0u);
  EXPECT_GT(res.attempted, 0u);
  EXPECT_EQ(reported(res), declared("end_to_end"));
  for (const Metric& m : res.metrics) EXPECT_GT(m.value, 0.0) << m.name;
}

TEST_P(LedgerWorkload, TracedAndSampledPassesAgreeWithUntraced) {
  const Result res =
      run(workload(), Options{.seed = 3, .scenarios = 2, .trace = true});
  EXPECT_TRUE(res.correct) << problems(res);
  EXPECT_EQ(reported(res), declared("per_layer"));
  EXPECT_NE(res.trace_ndjson.find("\"name\":\"run\""), std::string::npos);
  EXPECT_NE(res.trace_ndjson.find("profile:sim"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, LedgerWorkload,
    ::testing::Values("pdd-crowd", "pdd-seq-v2", "pdr-seq", "pdd-city"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace pds::ledger
