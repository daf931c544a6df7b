// obs::Report emitter tests: the JSON a bench binary writes must round-trip
// through the pdsreport toolchain (tools/report_reader.h +
// tools/report_checks.h) with correct aggregate statistics, the gate
// assertions must pass on healthy data and fail loudly on doctored data, and
// the emitted bytes must be identical whatever PDS_BENCH_JOBS was — the
// report is part of the deterministic surface, like the NDJSON traces.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/report.h"
#include "tools/lint_rules.h"
#include "tools/report_checks.h"
#include "tools/report_reader.h"
#include "util/stats.h"
#include "workload/experiment.h"

namespace pds {
namespace {

// -- JSON writer primitives --------------------------------------------------

TEST(JsonWriter, NestsObjectsArraysAndEscapes) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("name").value("line1\n\"x\"");
  w.key("list").begin_array().value(std::int64_t{1}).value(2.5).value(true)
      .end_array();
  w.key("inner").begin_object().key("k").value("v").end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"line1\\n\\\"x\\\"\",\"list\":[1,2.5,true],"
            "\"inner\":{\"k\":\"v\"}}");
}

TEST(JsonWriter, DoublesRoundTripThroughShortestForm) {
  for (const double v : {0.1, 1.0 / 3.0, 12345.6789, -2.0e-7, 5000.0}) {
    std::string out;
    obs::append_json_double(out, v);
    EXPECT_EQ(std::strtod(out.c_str(), nullptr), v) << out;
  }
}

// -- JSON reader -------------------------------------------------------------

// Numbers follow the RFC 8259 grammar, \u takes exactly four hex digits and
// decodes to UTF-8, and only the RFC's escapes are accepted. `want` is the
// parsed value's display() text; nullptr means the input must be rejected.
TEST(JsonReader, ParseJsonFollowsRfc8259) {
  struct Case {
    const char* input;
    const char* want;
  };
  const Case cases[] = {
      {"0", "0"},
      {"-0", "-0"},
      {"12", "12"},
      {"-1.5e-3", "-1.5e-3"},
      {"2E+10", "2E+10"},
      {"1.2.3", nullptr},
      {"-", nullptr},
      {"+5", nullptr},
      {"1e", nullptr},
      {"--1", nullptr},
      {"01", nullptr},
      {"1.", nullptr},
      {".5", nullptr},
      {"[1,-]", nullptr},
      {"\"\\u0041\"", "A"},
      {"\"\\u00e9\"", "\xC3\xA9"},
      {"\"\\u4e2d\"", "\xE4\xB8\xAD"},
      {"\"\\ud83d\\ude00\"", "\xF0\x9F\x98\x80"},
      {"\"\\uzz41\"", nullptr},
      {"\"\\u12\"", nullptr},
      {"\"\\ud83d\"", nullptr},
      {"\"\\ude00\"", nullptr},
      {"\"\\q\"", nullptr},
      {"\"a\\/b\\r\"", "a/b\r"},
  };
  for (const Case& c : cases) {
    const std::optional<tools::JsonValue> v = tools::parse_json(c.input);
    if (c.want == nullptr) {
      EXPECT_FALSE(v.has_value()) << c.input;
    } else {
      ASSERT_TRUE(v.has_value()) << c.input;
      EXPECT_EQ(v->display(), c.want) << c.input;
    }
  }
}

// -- schema round-trip -------------------------------------------------------

obs::Report sample_report() {
  obs::Report::Options options;
  options.experiment = "fig08_simultaneous_pdd";
  options.title = "Fig. 8 — simultaneous PDD";
  options.paper = "recall stays 100%";
  options.runs = 2;
  options.jobs = 1;
  obs::Report report(std::move(options));
  report.set_param("entries", std::int64_t{5000});
  report.set_param("radio_profile", "contended");
  report.begin_table("main", {"consumers", "recall"});
  util::SampleSet recall_1;
  recall_1.add(1.0);
  recall_1.add(0.998);
  report.point().param("consumers", std::int64_t{1}).metric("recall",
                                                            recall_1, 3);
  util::SampleSet recall_5;
  recall_5.add(0.996);
  recall_5.add(1.0);
  report.point().param("consumers", std::int64_t{5}).metric("recall",
                                                            recall_5, 3);
  return report;
}

TEST(Report, JsonRoundTripsThroughParser) {
  const std::string json = sample_report().to_json();
  std::string parse_error;
  const auto root = tools::parse_json(json, &parse_error);
  ASSERT_TRUE(root.has_value()) << parse_error;

  std::vector<std::string> errors;
  const tools::ParsedReport rep = tools::parse_report(*root, errors);
  EXPECT_TRUE(errors.empty()) << errors.front();
  EXPECT_EQ(rep.experiment, "fig08_simultaneous_pdd");
  EXPECT_EQ(rep.title, "Fig. 8 — simultaneous PDD");
  EXPECT_EQ(rep.paper, "recall stays 100%");
  EXPECT_EQ(rep.runs, 2);
  EXPECT_EQ(rep.jobs, 1);
  ASSERT_EQ(rep.points.size(), 2u);
  EXPECT_EQ(rep.points[0].section, "main");
  EXPECT_EQ(rep.points[0].num_param("consumers"), 1.0);
  EXPECT_EQ(rep.points[1].num_param("consumers"), 5.0);
  // Run-level params survive.
  bool saw_profile = false;
  for (const auto& [name, value] : rep.params) {
    if (name == "radio_profile") {
      saw_profile = true;
      EXPECT_EQ(value.display(), "contended");
    }
  }
  EXPECT_TRUE(saw_profile);
}

TEST(Report, AggregatesSampleStatistics) {
  obs::Report::Options options;
  options.experiment = "x";
  options.runs = 4;
  options.jobs = 1;
  obs::Report report(std::move(options));
  report.begin_section("s");
  util::SampleSet samples;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) samples.add(v);
  report.point().hidden_metric("m", samples);

  std::vector<std::string> errors;
  const auto root = tools::parse_json(report.to_json());
  ASSERT_TRUE(root.has_value());
  const tools::ParsedReport rep = tools::parse_report(*root, errors);
  EXPECT_TRUE(errors.empty()) << errors.front();
  ASSERT_EQ(rep.points.size(), 1u);
  const tools::ReportMetric* m = rep.points[0].metric("m");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 4);
  EXPECT_DOUBLE_EQ(m->mean, 2.5);
  EXPECT_DOUBLE_EQ(m->min, 1.0);
  EXPECT_DOUBLE_EQ(m->max, 4.0);
  EXPECT_NEAR(m->stddev, samples.stddev(), 1e-12);
  ASSERT_EQ(m->samples.size(), 4u);
  EXPECT_EQ(m->samples[2], 3.0);
}

TEST(Report, ValidatorRejectsDoctoredAggregates) {
  std::string json = sample_report().to_json();
  // Corrupt a recorded mean without touching the samples; the validator must
  // notice the books don't balance.
  const std::string needle = "\"mean\":";
  const std::size_t at = json.find(needle);
  ASSERT_NE(at, std::string::npos);
  json.replace(at, needle.size() + 1, "\"mean\":9");
  const auto root = tools::parse_json(json);
  ASSERT_TRUE(root.has_value());
  std::vector<std::string> errors;
  tools::parse_report(*root, errors);
  EXPECT_FALSE(errors.empty());
}

TEST(Report, ValidatorRejectsUnknownSchema) {
  std::string json = sample_report().to_json();
  const std::string schema = tools::kBenchReportSchema;
  const std::size_t at = json.find(schema);
  ASSERT_NE(at, std::string::npos);
  json.replace(at, schema.size(), "pds-bench-report/999");
  const auto root = tools::parse_json(json);
  ASSERT_TRUE(root.has_value());
  std::vector<std::string> errors;
  tools::parse_report(*root, errors);
  EXPECT_FALSE(errors.empty());
}

// -- pds-lint-report/1 sidecar validation ------------------------------------

TEST(LintReport, RealAnalyzerOutputValidates) {
  const lint::LintResult res = lint::analyze(
      {{"src/net/fixture.h", "#include \"core/predicate.h\"\n"},
       {"src/net/fixture.cc",
        "void decode(ByteReader& r, std::vector<int>& v) {\n"
        "  v.resize(r.get_u32());\n"
        "}\n"}});
  const std::string json = lint::render_json(res.findings, res.summary);
  const auto root = tools::parse_json(json);
  ASSERT_TRUE(root.has_value());
  std::vector<std::string> errors;
  tools::validate_lint_report(*root, errors);
  EXPECT_TRUE(errors.empty()) << errors.front();
}

TEST(LintReport, ValidatorRejectsDoctoredSummary) {
  const lint::LintResult res = lint::analyze(
      {{"src/net/fixture.h", "#include \"core/predicate.h\"\n"}});
  std::string json = lint::render_json(res.findings, res.summary);
  const std::string needle = "\"errors\":1";
  const std::size_t at = json.find(needle);
  ASSERT_NE(at, std::string::npos);
  json.replace(at, needle.size(), "\"errors\":0");
  const auto root = tools::parse_json(json);
  ASSERT_TRUE(root.has_value());
  std::vector<std::string> errors;
  tools::validate_lint_report(*root, errors);
  EXPECT_FALSE(errors.empty());
}

// -- gates -------------------------------------------------------------------

tools::ParsedReport parse_ok(const std::string& json) {
  const auto root = tools::parse_json(json);
  EXPECT_TRUE(root.has_value());
  std::vector<std::string> errors;
  tools::ParsedReport rep = tools::parse_report(*root, errors);
  EXPECT_TRUE(errors.empty()) << errors.front();
  return rep;
}

TEST(Gates, PassOnHealthyReport) {
  const tools::ParsedReport rep = parse_ok(sample_report().to_json());
  EXPECT_TRUE(tools::run_gates(rep).empty());
}

TEST(Gates, FailOnRecallCollapseNamingTheAssertion) {
  obs::Report::Options options;
  options.experiment = "fig08_simultaneous_pdd";
  options.runs = 1;
  options.jobs = 1;
  obs::Report report(std::move(options));
  report.begin_table("main", {"consumers", "recall"});
  report.point().param("consumers", std::int64_t{1}).metric("recall", 0.5, 3);

  const tools::ParsedReport rep = parse_ok(report.to_json());
  const std::vector<tools::GateFailure> failures = tools::run_gates(rep);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].experiment, "fig08_simultaneous_pdd");
  EXPECT_EQ(failures[0].assertion, "recall-stays-full");
}

TEST(Gates, FailOnBrokenMonotonicity) {
  obs::Report::Options options;
  options.experiment = "fig13_14_redundancy";
  options.runs = 1;
  options.jobs = 1;
  obs::Report report(std::move(options));
  report.begin_table("main", {"redundancy", "method", "overhead (MB)"});
  int redundancy = 1;
  for (const double overhead : {100.0, 260.0, 90.0}) {
    report.point()
        .param("redundancy", std::int64_t{redundancy++})
        .param("method", "MDR")
        .metric("recall", 1.0, 3)
        .metric("overhead_mb", overhead, 1);
  }
  const tools::ParsedReport rep = parse_ok(report.to_json());
  const std::vector<tools::GateFailure> failures = tools::run_gates(rep);
  bool saw_monotone = false;
  for (const tools::GateFailure& f : failures) {
    if (f.assertion == "mdr-overhead-monotone") saw_monotone = true;
  }
  EXPECT_TRUE(saw_monotone);
}

// -- determinism across PDS_BENCH_JOBS ---------------------------------------

std::string pdd_report_json() {
  obs::Report::Options options;
  options.experiment = "determinism_probe";
  options.runs = 4;
  options.jobs = bench::jobs();
  obs::Report report(std::move(options));
  report.begin_section("main");
  const bench::Series series = bench::average(4, [](std::uint64_t seed) {
    wl::PddGridParams p;
    p.nx = p.ny = 5;
    p.metadata_count = 300;
    p.consumers = 1;
    p.seed = seed;
    const wl::PddOutcome out = wl::run_pdd_grid(p);
    return std::tuple{out.recall, out.latency_s, out.overhead_mb};
  });
  report.point()
      .metric("recall", series.recall, 3)
      .metric("latency_s", series.latency_s, 2)
      .metric("overhead_mb", series.overhead_mb, 2);
  return report.to_json();
}

TEST(ReportDeterminism, JsonBytesIdenticalUnderParallelJobs) {
  ::setenv("PDS_BENCH_JOBS", "1", 1);
  const std::string serial = pdd_report_json();
  ::setenv("PDS_BENCH_JOBS", "4", 1);
  const std::string parallel = pdd_report_json();
  ::unsetenv("PDS_BENCH_JOBS");
  EXPECT_FALSE(serial.empty());
  // The recorded jobs count differs by design; everything else must not.
  const auto strip_jobs = [](std::string s) {
    const std::size_t at = s.find("\"jobs\":");
    EXPECT_NE(at, std::string::npos);
    const std::size_t end = s.find_first_of(",}", at);
    return s.erase(at, end - at);
  };
  EXPECT_EQ(strip_jobs(serial), strip_jobs(parallel));
}

}  // namespace
}  // namespace pds
