// pdslint engine tests: every rule fires on a seeded fixture violation and
// stays quiet on the corrected form, whitelisted files and out-of-scope
// paths are exempt, taint flows through locals / arguments / returns and is
// erased by bounds comparisons, suppression comments work at line and file
// granularity (a misspelled one is itself a finding), and the JSON findings
// report is byte-deterministic and round-trips through the same parser the
// bench-report toolchain uses.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/lint_rules.h"
#include "tools/report_reader.h"

namespace pds::lint {
namespace {

// Findings for `content` analyzed under a src/-like path, where every rule
// family applies and nothing is whitelisted.
std::vector<Finding> run(const std::string& content,
                         const std::string& path = "src/core/fixture.cc",
                         const std::vector<std::string>& header_names = {}) {
  return analyze({{path, content, header_names}}).findings;
}

int count_rule(const std::vector<Finding>& fs, const std::string& rule,
               bool suppressed = false) {
  return static_cast<int>(
      std::count_if(fs.begin(), fs.end(), [&](const Finding& f) {
        return f.rule == rule && f.suppressed == suppressed;
      }));
}

TEST(PdslintLexer, StringsCommentsAndRawStringsAreNotCode) {
  const LexedFile lexed = lex(
      "// rand() in a comment\n"
      "const char* s = \"std::random_device\";\n"
      "const char* r = R\"(system_clock)\";\n"
      "int x = 0; /* steady_clock */\n");
  for (const Token& t : lexed.tokens) {
    if (t.kind == TokKind::kIdent) {
      EXPECT_NE(t.text, "rand");
      EXPECT_NE(t.text, "random_device");
      EXPECT_NE(t.text, "system_clock");
      EXPECT_NE(t.text, "steady_clock");
    }
  }
  ASSERT_EQ(lexed.comments.size(), 2u);
  EXPECT_EQ(lexed.comments[0].line, 1);
  EXPECT_EQ(lexed.comments[1].line, 4);
}

TEST(PdslintLexer, TracksLinesAcrossBlockComments) {
  const LexedFile lexed = lex("/* a\nb\nc */\nint x;\n");
  ASSERT_FALSE(lexed.tokens.empty());
  EXPECT_EQ(lexed.tokens[0].text, "int");
  EXPECT_EQ(lexed.tokens[0].line, 4);
}

TEST(PdslintRules, CleanSourceHasNoFindings) {
  const auto fs = run(
      "#include <map>\n"
      "#include \"common/rng.h\"\n"
      "double draw(pds::Rng& rng) { return rng.uniform(); }\n"
      "void emit(const std::map<int, int>& m) {\n"
      "  for (const auto& [k, v] : m) printf(\"%d %d\\n\", k, v);\n"
      "}\n");
  EXPECT_TRUE(fs.empty());
}

TEST(PdslintRules, DetectsAmbientRng) {
  const auto fs = run(
      "#include <random>\n"
      "int noisy() {\n"
      "  std::random_device rd;\n"
      "  srand(42);\n"
      "  return rand() + static_cast<int>(rd());\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "ambient-rng"), 3);
}

TEST(PdslintRules, DetectsWallClock) {
  const auto fs = run(
      "#include <chrono>\n"
      "#include <ctime>\n"
      "long stamp() {\n"
      "  auto t = std::chrono::steady_clock::now();\n"
      "  (void)t;\n"
      "  return time(nullptr);\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wall-clock"), 2);
}

TEST(PdslintRules, WallClockWhitelistedForTimingBenches) {
  const std::string src =
      "#include <chrono>\n"
      "auto t0 = std::chrono::steady_clock::now();\n";
  EXPECT_EQ(count_rule(run(src, "bench/micro_primitives.cc"), "wall-clock"),
            0);
  EXPECT_EQ(count_rule(run(src, "bench/perf_radio.cc"), "wall-clock"), 0);
  EXPECT_EQ(count_rule(run(src, "bench/fig03_singlehop.cc"), "wall-clock"), 1);
}

TEST(PdslintScope, TokenRulesSkipTestsAndExamples) {
  const std::string src = "std::random_device rd;\n";
  EXPECT_EQ(count_rule(run(src, "tests/fixture_test.cc"), "ambient-rng"), 0);
  EXPECT_EQ(count_rule(run(src, "examples/fixture.cpp"), "ambient-rng"), 0);
  EXPECT_EQ(count_rule(run(src, "src/core/fixture.cc"), "ambient-rng"), 1);
}

TEST(PdslintRules, DetectsAmbientParallelism) {
  const auto fs = run(
      "#include <thread>\n"
      "unsigned pool_size() {\n"
      "  return std::thread::hardware_concurrency();\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "ambient-parallelism"), 1);
}

TEST(PdslintRules, AmbientParallelismWhitelistedForJobsHelper) {
  const std::string src =
      "#include <thread>\n"
      "unsigned hc = std::thread::hardware_concurrency();\n";
  EXPECT_EQ(count_rule(run(src, "bench/parallel_runs.h"),
                       "ambient-parallelism"),
            0);
  EXPECT_EQ(count_rule(run(src, "src/sim/shard_executor.cc"),
                       "ambient-parallelism"),
            1);
}

TEST(PdslintRules, MemberTimeCallsAreNotTheCLibrary) {
  const auto fs = run(
      "double at(const Event& e) { return e.time(); }\n"
      "double via(const Event* e) { return e->time(); }\n");
  EXPECT_EQ(count_rule(fs, "wall-clock"), 0);
}

TEST(PdslintRules, DetectsUnorderedIterationInSensitiveFile) {
  const auto fs = run(
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> stats_;\n"
      "void dump() {\n"
      "  for (const auto& [k, v] : stats_) printf(\"%d %d\\n\", k, v);\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "unordered-iter"), 1);
}

TEST(PdslintRules, UnorderedIterationIgnoredInInsensitiveFile) {
  // No output tokens, no Rng: hash order cannot leak anywhere observable.
  const auto fs = run(
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> m_;\n"
      "int sum() {\n"
      "  int s = 0;\n"
      "  for (const auto& [k, v] : m_) s += v;\n"
      "  return s;\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "unordered-iter"), 0);
}

TEST(PdslintRules, DetectsIteratorWalkAndHeaderDeclaredMembers) {
  // The member is declared in the paired header; the .cc only iterates it.
  const auto fs = run(
      "void Engine::flush() {\n"
      "  for (auto it = pending_.begin(); it != pending_.end(); ++it)\n"
      "    std::cout << it->first;\n"
      "}\n",
      "src/core/engine.cc", collect_unordered_names(lex(
          "#include <unordered_map>\n"
          "class Engine { std::unordered_map<int, int> pending_; };\n")));
  EXPECT_EQ(count_rule(fs, "unordered-iter"), 1);
}

TEST(PdslintRules, DetectsAccessorReturningUnorderedRef) {
  const auto fs = run(
      "#include <unordered_map>\n"
      "struct S {\n"
      "  const std::unordered_map<int, int>& arrivals() const;\n"
      "};\n"
      "void dump(const S& s) {\n"
      "  for (const auto& [k, v] : s.arrivals()) printf(\"%d\\n\", k);\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "unordered-iter"), 1);
}

TEST(PdslintRules, DetectsPointerKeyedContainers) {
  const auto fs = run(
      "#include <map>\n"
      "#include <set>\n"
      "struct Node;\n"
      "std::map<Node*, int> order_;\n"
      "std::set<const Node*> members_;\n"
      "std::map<int, Node*> fine_;\n");
  EXPECT_EQ(count_rule(fs, "pointer-order"), 2);
}

TEST(PdslintRules, DetectsPointerHash) {
  const auto fs = run(
      "#include <functional>\n"
      "struct Node;\n"
      "std::size_t h(Node* n) { return std::hash<Node*>{}(n); }\n");
  EXPECT_EQ(count_rule(fs, "pointer-order"), 1);
}

TEST(PdslintRules, DetectsUninitScalarFieldInCodecHeader) {
  const std::string src =
      "struct Header {\n"
      "  std::uint32_t size_bytes;\n"       // violation
      "  std::uint32_t count = 0;\n"        // initialized
      "  bool flag{false};\n"               // initialized
      "  std::vector<int> items;\n"         // class type, self-initializing
      "  std::uint64_t hash() const { return 0; }\n"  // function
      "};\n";
  EXPECT_EQ(count_rule(run(src, "src/net/message.h"), "uninit-field"), 1);
  // The same text outside codec/message headers is out of scope.
  EXPECT_EQ(count_rule(run(src, "src/sim/radio.h"), "uninit-field"), 0);
}

TEST(PdslintRules, DetectsUnvalidatedDecode) {
  const auto fs = run(
      "Message decode(ByteReader& r) {\n"
      "  Message m;\n"
      "  m.ttl = r.get_u8();\n"
      "  return m;\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "decode-assert"), 1);
}

TEST(PdslintRules, ValidatedDecodePasses) {
  for (const char* guard :
       {"PDS_ENSURE(m.ttl < 64);", "if (m.ttl > 64) throw 1;",
        "if (bad) { throw DecodeError(\"x\"); }"}) {
    const auto fs = run(std::string("Message decode(ByteReader& r) {\n"
                                    "  Message m;\n  ") +
                        guard + "\n  return m;\n}\n");
    EXPECT_EQ(count_rule(fs, "decode-assert"), 0) << guard;
  }
  // Declarations and method calls are not definitions.
  const auto fs = run(
      "Message decode(ByteReader& r);\n"
      "void f(Codec& c) { auto m = c.decode(bytes); }\n");
  EXPECT_EQ(count_rule(fs, "decode-assert"), 0);
}

TEST(PdslintRules, DetectsUnregisteredTraceEvent) {
  const auto fs = run(
      "void f(obs::Tracer* t, SimTime now, NodeId n) {\n"
      "  PDS_TRACE_INSTANT(t, now, n, \"pdd\", \"serve\", {\"query\", 1});\n"
      "  PDS_TRACE_INSTANT(t, now, n, \"pdd\", \"not_an_event\", {\"x\", 1});\n"
      "  PDS_TRACE_BEGIN(t, now, n, \"pdd\", \"round\", {\"round\", 1});\n"
      "  PDS_TRACE_EMIT(t, 'E', now, n, \"pdd\", \"round\", {\"round\", 1});\n"
      "  PDS_TRACE_EMIT(t, 'i', now, n, \"nope\", \"nah\");\n"
      "}\n");
  // Only the two (sub, ev) pairs missing from tools/telemetry_schema.h fire.
  EXPECT_EQ(count_rule(fs, "trace-schema"), 2);
}

TEST(PdslintRules, DynamicTraceEventNamesAreSkipped) {
  // The catalog check is syntactic: computed subsystem/event names (the
  // tracer test fixtures build them at runtime) cannot be resolved and must
  // not fire.
  const auto fs = run(
      "void f(obs::Tracer* t, SimTime now, NodeId n, const char* ev) {\n"
      "  PDS_TRACE_INSTANT(t, now, n, kSubsystem, ev, {\"x\", 1});\n"
      "  PDS_TRACE_INSTANT(t, now, n, \"pdd\", ev, {\"x\", 1});\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "trace-schema"), 0);
}

TEST(PdslintRules, TraceSchemaAllowlistExemptsTracerTests) {
  const auto fs = run(
      "void f(obs::Tracer* t, SimTime now, NodeId n) {\n"
      "  PDS_TRACE_INSTANT(t, now, n, \"synthetic\", \"ev\", {\"x\", 1});\n"
      "}\n",
      "tests/obs_test.cc");
  EXPECT_EQ(count_rule(fs, "trace-schema"), 0);
}

TEST(PdslintRules, DetectsUnregisteredStatsColumnAndScope) {
  const auto fs = run(
      "void f(obs::TimeSeries& ts, obs::Profiler* prof) {\n"
      "  PDS_TS_COLUMN(ts, \"sim.events\");\n"
      "  PDS_TS_COLUMN(ts, \"rss.peak_mb\", TimeSeries::Kind::kWall);\n"
      "  PDS_TS_COLUMN(ts, \"made.up_column\");\n"
      "  PDS_PROF_SCOPE(prof, \"radio\");\n"
      "  PDS_PROF_SCOPE(prof, \"not-a-subsystem\");\n"
      "}\n");
  // Only the column and the scope missing from tools/telemetry_schema.h
  // fire.
  EXPECT_EQ(count_rule(fs, "stats-schema"), 2);
}

TEST(PdslintRules, DynamicStatsNamesAreSkipped) {
  // Syntactic check: computed names cannot be resolved and must not fire.
  const auto fs = run(
      "void f(obs::TimeSeries& ts, obs::Profiler* prof, const char* n) {\n"
      "  PDS_TS_COLUMN(ts, n);\n"
      "  PDS_PROF_SCOPE(prof, kScopeName);\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "stats-schema"), 0);
}

TEST(PdslintRules, StatsSchemaAllowlistExemptsRecorderTests) {
  const auto fs = run(
      "void f(obs::TimeSeries& ts) {\n"
      "  PDS_TS_COLUMN(ts, \"test.value\");\n"
      "}\n",
      "tests/timeseries_test.cc");
  EXPECT_EQ(count_rule(fs, "stats-schema"), 0);
}

TEST(PdslintSuppression, SameLineAndPreviousLine) {
  const auto same = run(
      "int x = rand();  // pdslint:allow(ambient-rng)\n");
  EXPECT_EQ(count_rule(same, "ambient-rng"), 0);
  EXPECT_EQ(count_rule(same, "ambient-rng", /*suppressed=*/true), 1);

  const auto prev = run(
      "// justified here: pdslint:allow(ambient-rng)\n"
      "int x = rand();\n");
  EXPECT_EQ(count_rule(prev, "ambient-rng"), 0);
  EXPECT_EQ(count_rule(prev, "ambient-rng", /*suppressed=*/true), 1);

  // Two lines above is out of reach — the suppression must sit on or
  // directly above the finding.
  const auto far = run(
      "// pdslint:allow(ambient-rng)\n"
      "\n"
      "int x = rand();\n");
  EXPECT_EQ(count_rule(far, "ambient-rng"), 1);
}

TEST(PdslintSuppression, FileWideAndMultiRule) {
  const auto fs = run(
      "// pdslint:allow-file(ambient-rng, wall-clock)\n"
      "int x = rand();\n"
      "long t = time(nullptr);\n"
      "std::random_device rd;\n");
  EXPECT_EQ(count_rule(fs, "ambient-rng"), 0);
  EXPECT_EQ(count_rule(fs, "wall-clock"), 0);
  EXPECT_EQ(count_rule(fs, "ambient-rng", /*suppressed=*/true), 2);
  EXPECT_EQ(count_rule(fs, "wall-clock", /*suppressed=*/true), 1);
}

TEST(PdslintSuppression, UnknownRuleIsItselfAFinding) {
  const auto fs = run("int x = 0;  // pdslint:allow(no-such-rule)\n");
  EXPECT_EQ(count_rule(fs, "bad-suppression"), 1);
}

TEST(PdslintSuppression, WrongRuleDoesNotSuppress) {
  const auto fs = run("int x = rand();  // pdslint:allow(wall-clock)\n");
  EXPECT_EQ(count_rule(fs, "ambient-rng"), 1);
}

TEST(PdslintReport, SummaryCountsBySeverityAndSuppression) {
  const auto fs = run(
      "int a = rand();\n"                                  // error
      "int b = rand();  // pdslint:allow(ambient-rng)\n"   // suppressed
      "Message decode(ByteReader& r) { return {}; }\n");   // warning
  const LintSummary s = summarize(fs, 1);
  EXPECT_EQ(s.errors, 1);
  EXPECT_EQ(s.warnings, 1);
  EXPECT_EQ(s.suppressed, 1);
  EXPECT_EQ(s.unsuppressed(), 2);
  EXPECT_EQ(s.files_scanned, 1);
}

TEST(PdslintReport, JsonRoundTripsThroughReportReader) {
  const auto fs = run(
      "int a = rand();\n"
      "long t = time(nullptr);  // pdslint:allow(wall-clock)\n");
  const LintSummary summary = summarize(fs, 1);
  const std::string json = render_json(fs, summary);

  std::string error;
  const auto root = tools::parse_json(json, &error);
  ASSERT_TRUE(root.has_value()) << error;
  ASSERT_TRUE(root->is_object());

  const tools::JsonValue* schema = root->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->text, kLintReportSchema);

  const tools::JsonValue* rules = root->find("rules");
  ASSERT_NE(rules, nullptr);
  EXPECT_EQ(rules->items.size(), std::size(kRules));

  const tools::JsonValue* findings = root->find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_EQ(findings->items.size(), fs.size());
  for (std::size_t i = 0; i < fs.size(); ++i) {
    const tools::JsonValue& f = findings->items[i];
    EXPECT_EQ(f.find("rule")->text, fs[i].rule);
    EXPECT_EQ(f.find("file")->text, fs[i].file);
    EXPECT_EQ(static_cast<int>(f.find("line")->number), fs[i].line);
    EXPECT_EQ(f.find("suppressed")->boolean, fs[i].suppressed);
  }

  const tools::JsonValue* sum = root->find("summary");
  ASSERT_NE(sum, nullptr);
  EXPECT_EQ(static_cast<int>(sum->find("errors")->number), summary.errors);
  EXPECT_EQ(static_cast<int>(sum->find("suppressed")->number),
            summary.suppressed);

  // Byte determinism: rendering the same findings twice is identical.
  EXPECT_EQ(json, render_json(fs, summary));
}

TEST(PdslintReport, FindingsAreSortedByFileLineRule) {
  const auto a = run("int x = rand();\nstd::random_device rd;\n");
  ASSERT_EQ(a.size(), 2u);
  EXPECT_LT(a[0].line, a[1].line);
}

// --- wire-taint ------------------------------------------------------------

TEST(PdsflowTaint, UnvalidatedWireCountBoundsLoop) {
  const auto fs = run(
      "void decode(ByteReader& r, std::vector<int>& out) {\n"
      "  const std::uint16_t n = r.get_u16();\n"
      "  for (std::uint16_t i = 0; i < n; ++i) out.push_back(1);\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wire-taint"), 1);
}

TEST(PdsflowTaint, BoundsComparisonSanitizes) {
  const auto fs = run(
      "void decode(ByteReader& r, std::vector<int>& out) {\n"
      "  const std::uint16_t n = r.get_u16();\n"
      "  if (std::size_t{n} * 4 > r.remaining()) {\n"
      "    throw DecodeError(\"count exceeds buffer\");\n"
      "  }\n"
      "  for (std::uint16_t i = 0; i < n; ++i) out.push_back(1);\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wire-taint"), 0);
}

TEST(PdsflowTaint, EnsureMacroSanitizes) {
  const auto fs = run(
      "void decode(ByteReader& r, std::vector<int>& v) {\n"
      "  const std::uint32_t n = r.get_u32();\n"
      "  PDS_ENSURE(n <= 64);\n"
      "  v.resize(n);\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wire-taint"), 0);
}

TEST(PdsflowTaint, TaintFlowsThroughLocalAssignment) {
  const auto fs = run(
      "void decode(ByteReader& r, std::vector<int>& v) {\n"
      "  const std::uint32_t n = r.get_u32();\n"
      "  const std::size_t count = n;\n"
      "  v.resize(count);\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wire-taint"), 1);
}

TEST(PdsflowTaint, StdMinMasksTaint) {
  const auto fs = run(
      "void decode(ByteReader& r, std::vector<int>& v) {\n"
      "  const std::uint32_t n = r.get_u32();\n"
      "  const std::size_t count = std::min<std::size_t>(n, 64);\n"
      "  v.resize(count);\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wire-taint"), 0);
}

TEST(PdsflowTaint, TaintedIndexAndNewArray) {
  const auto fs = run(
      "int pick(ByteReader& r, const std::vector<int>& v) {\n"
      "  const std::uint32_t idx = r.get_u32();\n"
      "  return v[idx];\n"
      "}\n"
      "char* grab(ByteReader& r) {\n"
      "  const std::uint32_t n = r.get_u32();\n"
      "  return new char[n];\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wire-taint"), 2);
}

TEST(PdsflowTaint, InterproceduralSinkParameter) {
  // `fill` uses its parameter 0 as a resize size without validation, so a
  // wire-tainted argument at the call site is a finding.
  const auto fs = run(
      "void fill(std::size_t n, std::vector<int>& v) { v.resize(n); }\n"
      "void decode(ByteReader& r, std::vector<int>& v) {\n"
      "  const std::uint32_t n = r.get_u32();\n"
      "  fill(n, v);\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wire-taint"), 1);
}

TEST(PdsflowTaint, InterproceduralTaintedReturn) {
  const auto fs = run(
      "std::uint32_t read_count(ByteReader& r) { return r.get_u32(); }\n"
      "void decode(ByteReader& r, std::vector<int>& v) {\n"
      "  const std::uint32_t n = read_count(r);\n"
      "  v.resize(n);\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wire-taint"), 1);
}

TEST(PdsflowTaint, OutOfScopePathsAreExempt) {
  const auto fs = run(
      "void decode(ByteReader& r, std::vector<int>& v) {\n"
      "  v.resize(r.get_u32());\n"
      "  const std::uint16_t n = r.get_u16();\n"
      "  for (std::uint16_t i = 0; i < n; ++i) v.push_back(1);\n"
      "}\n",
      "tests/fixture.cc");
  EXPECT_EQ(count_rule(fs, "wire-taint"), 0);
}

// --- decode-atomicity ------------------------------------------------------

TEST(PdsflowAtomicity, MemberMutationBeforeThrowIsFlagged) {
  const auto fs = run(
      "struct Table {\n"
      "  void decode(ByteReader& r) {\n"
      "    names_.push_back(r.get_string());\n"
      "    if (r.get_u8() != 0) throw DecodeError(\"trailer\");\n"
      "  }\n"
      "  std::vector<std::string> names_;\n"
      "};\n");
  EXPECT_EQ(count_rule(fs, "decode-atomicity"), 1);
}

TEST(PdsflowAtomicity, CopyThenSwapIsClean) {
  const auto fs = run(
      "struct Table {\n"
      "  void decode(ByteReader& r) {\n"
      "    std::vector<std::string> tmp;\n"
      "    tmp.push_back(r.get_string());\n"
      "    if (r.get_u8() != 0) throw DecodeError(\"trailer\");\n"
      "    names_ = std::move(tmp);\n"
      "  }\n"
      "  std::vector<std::string> names_;\n"
      "};\n");
  EXPECT_EQ(count_rule(fs, "decode-atomicity"), 0);
}

TEST(PdsflowAtomicity, MutationInsideThrowingLoopIsFlagged) {
  const auto fs = run(
      "struct Table {\n"
      "  void decode(ByteReader& r, std::uint16_t n) {\n"
      "    if (n > 8) throw DecodeError(\"count\");\n"
      "    for (std::uint16_t i = 0; i < n; ++i) {\n"
      "      names_.push_back(r.get_string());\n"
      "    }\n"
      "  }\n"
      "  std::vector<std::string> names_;\n"
      "};\n");
  EXPECT_EQ(count_rule(fs, "decode-atomicity"), 1);
}

TEST(PdsflowAtomicity, MutationThroughMemberReferenceAlias) {
  const auto fs = run(
      "struct Table {\n"
      "  void decode(ByteReader& r) {\n"
      "    std::string& slot = prev_[0];\n"
      "    slot = r.get_string();\n"
      "    if (r.get_u8() != 0) throw DecodeError(\"trailer\");\n"
      "  }\n"
      "  std::vector<std::string> prev_;\n"
      "};\n");
  EXPECT_EQ(count_rule(fs, "decode-atomicity"), 1);
}

TEST(PdsflowAtomicity, BindingAConstReferenceIsNotAMutation) {
  const auto fs = run(
      "struct Table {\n"
      "  std::string decode(ByteReader& r) {\n"
      "    const std::string& name = names_[0];\n"
      "    if (r.get_u8() != 0) throw DecodeError(\"trailer\");\n"
      "    return name;\n"
      "  }\n"
      "  std::vector<std::string> names_;\n"
      "};\n");
  EXPECT_EQ(count_rule(fs, "decode-atomicity"), 0);
}

TEST(PdsflowAtomicity, ConstructorsAreExempt) {
  const auto fs = run(
      "struct Frame {\n"
      "  explicit Frame(ByteReader& r) {\n"
      "    words_.push_back(r.get_u64());\n"
      "    if (r.get_u8() != 0) throw DecodeError(\"trailer\");\n"
      "  }\n"
      "  std::vector<std::uint64_t> words_;\n"
      "};\n");
  EXPECT_EQ(count_rule(fs, "decode-atomicity"), 0);
}

// --- layering --------------------------------------------------------------

TEST(PdsflowLayering, LowerLayerIncludingHigherIsFlagged) {
  const auto fs = run("#include \"core/predicate.h\"\n", "src/net/fixture.h");
  ASSERT_EQ(count_rule(fs, "layering"), 1);
  const auto it = std::find_if(fs.begin(), fs.end(), [](const Finding& f) {
    return f.rule == "layering";
  });
  EXPECT_EQ(it->line, 1);
  EXPECT_EQ(it->message,
            "'src/net/fixture.h' (layer rank 4) includes "
            "'core/predicate.h' (rank 5): lower layers must not depend on "
            "higher ones");
}

TEST(PdsflowLayering, DownwardAndSameLayerIncludesAreClean) {
  const auto fs = run(
      "#include \"common/bytes.h\"\n"
      "#include \"net/message.h\"\n"
      "#include \"util/stats.h\"\n",
      "src/core/fixture.h");
  EXPECT_EQ(count_rule(fs, "layering"), 0);
}

TEST(PdsflowLayering, AppliesOutsideSrcScopeToo) {
  const auto fs =
      run("#include \"core/predicate.h\"\n", "tools/fixture_tool.cc");
  EXPECT_EQ(count_rule(fs, "layering"), 0)
      << "tools may include anything below them";
  const auto low = run("#include \"sim/clock.h\"\n", "src/obs/fixture.h");
  EXPECT_EQ(count_rule(low, "layering"), 1);
}

TEST(PdslintSuppression, AllowTagWaivesALayeringInclude) {
  // A deliberate back-edge is waived on its include line, with its reason.
  const auto fs = run(
      "// Messages embed predicates by value.\n"
      "#include \"core/predicate.h\"  // pdslint:allow(layering)\n",
      "src/net/fixture.h");
  EXPECT_EQ(count_rule(fs, "layering", /*suppressed=*/true), 1);
  EXPECT_EQ(count_rule(fs, "layering", /*suppressed=*/false), 0);
}

// --- suppressions ----------------------------------------------------------

TEST(PdsflowSuppression, AllowCommentSuppressesOnOffendingLine) {
  const auto fs = run(
      "void decode(ByteReader& r, std::vector<int>& v) {\n"
      "  v.resize(r.get_u32());  // pdslint:allow(wire-taint)\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wire-taint", /*suppressed=*/true), 1);
  EXPECT_EQ(count_rule(fs, "wire-taint", /*suppressed=*/false), 0);
}

TEST(PdsflowSuppression, AllowFileCoversWholeFile) {
  const auto fs = run(
      "// pdslint:allow-file(wire-taint)\n"
      "void decode(ByteReader& r, std::vector<int>& v) {\n"
      "  v.resize(r.get_u32());\n"
      "  std::vector<int> w;\n"
      "  w.resize(r.get_u32());\n"
      "}\n");
  EXPECT_EQ(count_rule(fs, "wire-taint", /*suppressed=*/true), 2);
  EXPECT_EQ(count_rule(fs, "wire-taint", /*suppressed=*/false), 0);
}

TEST(PdsflowSuppression, UnknownRuleNameIsBadSuppression) {
  const auto fs = run("int x = 0;  // pdslint:allow(no-such-rule)\n");
  EXPECT_EQ(count_rule(fs, "bad-suppression"), 1);
}

// --- report ----------------------------------------------------------------

TEST(PdsflowReport, JsonParsesAndIsByteDeterministic) {
  const std::vector<SourceFile> files = {
      {"src/net/fixture.h", "#include \"core/predicate.h\"\n"},
      {"src/net/fixture.cc",
       "void decode(ByteReader& r, std::vector<int>& v) {\n"
       "  v.resize(r.get_u32());\n"
       "}\n"}};
  const LintResult a = analyze(files);
  const LintResult b = analyze(files);
  const std::string ja = render_json(a.findings, a.summary);
  EXPECT_EQ(ja, render_json(b.findings, b.summary));

  std::string error;
  const auto root = tools::parse_json(ja, &error);
  ASSERT_TRUE(root.has_value()) << error;
  const tools::JsonValue* schema = root->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->text, kLintReportSchema);
  const tools::JsonValue* rules = root->find("rules");
  ASSERT_NE(rules, nullptr);
  EXPECT_EQ(rules->items.size(), std::size(kRules));
  const tools::JsonValue* findings = root->find("findings");
  ASSERT_NE(findings, nullptr);
  EXPECT_EQ(findings->items.size(), a.findings.size());
}

TEST(PdsflowReport, FindingsAreSortedAndCounted) {
  const std::vector<SourceFile> files = {
      {"src/net/b_fixture.h", "#include \"core/predicate.h\"\n"},
      {"src/net/a_fixture.h", "#include \"core/descriptor.h\"\n"}};
  const LintResult res = analyze(files);
  ASSERT_EQ(res.findings.size(), 2u);
  EXPECT_LE(res.findings[0].file, res.findings[1].file);
  EXPECT_EQ(res.summary.errors, 2);
  EXPECT_EQ(res.summary.files_scanned, 2);
  EXPECT_EQ(res.summary.unsuppressed(), 2);
}

}  // namespace
}  // namespace pds::lint
