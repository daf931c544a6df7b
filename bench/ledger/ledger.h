// Cost ledger (bench/ledger/README.md): the canonical workloads, a scenario
// runner that times each phase on its own, and the passes that attribute
// host time to layers.
//
// The runner mirrors wl::run_pdd_grid / wl::run_retrieval_grid step for
// step, so every outcome it reports is bit-identical to theirs for the same
// parameters (the warm-up scenario re-checks this on every run). Host time
// is the ledger's output; it never feeds simulation state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "workload/experiment.h"

namespace pds::ledger {

// One canonical workload: exactly one of `pdd` / `pdr` is set. The seed in
// the params is ignored; every scenario gets its own.
struct Workload {
  std::string name;
  std::optional<wl::PddGridParams> pdd;
  std::optional<wl::RetrievalGridParams> pdr;
  // Release wall seconds of one scenario on the reference host (4-core
  // x86-64). Sizes the scenario count from the requested seconds, so a seed
  // always selects the same scenarios however fast the build is.
  double nominal_scenario_s = 1.0;
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);
// The same configuration on a 6×6 grid with 500 entries or a 2 MB item.
[[nodiscard]] Workload shrunk(const Workload& w);
// Scenarios that fill about `seconds` of timed work (at least 1).
[[nodiscard]] int scenarios_for(const Workload& w, double seconds);

// What one scenario produced. The first block is exactly what the wl::
// harnesses report; the oracle comparison covers all of it.
struct Outcome {
  double recall = 0.0;
  double latency_s = 0.0;
  double overhead_mb = 0.0;
  bool all_done = false;
  std::uint64_t events = 0;
  std::vector<double> per_consumer_recall;
  std::vector<double> per_consumer_latency_s;

  std::size_t sessions = 0;
  std::size_t failed_sessions = 0;
  // Distinct entries (PDD) or chunks (PDR) that reached consumers.
  std::size_t delivered = 0;
  // Simulated time at which the last consumer session completed.
  double sim_done_s = 0.0;

  // Exact per-layer counters read from public state after the run.
  sim::MediumStats radio;
  net::Transport::Stats transport;  // summed over nodes
  std::uint64_t store_metadata_entries = 0;
};

// Bit-identical on every field the wl:: harnesses report.
[[nodiscard]] bool same_outcome(const Outcome& a, const Outcome& b);

// Host timestamps (steady clock, ns) at the phase borders of
// one scenario: setup = make_grid + distribute, then run, then teardown.
struct Phases {
  std::int64_t start_ns = 0;
  std::int64_t grid_ns = 0;        // make_grid done
  std::int64_t distribute_ns = 0;  // workload generated and placed
  std::int64_t run_ns = 0;         // run_until returned
  std::int64_t after_ns = 0;       // after-run hook done
  std::int64_t end_ns = 0;         // scenario destroyed

  [[nodiscard]] double make_grid_s() const { return secs(start_ns, grid_ns); }
  [[nodiscard]] double distribute_s() const {
    return secs(grid_ns, distribute_ns);
  }
  [[nodiscard]] double setup_s() const { return secs(start_ns, distribute_ns); }
  [[nodiscard]] double run_s() const { return secs(distribute_ns, run_ns); }
  [[nodiscard]] double teardown_s() const { return secs(after_ns, end_ns); }
  // Setup + run + teardown; the after-run hook is not the scenario's cost.
  [[nodiscard]] double wall_s() const {
    return setup_s() + run_s() + teardown_s();
  }

 private:
  static double secs(std::int64_t a, std::int64_t b) {
    return static_cast<double>(b - a) / 1e9;
  }
};

// Heap meter (heap_meter.cc): live heap bytes of the process, their high
// water mark, and a reset of the mark to the current live bytes.
[[nodiscard]] std::size_t heap_live_bytes();
[[nodiscard]] std::size_t heap_peak_bytes();
void reset_heap_peak();

// Observers attached to one scenario, all optional. `after_run` sees the end
// state before teardown (the traced pass runs its replays there).
struct Observers {
  obs::Profiler* profiler = nullptr;
  obs::TimeSeries* sampler = nullptr;
  sim::RadioMedium::TxObserver tx;
  std::function<void(wl::Scenario&)> after_run;
};

struct ScenarioRun {
  std::uint64_t seed = 0;
  Outcome outcome;
  Phases phases;
  // Most heap the scenario held at once, above what was live before it.
  std::size_t peak_heap_bytes = 0;
};

// Runs one scenario through the split runner. With `simulate` false it
// stops after setup and tears the scenario down (a setup-only sample).
[[nodiscard]] ScenarioRun run_scenario(const Workload& w, std::uint64_t seed,
                                       const Observers& observers = {},
                                       bool simulate = true);

// The same scenario through wl::run_pdd_grid / wl::run_retrieval_grid.
[[nodiscard]] Outcome run_oracle(const Workload& w, std::uint64_t seed);

// -- One benchmark run --------------------------------------------------------

struct Options {
  std::uint64_t seed = 1;
  int scenarios = 1;   // untraced pass: seeds seed … seed+scenarios-1
  bool trace = false;  // false: end-to-end metrics; true: per-layer metrics
};

struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;  // per scenario (or per setup, or one value)
  double value = 0.0;           // median of the samples
};

struct Result {
  bool correct = true;
  std::vector<std::string> problems;  // why `correct` is false
  std::size_t attempted = 0;          // consumer sessions
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<ScenarioRun> scenarios;  // the untraced pass
  // Traced pass only: the per-layer self-time table and the span NDJSON.
  std::string layer_table;
  std::string trace_ndjson;
};

[[nodiscard]] Result run(const Workload& w, const Options& options);

}  // namespace pds::ledger
