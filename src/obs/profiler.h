// Scoped wall-clock profiler with a hierarchical subsystem tree.
//
// A Profiler accumulates wall-clock time per named scope, nested by runtime
// scope nesting: `PDS_PROF_SCOPE(prof, "radio")` inside an open "sim" scope
// accumulates under the path "sim/radio". Scope names are string literals
// registered in tools/telemetry_schema.h (pdslint rule `stats-schema`).
//
// Threading: accumulation is atomic and the current-scope cursor is
// thread-local, so shard workers (sim/shard_executor.h) and
// bench::run_indexed seed workers can all hold scopes against the same
// Profiler concurrently. Entering a scope walks the parent's child list
// without a lock; only the first sight of a (parent, name) pair takes a
// mutex to create the node. Nodes never move or die before the Profiler, so
// a Scope keeps a plain pointer to its node; steady state is a short
// lock-free list walk and two atomic adds per scope.
// `snapshot()` flattens the tree sorted by path — the *structure* is
// deterministic for a deterministic run even though the wall durations are
// not, and `merge_snapshots` folds per-run snapshots together in argument
// order so a PDS_BENCH_JOBS sweep merges identically however runs were
// scheduled across workers.
//
// Wall-clock readings never feed simulation state; a detached (null)
// profiler costs one pointer compare per scope.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pds::obs {

class Profiler {
 public:
  Profiler();
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // One scope path's accumulator (defined in profiler.cc).
  struct Node;

  // RAII scope. Inert when `profiler` is null: the null test is inline, so
  // a detached scope makes no call; the attached path stays out of line.
  class Scope {
   public:
    Scope(Profiler* profiler, const char* name) {
      if (profiler != nullptr) enter(profiler, name);
    }
    ~Scope() {
      if (profiler_ != nullptr) leave();
    }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    void enter(Profiler* profiler, const char* name);
    void leave();

    Profiler* profiler_ = nullptr;
    Node* node_ = nullptr;
    Node* parent_ = nullptr;
    std::int64_t start_ns_ = 0;
  };

  struct Entry {
    std::string path;  // "sim/radio/classify-shards"
    int depth = 0;
    std::int64_t ns = 0;
    std::uint64_t calls = 0;
  };

  // Flattened tree, sorted by path (deterministic structure).
  [[nodiscard]] std::vector<Entry> snapshot() const;

  // Folds many per-run snapshots into one, summing ns/calls by path; output
  // sorted by path regardless of input order.
  [[nodiscard]] static std::vector<Entry> merge_snapshots(
      const std::vector<std::vector<Entry>>& parts);

  // One NDJSON line `{"profile":[{"path":...,"depth":N,"ns":...,
  // "calls":...},...]}\n` — appended after a TimeSeries body so one file
  // carries both captures (tools/stats_analysis.h parses it back).
  [[nodiscard]] static std::string profile_json_line(
      const std::vector<Entry>& entries);

 private:
  // Finds or creates the child of `parent` (nullptr: a root) named `name`.
  // The hit path reads only the acquire-published child list; a miss
  // re-checks and links the new node under `mu_`.
  Node* intern(Node* parent, const char* name);

  mutable std::mutex mu_;
  // Owns every node, in creation order; guarded by `mu_`.
  std::vector<std::unique_ptr<Node>> nodes_;
  std::atomic<Node*> first_root_{nullptr};

  friend class Scope;
};

}  // namespace pds::obs

// Token-pasting indirection so two scopes on different lines coexist.
#define PDS_PROF_CONCAT_INNER(a, b) a##b
#define PDS_PROF_CONCAT(a, b) PDS_PROF_CONCAT_INNER(a, b)
// Opens a profiler scope for the rest of the enclosing block. `name` must be
// a literal registered in tools/telemetry_schema.h (pdslint
// `stats-schema`).
#define PDS_PROF_SCOPE(profiler, name)                  \
  const pds::obs::Profiler::Scope PDS_PROF_CONCAT(      \
      pds_prof_scope_, __LINE__)((profiler), (name))
