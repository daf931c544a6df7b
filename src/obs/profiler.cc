#include "obs/profiler.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "obs/report.h"

namespace pds::obs {

struct Profiler::Node {
  const char* name;
  Node* parent;        // nullptr = root
  std::size_t index;   // creation order; parents precede their children
  Node* next_sibling;  // set before the node is published, then constant
  std::atomic<Node*> first_child{nullptr};
  std::atomic<std::int64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};

  Node(const char* n, Node* p, std::size_t i, Node* next)
      : name(n), parent(p), index(i), next_sibling(next) {}
};

Profiler::Profiler() = default;
Profiler::~Profiler() = default;

namespace {

// Wall-clock source. The profiler is the one library component allowed to
// read the host clock (pdslint wall-clock allowlist): its readings feed only
// wall-side observability output, never simulation state.
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Current open scope per thread: nesting parent for the next Scope opened on
// this thread against the same profiler. A scope opened against a different
// profiler starts its own root — interleaved profilers stay independent.
struct Cursor {
  const Profiler* profiler = nullptr;
  Profiler::Node* node = nullptr;
};
thread_local Cursor t_cursor;

Profiler::Node* find_named(Profiler::Node* first, const char* name) {
  for (Profiler::Node* n = first; n != nullptr; n = n->next_sibling) {
    if (n->name == name || std::strcmp(n->name, name) == 0) return n;
  }
  return nullptr;
}

}  // namespace

Profiler::Node* Profiler::intern(Node* parent, const char* name) {
  std::atomic<Node*>& head =
      parent != nullptr ? parent->first_child : first_root_;
  if (Node* hit = find_named(head.load(std::memory_order_acquire), name)) {
    return hit;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  // Another thread may have created it between the walk and the lock.
  Node* first = head.load(std::memory_order_relaxed);
  if (Node* hit = find_named(first, name)) return hit;
  nodes_.push_back(std::make_unique<Node>(name, parent, nodes_.size(), first));
  Node* node = nodes_.back().get();
  head.store(node, std::memory_order_release);
  return node;
}

void Profiler::Scope::enter(Profiler* profiler, const char* name) {
  profiler_ = profiler;
  parent_ = t_cursor.profiler == profiler ? t_cursor.node : nullptr;
  node_ = profiler->intern(parent_, name);
  t_cursor = Cursor{profiler, node_};
  start_ns_ = now_ns();
}

void Profiler::Scope::leave() {
  const std::int64_t elapsed = now_ns() - start_ns_;
  node_->ns.fetch_add(elapsed, std::memory_order_relaxed);
  node_->calls.fetch_add(1, std::memory_order_relaxed);
  t_cursor = Cursor{profiler_, parent_};
}

std::vector<Profiler::Entry> Profiler::snapshot() const {
  std::vector<Entry> out;
  std::vector<std::string> paths;
  std::vector<int> depths;
  const std::lock_guard<std::mutex> lock(mu_);
  paths.resize(nodes_.size());
  depths.resize(nodes_.size(), 0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = *nodes_[i];
    if (n.parent == nullptr) {
      paths[i] = n.name;
      depths[i] = 0;
    } else {
      // Parents are always interned before their children, so parent paths
      // are already built when we reach `i`.
      paths[i] = paths[n.parent->index] + "/" + n.name;
      depths[i] = depths[n.parent->index] + 1;
    }
    out.push_back(Entry{paths[i], depths[i],
                        n.ns.load(std::memory_order_relaxed),
                        n.calls.load(std::memory_order_relaxed)});
  }
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.path < b.path; });
  return out;
}

std::vector<Profiler::Entry> Profiler::merge_snapshots(
    const std::vector<std::vector<Entry>>& parts) {
  std::vector<Entry> out;
  for (const std::vector<Entry>& part : parts) {
    for (const Entry& e : part) {
      auto it = std::find_if(out.begin(), out.end(), [&](const Entry& o) {
        return o.path == e.path;
      });
      if (it == out.end()) {
        out.push_back(e);
      } else {
        it->ns += e.ns;
        it->calls += e.calls;
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.path < b.path; });
  return out;
}

std::string Profiler::profile_json_line(const std::vector<Entry>& entries) {
  std::string out = "{\"profile\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    if (i > 0) out += ',';
    out += "{\"path\":";
    append_json_string(out, e.path);
    out += ",\"depth\":";
    append_json_double(out, static_cast<double>(e.depth));
    out += ",\"ns\":";
    append_json_double(out, static_cast<double>(e.ns));
    out += ",\"calls\":";
    append_json_double(out, static_cast<double>(e.calls));
    out += '}';
  }
  out += "]}\n";
  return out;
}

}  // namespace pds::obs
