// Discrete-event simulator: virtual clock plus event queue plus root RNG.
#pragma once

#include <cstdint>
#include <functional>

#include "common/rng.h"
#include "common/sim_time.h"
#include "sim/event_queue.h"

namespace pds::obs {
class Profiler;
class TimeSeries;
class Tracer;
}  // namespace pds::obs

namespace pds::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed,
                     SchedulerKind scheduler = SchedulerKind::kCalendar)
      : queue_(scheduler), rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  // Observability hooks. Each observer is owned by the caller (Scenario or
  // test) and is either attached or null; null is the one off state.
  //
  // Structured-event tracer: subsystems guard every emit on the pointer.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

  // Sim-time resource sampler (obs/timeseries.h), owned by the caller. The
  // run loop commits a row at every interval boundary the clock crosses —
  // before executing the event that crosses it, so a row reflects the state
  // "just before t". A detached sampler costs one pointer compare per event
  // (gated <1% like the tracer).
  void set_sampler(obs::TimeSeries* sampler) { sampler_ = sampler; }
  [[nodiscard]] obs::TimeSeries* sampler() const { return sampler_; }

  // Scoped wall-clock profiler (obs/profiler.h), owned by the caller;
  // subsystems open PDS_PROF_SCOPE scopes against it. Wall readings never
  // feed simulation state.
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }
  [[nodiscard]] obs::Profiler* profiler() const { return profiler_; }

  // Schedule `action` to run `delay` after the current time.
  EventQueue::EventId schedule(SimTime delay, EventQueue::Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }
  EventQueue::EventId schedule_at(SimTime when, EventQueue::Action action);
  void cancel(EventQueue::EventId id) { queue_.cancel(id); }

  // Run until the queue drains, `stop()` is called, or the horizon passes.
  void run(SimTime horizon = SimTime::max());
  void stop() { stopped_ = true; }

  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }
  [[nodiscard]] SchedulerKind scheduler() const { return queue_.kind(); }
  // Read-only queue view for occupancy sampling (size, ring/overflow split).
  [[nodiscard]] const EventQueue& queue() const { return queue_; }

 private:
  SimTime now_ = SimTime::zero();
  EventQueue queue_;
  Rng rng_;
  bool stopped_ = false;
  std::uint64_t events_executed_ = 0;
  obs::Tracer* tracer_ = nullptr;
  obs::TimeSeries* sampler_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
};

}  // namespace pds::sim
