// In-memory span recorder for the benchmark's traced run.
//
// A span covers one call into the engine's public API (generate, partition, submit,
// step, service replay, ...) and records its name, start, duration, the span that
// opened around it and the job it served. Spans are kept in memory and written once,
// at the end, as Chrome-trace JSON (chrome://tracing or https://ui.perfetto.dev).
//
// The tracer is only consulted on the traced run: untraced rounds never call into it,
// so they read the clock O(jobs) times per round instead of once per step.

#ifndef BENCHMARK_SPANS_H_
#define BENCHMARK_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/timer.h"

namespace cgraph_bench {

// Parent/job value for spans without one.
inline constexpr int64_t kNone = -1;

struct Span {
  const char* name = "";  // A string literal naming the layer call, e.g. "core.step".
  double start_s = 0.0;   // Seconds since the tracer was created.
  double dur_s = 0.0;
  int64_t parent = kNone;  // Index of the enclosing span.
  int64_t job = kNone;     // Engine job id the call served.
};

class Tracer {
 public:
  // Opens a span starting now; returns its id for Close() and for children's `parent`.
  int64_t Open(const char* name, int64_t parent, int64_t job = kNone);
  void Close(int64_t id);

  const std::vector<Span>& spans() const { return spans_; }

  // Sum of the durations of spans named `name` whose parent is `parent`.
  double ChildSeconds(int64_t parent, const char* name) const;
  // Durations of all spans named `name`, in record order.
  std::vector<double> Durations(const char* name) const;
  // Duration of span `id` minus the time its direct children cover.
  double SelfSeconds(int64_t id) const;

  // Writes every span as a Chrome-trace "X" event. Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  cgraph::WallTimer clock_;
  std::vector<Span> spans_;
};

// Runs `fn` inside a span when `tracer` is non-null, and bare otherwise.
template <typename Fn>
decltype(auto) Traced(Tracer* tracer, const char* name, int64_t parent, int64_t job,
                      Fn&& fn) {
  if (tracer == nullptr) {
    return fn();
  }
  struct Closer {
    Tracer* tracer;
    int64_t id;
    ~Closer() { tracer->Close(id); }
  } closer{tracer, tracer->Open(name, parent, job)};
  return fn();
}

}  // namespace cgraph_bench

#endif  // BENCHMARK_SPANS_H_
