// Arrival-trace generation for the graph-service daemon.
//
// A production graph service sees requests arrive over time — steady background load,
// bursts from batch clients, and day-scale rate swings — not a fixed batch handed over at
// startup. The daemon (src/service/daemon.h) replays such a trace through the engine's
// SubmitAt() arrival mechanism; this module generates the traces. Three canonical arrival
// patterns are built in:
//
//   uniform — one request every ~mean_gap steps with ±50% jitter; the steady-state
//             baseline where queueing is driven purely by service-time variance.
//   bursty  — requests arrive in back-to-back clumps of burst_size with long quiet gaps
//             between clumps (the gap scales with burst_size so the *average* rate matches
//             the uniform pattern at equal mean_gap); stresses queue bounds and deadlines.
//   diurnal — a sinusoidal rate profile: gaps shrink to ~½·mean_gap at peak and stretch
//             to ~2·mean_gap in the trough over a fixed period; stresses sustained
//             throughput under slow load swings.
//
// Everything is deterministic: a (pattern, seed, shape) tuple always produces the same
// trace, byte-for-byte, on every platform — the repo-wide reproducibility currency
// (src/common/prng.h). Traces can also be saved to / loaded from a plain-text file
// ("arrival_step program source" per line) so a run can be replayed exactly, bisected, or
// hand-edited.

#ifndef SRC_SERVICE_TRACE_GEN_H_
#define SRC_SERVICE_TRACE_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/function_ref.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace cgraph {

// One service request: a named vertex program rooted at `source`, arriving at
// `arrival_step` scheduling steps into the run. For programs without a source concept
// (pagerank, wcc, scc, kcore) the source is carried but ignored by execution — and
// normalized away by the coalescer (src/service/request_table.h).
struct ServiceRequest {
  uint64_t arrival_step = 0;
  std::string program;
  VertexId source = 0;
};

enum class ArrivalPattern { kUniform, kBursty, kDiurnal };

// "uniform" / "bursty" / "diurnal".
const char* ArrivalPatternName(ArrivalPattern pattern);

struct TraceGenOptions {
  size_t num_requests = 1000;
  ArrivalPattern pattern = ArrivalPattern::kUniform;
  uint64_t seed = 42;
  // Target mean inter-arrival gap in scheduling steps (all patterns honor it on average).
  uint64_t mean_gap = 4;
  // Requests per clump under the bursty pattern (>= 1).
  uint64_t burst_size = 16;
  // Full period of the diurnal rate swing, in requests (>= 2).
  uint64_t diurnal_period = 256;
  // Programs drawn per request, uniformly (must be non-empty; repeats allowed to skew
  // the mix — {"pagerank","pagerank","sssp"} is 2:1).
  std::vector<std::string> programs;
  // Sources drawn per request, uniformly (must be non-empty). Small pools yield high
  // repeat probability, i.e. coalescing opportunity; see docs/service.md#fan-in.
  std::vector<VertexId> sources;
};

// Generates `num_requests` arrivals, sorted by (arrival_step, generation order).
// Deterministic in TraceGenOptions; no global state.
std::vector<ServiceRequest> GenerateArrivalTrace(const TraceGenOptions& options);

// Trace file round-trip: one "arrival_step program source" line per request; blank
// lines are skipped. SaveTrace returns false when the file cannot be opened.
// LoadTrace returns kNotFound when the file cannot be opened, and kInvalidArgument
// naming "path:line" for the first line that is not exactly three fields, whose arrival
// step is not a non-negative integer or is below the previous line's (the trace must
// be sorted), whose source is not a 32-bit vertex id, or that `check` rejects. `out`
// receives the requests before that line.
bool SaveTrace(const std::vector<ServiceRequest>& trace, const std::string& path);
Status LoadTrace(const std::string& path, std::vector<ServiceRequest>* out,
                 FunctionRef<Status(const ServiceRequest&)> check = {});

}  // namespace cgraph

#endif  // SRC_SERVICE_TRACE_GEN_H_
