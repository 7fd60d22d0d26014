#include "src/service/trace_gen.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string_view>

#include "src/common/check.h"
#include "src/common/prng.h"
#include "src/common/strings.h"

namespace cgraph {

const char* ArrivalPatternName(ArrivalPattern pattern) {
  switch (pattern) {
    case ArrivalPattern::kUniform:
      return "uniform";
    case ArrivalPattern::kBursty:
      return "bursty";
    case ArrivalPattern::kDiurnal:
      return "diurnal";
  }
  return "unknown";
}

namespace {

// Jittered gap draw: uniform over [gap/2, 3*gap/2], mean exactly `gap` for even gaps.
// gap == 0 degenerates to back-to-back arrivals.
uint64_t JitteredGap(Xoshiro256& rng, uint64_t gap) {
  if (gap == 0) {
    return 0;
  }
  const uint64_t lo = gap - gap / 2;
  return lo + rng.NextBounded(gap + 1);
}

}  // namespace

std::vector<ServiceRequest> GenerateArrivalTrace(const TraceGenOptions& options) {
  CGRAPH_CHECK(!options.programs.empty());
  CGRAPH_CHECK(!options.sources.empty());
  CGRAPH_CHECK(options.burst_size >= 1);
  CGRAPH_CHECK(options.diurnal_period >= 2);

  Xoshiro256 rng(options.seed);
  std::vector<ServiceRequest> trace;
  trace.reserve(options.num_requests);

  uint64_t step = 0;
  for (size_t i = 0; i < options.num_requests; ++i) {
    ServiceRequest req;
    req.arrival_step = step;
    req.program = options.programs[rng.NextBounded(options.programs.size())];
    req.source = options.sources[rng.NextBounded(options.sources.size())];
    trace.push_back(std::move(req));

    // Advance the clock to the next arrival. Gaps are drawn *after* emitting so the
    // first request of every trace arrives at step 0 regardless of pattern.
    switch (options.pattern) {
      case ArrivalPattern::kUniform:
        step += JitteredGap(rng, options.mean_gap);
        break;
      case ArrivalPattern::kBursty:
        // Clump boundary every burst_size requests: the quiet gap carries the whole
        // clump's worth of inter-arrival budget, so the average rate matches uniform.
        if ((i + 1) % options.burst_size == 0) {
          step += JitteredGap(rng, options.mean_gap * options.burst_size);
        }
        break;
      case ArrivalPattern::kDiurnal: {
        // Rate swings sinusoidally with the request index: modulation in [0.5, 2.0]
        // (peak rate = half the mean gap, trough = double). Scaled integer math keeps
        // the draw deterministic across libms up to std::sin, which is faithfully
        // rounded for these arguments on every platform we build on.
        const double phase = 2.0 * 3.14159265358979323846 *
                             static_cast<double>(i % options.diurnal_period) /
                             static_cast<double>(options.diurnal_period);
        const double modulation = 1.25 + 0.75 * std::sin(phase);  // [0.5, 2.0]
        const uint64_t gap =
            static_cast<uint64_t>(std::llround(static_cast<double>(options.mean_gap) *
                                               modulation));
        step += JitteredGap(rng, gap);
        break;
      }
    }
  }
  return trace;
}

bool SaveTrace(const std::vector<ServiceRequest>& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  for (const ServiceRequest& req : trace) {
    out << req.arrival_step << ' ' << req.program << ' ' << req.source << '\n';
  }
  return static_cast<bool>(out);
}

Status LoadTrace(const std::string& path, std::vector<ServiceRequest>* out,
                 FunctionRef<Status(const ServiceRequest&)> check) {
  out->clear();
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open trace " + path);
  }
  std::string line;
  for (size_t line_no = 1; std::getline(in, line); ++line_no) {
    const std::vector<std::string_view> fields = SplitNonEmpty(line, " \t\r");
    if (fields.empty()) {
      continue;
    }
    const auto error = [&](const std::string& what) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) + ": " + what);
    };
    if (fields.size() != 3) {
      return error("expected 'arrival_step program source'");
    }
    ServiceRequest req;
    if (!ParseUint64(fields[0], &req.arrival_step)) {
      return error("arrival step must be a non-negative integer");
    }
    if (!out->empty() && req.arrival_step < out->back().arrival_step) {
      return error("arrival step " + std::to_string(req.arrival_step) +
                   " is below the previous line's; the trace must be sorted");
    }
    req.program = fields[1];
    uint64_t source = 0;
    if (!ParseUint64(fields[2], &source) || source >= kInvalidVertex) {
      return error("source must be a 32-bit vertex id");
    }
    req.source = static_cast<VertexId>(source);
    if (check) {
      const Status status = check(req);
      if (!status.ok()) {
        return error(status.message());
      }
    }
    out->push_back(std::move(req));
  }
  return Status::Ok();
}

}  // namespace cgraph
