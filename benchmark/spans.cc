#include "benchmark/spans.h"

#include <cstdio>
#include <cstring>

namespace cgraph_bench {

int64_t Tracer::Open(const char* name, int64_t parent, int64_t job) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.job = job;
  span.start_s = clock_.ElapsedSeconds();
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::Close(int64_t id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.dur_s = clock_.ElapsedSeconds() - span.start_s;
}

double Tracer::ChildSeconds(int64_t parent, const char* name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == parent && std::strcmp(s.name, name) == 0) {
      total += s.dur_s;
    }
  }
  return total;
}

std::vector<double> Tracer::Durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(s.dur_s);
    }
  }
  return out;
}

double Tracer::SelfSeconds(int64_t id) const {
  double self = spans_[static_cast<size_t>(id)].dur_s;
  for (const Span& s : spans_) {
    if (s.parent == id) {
      self -= s.dur_s;
    }
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%lld,"
                 "\"job\":%lld}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<int>(std::strcspn(s.name, ".")), s.name, s.start_s * 1e6,
                 s.dur_s * 1e6, i, static_cast<long long>(s.parent),
                 static_cast<long long>(s.job));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace cgraph_bench
