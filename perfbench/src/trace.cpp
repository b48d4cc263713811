#include "trace.hpp"

#include <cstdio>

#include "common.hpp"

namespace pb {

int Tracer::begin(const char* name, std::uint64_t op) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = stack_.empty() ? -1 : stack_.back();
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(index);
  spans_.back().start = now();
  return index;
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end = now();
  stack_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += (spans_[i].end - spans_[i].start) - child[i];
  }
  return out;
}

double Tracer::unaccounted_frac() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  double root = 0.0, uncovered = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) continue;
    const double d = spans_[i].end - spans_[i].start;
    root += d;
    uncovered += d - child[i];
  }
  return root > 0.0 ? uncovered / root : 0.0;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) die("cannot write " + path);
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"parent\":%d}}",
                 i ? ",\n" : "\n", s.name, (s.start - t0) * 1e6,
                 (s.end - s.start) * 1e6,
                 static_cast<unsigned long long>(s.op), s.parent);
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", f);
  std::fclose(f);
}

}  // namespace pb
