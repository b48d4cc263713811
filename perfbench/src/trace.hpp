// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code around each call
// into a gana layer: name, start, end, parent span, and the id of the
// operation (circuit, edit, request) they belong to. Nothing is written
// until the run ends; then the spans are exported as Chrome trace-event
// JSON (chrome://tracing, Perfetto) and reduced to per-layer self times.
//
// A disabled recorder makes Scope a branch and nothing else, so the
// untraced replay runs the same code with the spans switched off; the
// difference between the two is the tracing overhead.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

struct Span {
  const char* name = nullptr;  ///< static string: layer.call
  double start = 0.0;          ///< monotonic seconds
  double end = 0.0;
  int parent = -1;             ///< index into Tracer::spans, -1 = root
  std::uint64_t op = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  int begin(const char* name, std::uint64_t op);
  void end(int index);
  /// Renames a span (for spans whose layer is known only after the call).
  void rename(int index, const char* name) {
    spans_[static_cast<std::size_t>(index)].name = name;
  }

  /// Self time per span name (seconds): each span's duration minus the
  /// part covered by its direct children.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Share of the root spans' time that no child span covers.
  [[nodiscard]] double unaccounted_frac() const;
  /// Writes the spans as Chrome trace-event JSON ("X" complete events,
  /// microseconds from the first span; args carry op and parent).
  void write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; no-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint64_t op)
      : t_(t), index_(t.enabled() ? t.begin(name, op) : -1) {}
  ~Scope() {
    if (index_ >= 0) t_.end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int index_;
};

}  // namespace pb
