#ifndef ISQLBENCH_TRACE_H_
#define ISQLBENCH_TRACE_H_

// Spans for the traced run: name, start, end, parent span and statement
// id, recorded by the benchmark's own code around each call into a layer,
// kept in memory and written to one file when the run ends.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace isqlbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;  // index of the enclosing span, -1 at top level
    int64_t stmt;    // statement id, -1 when the span is not per statement
  };

  /// Opens a span under the calling thread's innermost open span.
  int64_t Begin(const char* name, int64_t stmt) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, NowNs(), 0, Current(), stmt});
    Current() = static_cast<int64_t>(spans_.size()) - 1;
    return Current();
  }

  /// Closes span `id`; returns its duration in nanoseconds.
  int64_t End(int64_t id) {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_ns = now;
    Current() = s.parent;
    return s.end_ns - s.start_ns;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Writes one JSON object per line; returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld,\"stmt\":%lld}\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.stmt));
    }
    return std::fclose(f) == 0;
  }

 private:
  static int64_t& Current() {
    thread_local int64_t current = -1;
    return current;
  }

  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times a scope as a span; ms() reads the duration once closed. A null
/// tracer makes it a plain stopwatch (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t stmt = -1)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(name, stmt) : -1),
        start_ns_(NowNs()) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span (idempotent) and returns its duration in ms.
  double Close() {
    if (end_ns_ == 0) {
      end_ns_ = NowNs();
      if (tracer_ != nullptr) tracer_->End(id_);
    }
    return static_cast<double>(end_ns_ - start_ns_) / 1e6;
  }

 private:
  Tracer* tracer_;
  int64_t id_;
  int64_t start_ns_;
  int64_t end_ns_ = 0;
};

}  // namespace isqlbench

#endif  // ISQLBENCH_TRACE_H_
