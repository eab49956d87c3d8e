// In-memory span recorder for the traced run. Each span has a name, a
// start and end (milliseconds since the recorder was created, steady
// clock) and the index of the span that was open when it began. Spans
// are recorded by the benchmark around its calls into each layer's public
// functions; nothing inside the library is instrumented. The recorder is
// single-threaded: spans nest strictly.
//
// A span's layer is its name up to the first '.', e.g. "centrace.run"
// belongs to "centrace". A layer's self time is the summed duration of
// its spans minus the part of each covered by child spans.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  /// A disabled recorder records nothing (end-to-end runs).
  explicit SpanRecorder(bool enabled);

  /// RAII span: opened on construction, closed on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int index_ = -1;
  };

  /// Self time per layer, in milliseconds.
  std::map<std::string, double> self_ms_by_layer() const;

  /// Write one JSON object per span ({"name","start_ms","end_ms",
  /// "parent"}; parent -1 = root). Returns false on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
  };

  double now_ms() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
