#include "spans.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now_ms() const {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   origin_)
      .count();
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name) : recorder_(recorder) {
  if (!recorder_.enabled_) return;
  index_ = static_cast<int>(recorder_.spans_.size());
  const int parent = recorder_.open_.empty() ? -1 : recorder_.open_.back();
  recorder_.spans_.push_back({std::move(name), recorder_.now_ms(), 0.0, parent});
  recorder_.open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  recorder_.spans_[static_cast<std::size_t>(index_)].end_ms = recorder_.now_ms();
  recorder_.open_.pop_back();
}

std::map<std::string, double> SpanRecorder::self_ms_by_layer() const {
  // Children never overlap each other (one thread, strict nesting), so
  // the covered part of a span is the sum of its children's durations.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name.substr(0, s.name.find('.'))] += (s.end_ms - s.start_ms) - child_ms[i];
  }
  return out;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char buf[96];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf), "\",\"start_ms\":%.6f,\"end_ms\":%.6f,\"parent\":%d}\n",
                  s.start_ms, s.end_ms, s.parent);
    out << "{\"name\":\"" << s.name << buf;
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
