#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace pxbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

std::int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::int32_t SpanRecorder::Open(const char* name, std::uint32_t request) {
  if (!enabled_) return kNoParent;
  Span s;
  s.name = name;
  s.parent = innermost_;
  s.request = request;
  s.start_ns = NowNs();
  spans_.push_back(s);
  innermost_ = static_cast<std::int32_t>(spans_.size() - 1);
  return innermost_;
}

void SpanRecorder::Close(std::int32_t index) {
  if (!enabled_ || index < 0) return;
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = NowNs();
  innermost_ = s.parent;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"request\":%u}\n",
                 i == 0 ? "" : ",", i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.request);
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = 0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (b <= a) continue;
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = a;
      run_end = b;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = s.duration_ns() - covered;
  }
  return self;
}

std::map<std::string, SpanTimes> GroupByName(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = SelfTimes(spans);
  std::map<std::string, SpanTimes> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTimes& t = out[spans[i].name];
    t.self_ns.push_back(static_cast<double>(self[i]));
    t.total_ns.push_back(static_cast<double>(spans[i].duration_ns()));
  }
  return out;
}

}  // namespace pxbench
