#ifndef PXBENCH_SPANS_H_
#define PXBENCH_SPANS_H_

// The benchmark's own span recorder. Spans are opened around calls into
// the library's public functions (never inside src/), kept in memory and
// written once at exit. A disabled recorder records nothing: opening a
// span costs one branch.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pxbench {

inline constexpr std::int32_t kNoParent = -1;

struct Span {
  const char* name = "";   // static string: a layer-qualified call name
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = kNoParent;
  std::uint32_t request = 0;  // request id shared by a request's spans

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span as a child of the innermost open span; returns its index
  /// (kNoParent when disabled).
  std::int32_t Open(const char* name, std::uint32_t request);
  void Close(std::int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as one JSON array; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  std::int64_t NowNs() const;

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::int32_t innermost_ = kNoParent;
};

/// RAII span; a null or disabled recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::uint32_t request)
      : recorder_(recorder != nullptr && recorder->enabled() ? recorder
                                                              : nullptr),
        index_(recorder_ != nullptr ? recorder_->Open(name, request)
                                    : kNoParent) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int32_t index_;
};

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals clipped to its own interval (children may
/// overlap one another, e.g. when issued from several threads).
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

/// Self times and durations (ns) grouped by span name.
struct SpanTimes {
  std::vector<double> self_ns;
  std::vector<double> total_ns;
};
std::map<std::string, SpanTimes> GroupByName(const std::vector<Span>& spans);

}  // namespace pxbench

#endif  // PXBENCH_SPANS_H_
