#ifndef PXML_OBS_TRACE_H_
#define PXML_OBS_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace pxml {
namespace obs {

/// Sentinel span index: "no parent" / "no span recorded".
inline constexpr std::uint32_t kNoSpan = 0xffffffffu;

/// One key/value attached to a span. Keys are static C strings (span and
/// arg names come from string literals at instrumentation sites); values
/// are unsigned integers, doubles, or short strings.
struct SpanArg {
  enum class Type : std::uint8_t { kUint, kDouble, kString };

  const char* key = "";
  Type type = Type::kUint;
  std::uint64_t u = 0;
  double d = 0.0;
  std::string s;
};

/// One closed span: a named [start, start+dur) interval on one thread,
/// with its parent (the innermost span open on the same thread in the
/// same session when it opened) and its attached args. Timestamps are
/// nanoseconds since the session epoch.
struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t parent = kNoSpan;
  std::uint32_t tid = 0;  ///< small per-session thread number
  bool closed = false;
  std::vector<SpanArg> args;
};

/// A per-query (or per-batch, or per-bench-run) collection of trace
/// spans, exportable as Chrome trace-event JSON (load the file in
/// chrome://tracing or https://ui.perfetto.dev).
///
/// Lifecycle: instrumented code receives a `TraceSession*` through its
/// hooks/arguments — nullptr when tracing is off — and opens RAII
/// `TraceSpan`s against it. The disabled path is a single branch on that
/// null pointer: no clock read, no lock, no allocation (the cost
/// contract of DESIGN.md §10, verified by the bench_frozen_kernels
/// --check overhead gate). Tracing NEVER changes query answers — spans
/// observe the computation, they do not steer it (differentially tested
/// at 1/2/4/8 threads in tests/obs_test.cc).
///
/// Thread-safety: spans may open/close concurrently from pool workers; a
/// mutex guards the span vector. Parent linkage is per-thread (a
/// thread-local stack of open spans), so a span opened on a worker
/// thread that has no open ancestor on that thread becomes a root span —
/// which is exactly how Chrome's trace viewer renders per-thread tracks.
///
/// Reading spans()/export while spans are still open on other threads is
/// a data race by contract — quiesce first (the engine reads only after
/// its TaskGroup::Wait).
class TraceSession {
 public:
  TraceSession();

  /// Nanoseconds since the session epoch (steady clock).
  std::uint64_t NowNs() const;

  /// All spans recorded so far, in open order. Open spans have
  /// closed == false and undefined dur_ns.
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Sum of the durations of `parent`'s direct children. With
  /// kNoSpan, sums the root spans. Used by the coverage acceptance
  /// check ("the span tree covers >= 95% of measured wall time").
  std::uint64_t ChildDurationNs(std::uint32_t parent) const;

  std::string ToChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

  /// Clears the session for reuse: spans and thread numbering are
  /// dropped, the epoch restarts at now. Capacity is *retained* — the
  /// span vector keeps its allocation and every span's arg vector is
  /// recycled into an internal freelist that OpenSpan hands back out —
  /// so a pooled session (the engine's tail-sampling pool, DESIGN.md
  /// §13) stops allocating once warm and its discard path frees nothing.
  /// Caller must have quiesced the session (same contract as spans()).
  void Reset();

 private:
  friend class TraceSpan;

  /// Reserves a span slot, stamps start time/tid/parent, pushes it on
  /// the calling thread's open stack. Returns the span index. A non-null
  /// `args_out` (TraceSpan's local arg buffer, empty) receives a recycled
  /// arg vector from the Reset freelist when one is available, so arg
  /// capacity survives session reuse.
  std::uint32_t OpenSpan(const char* name, std::vector<SpanArg>* args_out);
  /// Stamps the duration, attaches args, pops the thread's open stack.
  void CloseSpan(std::uint32_t index, std::vector<SpanArg> args);

  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::unordered_map<std::thread::id, std::uint32_t> tids_;
  /// Cleared-but-capacitated arg vectors recycled by Reset (guarded by
  /// mu_, handed out by OpenSpan).
  std::vector<std::vector<SpanArg>> arg_pool_;
};

/// RAII span handle. Constructed against a null session it is inert: the
/// constructor and destructor are one pointer test each, and Arg() is a
/// no-op. Args are buffered locally and attached on close, so a span
/// takes the session lock exactly twice regardless of arg count.
///
/// Must be closed on the thread that opened it (it lives on the stack).
class TraceSpan {
 public:
  TraceSpan(TraceSession* session, const char* name) : session_(session) {
    // In the body (not the init list) so args_ is constructed before
    // OpenSpan hands it a recycled buffer.
    index_ = session != nullptr ? session->OpenSpan(name, &args_) : kNoSpan;
  }
  ~TraceSpan() { End(); }

  /// Closes the span before its scope ends; later calls (and the
  /// destructor) do nothing. Spans on one thread must still close
  /// innermost first.
  void End() {
    if (session_ == nullptr) return;
    session_->CloseSpan(index_, std::move(args_));
    session_ = nullptr;
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool enabled() const { return session_ != nullptr; }
  /// The span's index in the session (kNoSpan when disabled).
  std::uint32_t index() const { return index_; }

  void Arg(const char* key, std::uint64_t v) {
    if (session_ == nullptr) return;
    SpanArg a;
    a.key = key;
    a.type = SpanArg::Type::kUint;
    a.u = v;
    args_.push_back(std::move(a));
  }
  void Arg(const char* key, double v) {
    if (session_ == nullptr) return;
    SpanArg a;
    a.key = key;
    a.type = SpanArg::Type::kDouble;
    a.d = v;
    args_.push_back(std::move(a));
  }
  void Arg(const char* key, const char* v) {
    if (session_ == nullptr) return;
    SpanArg a;
    a.key = key;
    a.type = SpanArg::Type::kString;
    a.s = v;
    args_.push_back(std::move(a));
  }

 private:
  TraceSession* session_;
  std::uint32_t index_;
  std::vector<SpanArg> args_;
};

}  // namespace obs
}  // namespace pxml

#endif  // PXML_OBS_TRACE_H_
