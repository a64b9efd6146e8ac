// pxbench: the PXML benchmark runner.
//
//   pxbench --workload fig7_pipeline|engine_read --seed N --seconds S
//           --trace 0|1 [--out-dir DIR] [--source-sha HEX]
//
// Generates the workload's inputs and its fixed request list from the
// seed, writes the input document, then sets up several times (parse,
// engine construction, warm-up) and runs the whole request list once on
// one client thread. The list's length is a fixed function of --seconds,
// so every run with the same arguments does the same work. Correctness
// gates run after the timed phase. The last stdout line is the result
// JSON; the line before it stamps host, toolchain and inputs.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs a shorter list
// twice, untraced and then with the benchmark's own spans around each
// library call, and reports the per-layer metrics plus the tracing
// overhead. engine_read's traced run also runs the commit probe and the
// pool probe (README.md, "Per-layer metrics").

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/projection.h"
#include "algebra/selection.h"
#include "env.h"
#include "gates.h"
#include "obs/metrics.h"
#include "query/engine.h"
#include "query/frozen.h"
#include "query/point_queries.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace pxbench {
namespace {

using Clock = std::chrono::steady_clock;
using pxml::BatchQuery;
using pxml::ProbabilisticInstance;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- Run sizing. One run does a fixed amount of work per second of
// --seconds; the rates were calibrated so a run's timed phase lasts about
// --seconds on a 4-vCPU x86-64 host.
constexpr double kFig7RoundsPerSecond = 25.0;
constexpr double kReadBatchesPerSecond = 220.0;
/// A traced run runs several passes and reports self times and counts, so
/// its lists are this share of an untraced run's.
constexpr double kTraceWorkShare = 0.25;
/// engine_read runs the serial path. Its traced run adds one pass at
/// kPoolThreads to measure util/thread_pool (see README.md).
constexpr std::size_t kEngineThreads = 1;
constexpr std::size_t kPoolThreads = 2;
/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupReps = 15;
constexpr std::size_t kWarmupRounds = 1;
constexpr std::size_t kWarmupBatches = 16;
/// fig7_pipeline outputs kept aside and re-read by the output gate.
constexpr std::size_t kOutputSamples = 16;
/// Commit-probe batches re-answered by a fresh engine after serial replay.
constexpr std::size_t kReplaySamples = 16;
/// The donor instance's seed, relative to the run seed.
constexpr std::uint64_t kDonorSeedOffset = 0x5EED;

[[noreturn]] void Fail(const std::string& what, const pxml::Status& status) {
  std::fprintf(stderr, "pxbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Unwrap(pxml::Result<T> r, const char* what) {
  if (!r.ok()) Fail(what, r.status());
  return std::move(r).ValueOrDie();
}

struct Args {
  Workload workload = Workload::kFig7Pipeline;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/out";
  std::string source_sha = "unknown";
};

/// Seconds' worth of requests in this run's lists.
double WorkSeconds(const Args& args) {
  return static_cast<double>(args.seconds) *
         (args.trace ? kTraceWorkShare : 1.0);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      auto w = ParseWorkload(value);
      if (!w) return false;
      args->workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || args->seconds == 0) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else if (key == "--source-sha") {
      args->source_sha = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

/// Named metrics with units, printed in a fixed order.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    if (values_.find(name) == values_.end()) order_.push_back(name);
    values_[name] = {value, unit};
  }
  std::string Json() const {
    JsonObject out;
    for (const std::string& name : order_) {
      const auto& [value, unit] = values_.at(name);
      out.Raw(name, JsonObject().Num("value", value).Str("unit", unit).str());
    }
    return out.str();
  }

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, const char*>> values_;
};

/// Every per-layer metric, reported on every workload (0 where the
/// workload does not exercise the layer).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"xml.parse_s", "s"},
    {"xml.parse_mb_per_s", "MB/s"},
    {"xml.write_project_ms_p50", "ms"},
    {"xml.write_select_ms_p50", "ms"},
    {"xml.write_share", "ratio"},
    {"xml.bytes_per_object", "B/object"},
    {"core.copy_ms_p50", "ms"},
    {"algebra.project_ms_p50", "ms"},
    {"algebra.select_ms_p50", "ms"},
    {"algebra.opf_row_ops", "count"},
    {"algebra.kept_objects", "count"},
    {"algebra.bytes_allocated", "B"},
    {"engine.construct_s", "s"},
    {"engine.overhead_us_per_query", "us"},
    {"engine.begin_ms", "ms"},
    {"engine.update_ms", "ms"},
    {"engine.publish_ms", "ms"},
    {"frozen.refreeze_recompiled_per_commit", "count"},
    {"engine.live_snapshots_max", "count"},
    {"kernel.point_us", "us"},
    {"kernel.exists_us", "us"},
    {"kernel.value_us", "us"},
    {"kernel.condition_us", "us"},
    {"query.opf_row_ops_per_query", "count"},
    {"query.epsilon_recomputed_per_query", "count"},
    {"query.frozen_pass_share", "ratio"},
    {"query.bytes_allocated_per_query", "B"},
    {"cache.memo_hit_ratio", "ratio"},
    {"cache.memo_invalidated_per_batch", "count"},
    {"query.repeat_share", "ratio"},
    {"pool.tasks_per_batch", "count"},
    {"pool.steals_per_batch", "count"},
    {"pool.cpu_per_wall", "ratio"},
    {"pool.ops_ratio", "ratio"},
    {"trace.overhead_share", "ratio"},
};

/// Everything one run reports.
struct Report {
  Tally ops;    // timed operations and commits
  Tally gates;  // correctness checks
  MetricSet metrics;
  std::map<std::string, double> layer;  // per-layer values by name
  JsonObject inputs;                    // instance shapes, request counts

  void FinishLayers() {
    for (const LayerMetric& m : kLayerMetrics) {
      auto it = layer.find(m.name);
      metrics.Set(m.name, it == layer.end() ? 0.0 : it->second, m.unit);
    }
  }
};

double NsToMs(double ns) { return ns * 1e-6; }

/// Median self time (ms) of the spans named `name`; 0 if none.
double MedianSelfMs(const std::map<std::string, SpanTimes>& by_name,
                    const char* name) {
  auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : NsToMs(Median(it->second.self_ns));
}
double SumTotalNs(const std::map<std::string, SpanTimes>& by_name,
                  const char* name) {
  auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : Sum(it->second.total_ns);
}
double SumSelfNs(const std::map<std::string, SpanTimes>& by_name,
                 const char* name) {
  auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : Sum(it->second.self_ns);
}

/// Set-up phase timings common to every workload.
struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> parse_s;
  std::vector<double> construct_s;
};

void ReportSetup(const SetupTimes& setup, std::uint64_t input_bytes,
                 Report* report) {
  report->metrics.Set("setup_s", Median(setup.total_s), "s");
  const double parse_s = Median(setup.parse_s);
  report->layer["xml.parse_s"] = parse_s;
  report->layer["xml.parse_mb_per_s"] =
      parse_s > 0 ? static_cast<double>(input_bytes) / 1e6 / parse_s : 0.0;
  if (!setup.construct_s.empty()) {
    report->layer["engine.construct_s"] = Median(setup.construct_s);
  }
}

/// The latency metric of one client-request distribution. There is no
/// central quantile: the host's fast and slow stretches make the latency
/// distribution bimodal, and the median jumps between the modes as their
/// mix changes (README.md, "Noise"). p90 sits inside the slow mode and must
/// have kMinSamplesBeyond samples above it.
void ReportLatency(const std::vector<double>& ms, Report* report) {
  report->metrics.Set("request_p90_ms", Quantile(ms, 0.9), "ms");
  if (!EnoughSamplesBeyond(ms.size(), 0.9)) {
    std::fprintf(stderr, "pxbench: only %zu request samples for p90\n",
                 ms.size());
    report->ops.Check(false);
  }
}

// ========================================================================
// fig7_pipeline

struct Fig7Pass {
  std::vector<double> round_ms;
  double wall_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t objects_written = 0;
  std::uint64_t projects = 0;
  std::uint64_t opf_row_ops = 0;
  std::uint64_t kept_objects = 0;
  std::uint64_t bytes_allocated = 0;
  /// Output documents kept aside for the output gate, with the object
  /// count the request reported.
  std::vector<std::pair<std::string, std::size_t>> samples;
};

/// One pipeline request; returns the result's object count (0 on failure)
/// after writing it to `out_path`.
std::size_t RunPipelineRequest(const ProbabilisticInstance& instance,
                               const PipelineRequest& request,
                               const std::string& out_path,
                               SpanRecorder* rec, std::uint32_t id,
                               Fig7Pass* pass) {
  std::optional<pxml::Result<ProbabilisticInstance>> result;
  std::size_t reported = 0;
  bool write_ok = false;
  if (request.kind == PipelineRequest::Kind::kProject) {
    ScopedSpan span(rec, "request.project", id);
    std::optional<ProbabilisticInstance> copy;
    {
      ScopedSpan s(rec, "core.copy", id);
      copy.emplace(instance);
    }
    pxml::ProjectionStats stats;
    {
      ScopedSpan s(rec, "algebra.project", id);
      result.emplace(pxml::AncestorProject(*copy, request.path, &stats));
    }
    if (result->ok()) {
      ScopedSpan s(rec, "xml.write/project", id);
      write_ok = pxml::WritePxmlFile(**result, out_path).ok();
    }
    reported = stats.kept_objects;
    if (pass != nullptr) {
      ++pass->projects;
      pass->opf_row_ops += stats.opf_row_ops;
      pass->kept_objects += stats.kept_objects;
      pass->bytes_allocated += stats.bytes_allocated;
    }
  } else {
    ScopedSpan span(rec, "request.select", id);
    {
      ScopedSpan s(rec, "algebra.select", id);
      result.emplace(pxml::Select(instance, request.condition));
    }
    if (result->ok()) {
      ScopedSpan s(rec, "xml.write/select", id);
      write_ok = pxml::WritePxmlFile(**result, out_path).ok();
      // Selection keeps every object; the chain's ℘ is conditioned.
      reported = (*result)->weak().num_objects();
    }
  }
  if (!write_ok || reported != (*result)->weak().num_objects()) return 0;
  return reported;
}

Fig7Pass RunFig7Pass(const ProbabilisticInstance& instance,
                     const std::vector<PipelineRequest>& requests,
                     std::size_t first, const std::string& out_dir,
                     SpanRecorder* rec, Report* report) {
  Fig7Pass pass;
  const std::string out_path = out_dir + "/fig7_out.pxml";
  const std::size_t count = requests.size() - first;
  const std::size_t sample_every = std::max<std::size_t>(1, count / kOutputSamples);
  pass.round_ms.reserve(count / kRequestsPerRound);
  const auto t_start = Clock::now();
  auto t_round = t_start;
  for (std::size_t i = first; i < requests.size(); ++i) {
    const std::size_t k = i - first;
    const bool sampled = k % sample_every == sample_every - 1;
    const std::string path =
        sampled ? out_dir + "/fig7_sample_" + std::to_string(k) + ".pxml"
                : out_path;
    const std::size_t objects = RunPipelineRequest(
        instance, requests[i], path, rec, static_cast<std::uint32_t>(i), &pass);
    const auto t_done = Clock::now();
    report->ops.Check(objects != 0);
    ++pass.requests;
    if (objects != 0) {
      std::error_code ec;
      const auto bytes = std::filesystem::file_size(path, ec);
      pass.bytes_written += ec ? 0 : bytes;
      pass.objects_written += objects;
      if (sampled) pass.samples.emplace_back(path, objects);
    }
    if (k % kRequestsPerRound == kRequestsPerRound - 1) {
      pass.round_ms.push_back(MsBetween(t_round, t_done));
      t_round = Clock::now();
    }
  }
  pass.wall_s = SecondsBetween(t_start, Clock::now());
  return pass;
}

void RunFig7(const Args& args, Report* report) {
  const std::string input = args.out_dir + "/fig7_input.pxml";
  {
    auto generated = Unwrap(pxml::GenerateBalancedTree(Fig7Config(args.seed)),
                            "generate");
    const pxml::Status st = pxml::WritePxmlFile(generated, input);
    if (!st.ok()) Fail("write input", st);
  }
  // Requests are built against the parsed document, whose object ids the
  // timed requests see.
  const std::uint64_t input_bytes = std::filesystem::file_size(input);
  const auto rounds =
      static_cast<std::size_t>(kFig7RoundsPerSecond * WorkSeconds(args));
  std::vector<PipelineRequest> requests;
  {
    auto parsed = Unwrap(pxml::ReadPxmlFile(input), "parse input");
    requests = Unwrap(
        MakePipelineRequests(parsed, args.seed, kWarmupRounds + rounds),
        "requests");
    report->inputs.Int("objects", parsed.weak().num_objects())
        .Int("opf_rows", parsed.TotalOpfEntries());
  }
  const std::size_t first = kWarmupRounds * kRequestsPerRound;
  report->inputs.Str("shape", "FR b=4 d=6 explicit, no leaf values")
      .Int("input_bytes", input_bytes)
      .Int("warmup_requests", first)
      .Int("timed_requests", requests.size() - first);

  SpanRecorder rec(args.trace);
  ResetPeakRss();
  SetupTimes setup;
  std::optional<ProbabilisticInstance> instance;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    instance.reset();
    const auto t0 = Clock::now();
    {
      ScopedSpan span(&rec, "setup", 0);
      {
        ScopedSpan s(&rec, "xml.parse", 0);
        instance.emplace(Unwrap(pxml::ReadPxmlFile(input), "parse input"));
      }
      const auto t_parsed = Clock::now();
      setup.parse_s.push_back(SecondsBetween(t0, t_parsed));
      for (std::size_t i = 0; i < first; ++i) {
        const std::size_t ok =
            RunPipelineRequest(*instance, requests[i],
                               args.out_dir + "/fig7_out.pxml", &rec,
                               static_cast<std::uint32_t>(i), nullptr);
        if (ok == 0) Fail("warm-up request", pxml::Status::Internal("failed"));
      }
    }
    setup.total_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  ReportSetup(setup, input_bytes, report);

  std::optional<Fig7Pass> untraced;
  if (args.trace) {
    SpanRecorder off(false);
    Report scratch;
    untraced = RunFig7Pass(*instance, requests, first, args.out_dir, &off,
                           &scratch);
  }
  const Fig7Pass pass =
      RunFig7Pass(*instance, requests, first, args.out_dir, &rec, report);
  const double peak_rss = PeakRssMiB();

  if (!args.trace) {
    report->metrics.Set("ops_per_s",
                        static_cast<double>(pass.requests) / pass.wall_s, "1/s");
    report->metrics.Set("peak_rss_mb", peak_rss, "MiB");
    ReportLatency(pass.round_ms, report);
  }
  report->layer["xml.bytes_per_object"] =
      pass.objects_written == 0
          ? 0.0
          : static_cast<double>(pass.bytes_written) /
                static_cast<double>(pass.objects_written);

  if (args.trace) {
    const auto by_name = GroupByName(rec.spans());
    report->layer["xml.write_project_ms_p50"] =
        MedianSelfMs(by_name, "xml.write/project");
    report->layer["xml.write_select_ms_p50"] =
        MedianSelfMs(by_name, "xml.write/select");
    const double request_ns = SumTotalNs(by_name, "request.project") +
                              SumTotalNs(by_name, "request.select");
    report->layer["xml.write_share"] =
        (SumSelfNs(by_name, "xml.write/project") +
         SumSelfNs(by_name, "xml.write/select")) /
        request_ns;
    report->layer["core.copy_ms_p50"] = MedianSelfMs(by_name, "core.copy");
    report->layer["algebra.project_ms_p50"] =
        MedianSelfMs(by_name, "algebra.project");
    report->layer["algebra.select_ms_p50"] =
        MedianSelfMs(by_name, "algebra.select");
    const double projects = static_cast<double>(std::max<std::uint64_t>(1, pass.projects));
    report->layer["algebra.opf_row_ops"] = static_cast<double>(pass.opf_row_ops) / projects;
    report->layer["algebra.kept_objects"] = static_cast<double>(pass.kept_objects) / projects;
    report->layer["algebra.bytes_allocated"] =
        static_cast<double>(pass.bytes_allocated) / projects;
    report->layer["trace.overhead_share"] = pass.wall_s / untraced->wall_s - 1.0;
    if (!rec.WriteJson(args.out_dir + "/spans_fig7_pipeline.json")) {
      Fail("write spans", pxml::Status::IoError(args.out_dir));
    }
  }

  // ---- gates
  for (const auto& [path, objects] : pass.samples) {
    report->gates.Check(OutputMatches(path, objects));
    std::remove(path.c_str());
  }
  report->gates.Add(OracleGate(args.seed));
  report->inputs.Int("output_samples", pass.samples.size());
}

// ========================================================================
// engine_read

const char* KernelSpanName(BatchQuery::Kind kind) {
  switch (kind) {
    case BatchQuery::Kind::kPoint:
      return "kernel.point";
    case BatchQuery::Kind::kExists:
      return "kernel.exists";
    case BatchQuery::Kind::kValue:
      return "kernel.value";
    case BatchQuery::Kind::kCondition:
      return "kernel.condition";
    case BatchQuery::Kind::kAncestorProject:
      break;
  }
  return "kernel.other";
}

/// Direct free-function calls on a benchmark-built FrozenInstance with its
/// own ε-memo cache (the engine's default hooks). Used only by the traced
/// pass.
class DirectKernels {
 public:
  explicit DirectKernels(const ProbabilisticInstance& base)
      : instance_(base),
        frozen_(Unwrap(pxml::FrozenInstance::Freeze(instance_), "freeze")) {}

  bool Answer(const std::vector<BatchQuery>& queries, SpanRecorder* rec,
              std::uint32_t id) {
    ScopedSpan span(rec, "direct", id);
    pxml::EpsilonHooks hooks;
    hooks.cache = &cache_;
    hooks.frozen = &frozen_;
    hooks.scratch = &scratch_;
    bool ok = true;
    for (const BatchQuery& q : queries) {
      ScopedSpan s(rec, KernelSpanName(q.kind), id);
      ok = ProbabilityQuery(instance_, q, hooks).ok() && ok;
    }
    return ok;
  }

 private:
  ProbabilisticInstance instance_;
  pxml::FrozenInstance frozen_;
  pxml::EpsilonMemoCache cache_;
  pxml::EpsilonScratch scratch_;
};

struct ReplaySample {
  std::size_t batch = 0;
  std::size_t commits_before = 0;
  std::size_t first_answer = 0;  // index into EnginePass::answers
};

struct EnginePass {
  std::vector<double> batch_ms;
  double wall_s = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t commits = 0;
  pxml::BatchStats totals;
  std::vector<Answer> answers;
  std::vector<ReplaySample> samples;
  std::int64_t live_snapshots_max = 0;
  std::uint64_t refreeze_recompiled = 0;
};

void Accumulate(const pxml::BatchStats& s, pxml::BatchStats* t) {
  t->tasks += s.tasks;
  t->steal_count += s.steal_count;
  t->wall_seconds += s.wall_seconds;
  t->cpu_seconds += s.cpu_seconds;
  t->epsilon_recomputed += s.epsilon_recomputed;
  t->cache_lookups += s.cache_lookups;
  t->cache_hits += s.cache_hits;
  t->cache_invalidated += s.cache_invalidated;
  t->opf_row_ops += s.opf_row_ops;
  t->bytes_allocated += s.bytes_allocated;
  t->frozen_passes += s.frozen_passes;
  t->generic_passes += s.generic_passes;
}

void FillBatch(const QuestionPool& pool, const Batch& batch,
               std::vector<BatchQuery>* queries) {
  queries->resize(kBatchSize);
  for (std::size_t i = 0; i < kBatchSize; ++i) {
    (*queries)[i] = pool.questions[batch[i]];
  }
}

/// engine_read's inputs.
struct EngineInputs {
  std::string input_path;
  std::uint64_t input_bytes = 0;
  ProbabilisticInstance base;   // parsed input (the replay start)
  QuestionPool pool;
  std::vector<Batch> warmup;
  std::vector<Batch> batches;
  // The commit probe's (traced runs only).
  ProbabilisticInstance donor;  // same shape, other seed, same id space
  std::vector<Commit> commits;
};

pxml::BatchOptions EngineOptions(std::size_t threads) {
  pxml::BatchOptions options;
  options.threads = threads;
  return options;
}

std::unique_ptr<pxml::QueryEngine> BuildEngine(const EngineInputs& in,
                                               std::size_t threads,
                                               SpanRecorder* rec,
                                               SetupTimes* setup) {
  const auto t0 = Clock::now();
  std::unique_ptr<pxml::QueryEngine> engine;
  {
    ScopedSpan span(rec, "setup", 0);
    std::optional<ProbabilisticInstance> parsed;
    {
      ScopedSpan s(rec, "xml.parse", 0);
      parsed.emplace(Unwrap(pxml::ReadPxmlFile(in.input_path), "parse input"));
    }
    const auto t_parsed = Clock::now();
    {
      ScopedSpan s(rec, "engine.construct", 0);
      engine = std::make_unique<pxml::QueryEngine>(std::move(*parsed),
                                                   EngineOptions(threads));
    }
    const auto t_built = Clock::now();
    {
      ScopedSpan s(rec, "warmup", 0);
      std::vector<BatchQuery> queries;
      for (const Batch& b : in.warmup) {
        FillBatch(in.pool, b, &queries);
        auto answers = engine->Run(queries);
        if (!answers.ok()) Fail("warm-up batch", answers.status());
      }
    }
    if (setup != nullptr) {
      setup->parse_s.push_back(SecondsBetween(t0, t_parsed));
      setup->construct_s.push_back(SecondsBetween(t_parsed, t_built));
    }
  }
  if (setup != nullptr) setup->total_s.push_back(SecondsBetween(t0, Clock::now()));
  return engine;
}

/// Runs every batch of `in` through `engine`. With `commits`, one
/// MutationGuard of in.commits follows every kBatchesPerCommit batches and
/// only sampled batches' answers are kept (for the replay gate).
EnginePass RunEnginePass(pxml::QueryEngine& engine, const EngineInputs& in,
                         bool commits, SpanRecorder* rec, DirectKernels* direct,
                         Report* report) {
  auto& registry = pxml::obs::Registry::Global();
  pxml::obs::Counter& recompiled =
      registry.GetCounter("pxml.frozen.refreeze_recompiled");
  pxml::obs::Gauge& live = registry.GetGauge("pxml.engine.live_snapshots");
  const std::uint64_t recompiled0 = recompiled.value();

  EnginePass pass;
  pass.batch_ms.reserve(in.batches.size());
  const std::size_t sample_every =
      commits ? std::max<std::size_t>(1, in.batches.size() / kReplaySamples) : 1;
  pass.answers.reserve(commits ? (kReplaySamples + 1) * kBatchSize
                               : in.batches.size() * kBatchSize);
  std::vector<BatchQuery> queries;
  const auto t_start = Clock::now();
  for (std::size_t i = 0; i < in.batches.size(); ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    FillBatch(in.pool, in.batches[i], &queries);
    pxml::BatchStats stats;
    const auto t0 = Clock::now();
    pxml::Result<std::vector<pxml::BatchAnswer>> answers = [&] {
      ScopedSpan span(rec, "engine.run", id);
      return engine.Run(queries, &stats);
    }();
    pass.batch_ms.push_back(MsBetween(t0, Clock::now()));
    pass.queries += kBatchSize;
    Accumulate(stats, &pass.totals);
    const bool keep = !commits || i % sample_every == sample_every - 1;
    if (keep && commits) {
      pass.samples.push_back({i, pass.commits, pass.answers.size()});
    }
    for (std::size_t q = 0; q < kBatchSize; ++q) {
      const bool ok = answers.ok() && (*answers)[q].status.ok();
      report->ops.Check(ok);
      if (keep) {
        pass.answers.push_back({ok, ok ? (*answers)[q].probability : 0.0});
      }
    }
    if (direct != nullptr) report->ops.Check(direct->Answer(queries, rec, id));
    pass.live_snapshots_max = std::max(pass.live_snapshots_max, live.value());

    if (commits && i % kBatchesPerCommit == kBatchesPerCommit - 1 &&
        pass.commits < in.commits.size()) {
      const Commit& c = in.commits[pass.commits];
      bool ok = true;
      {
        ScopedSpan span(rec, "request.commit", id);
        std::optional<pxml::QueryEngine::MutationGuard> guard;
        {
          ScopedSpan s(rec, "engine.begin", id);
          guard.emplace(engine.BeginMutations());
        }
        {
          ScopedSpan s(rec, "engine.update", id);
          for (pxml::ObjectId o : c.leaves) {
            ok = guard->UpdateVpf(o, *in.donor.GetVpf(o)).ok() && ok;
          }
          for (pxml::ObjectId o : c.interiors) {
            ok = guard->UpdateOpf(o, in.donor.GetOpf(o)->Clone()).ok() && ok;
          }
        }
        {
          ScopedSpan s(rec, "engine.publish", id);
          guard.reset();
        }
      }
      report->ops.Check(ok);
      ++pass.commits;
      pass.live_snapshots_max = std::max(pass.live_snapshots_max, live.value());
    }
  }
  pass.wall_s = SecondsBetween(t_start, Clock::now());
  pass.refreeze_recompiled = recompiled.value() - recompiled0;
  return pass;
}

EngineInputs MakeEngineInputs(const Args& args, Report* report) {
  EngineInputs in;
  in.input_path = args.out_dir + "/" + WorkloadName(args.workload) + "_input.pxml";
  {
    auto generated = Unwrap(pxml::GenerateBalancedTree(EngineConfig(args.seed)),
                            "generate");
    const pxml::Status st = pxml::WritePxmlFile(generated, in.input_path);
    if (!st.ok()) Fail("write input", st);
  }
  in.input_bytes = std::filesystem::file_size(in.input_path);
  in.base = Unwrap(pxml::ReadPxmlFile(in.input_path), "parse input");
  in.pool = Unwrap(MakeQuestionPool(in.base, args.seed), "question pool");
  const auto count =
      static_cast<std::size_t>(kReadBatchesPerSecond * WorkSeconds(args));
  std::vector<Batch> all = MakeBatches(args.seed, kWarmupBatches + count);
  in.warmup.assign(all.begin(), all.begin() + kWarmupBatches);
  in.batches.assign(all.begin() + kWarmupBatches, all.end());
  if (args.trace) {
    // The donor goes through the same writer/parser round trip so its
    // object and label ids match the parsed input's.
    auto donor = Unwrap(pxml::GenerateBalancedTree(
                            EngineConfig(args.seed + kDonorSeedOffset)),
                        "generate donor");
    in.donor = Unwrap(pxml::ParsePxml(pxml::SerializePxml(donor)), "parse donor");
    const pxml::Dictionary& a = in.base.dict();
    const pxml::Dictionary& b = in.donor.dict();
    bool same = a.num_objects() == b.num_objects() &&
                a.num_labels() == b.num_labels();
    for (std::size_t o = 0; same && o < a.num_objects(); ++o) {
      same = a.ObjectName(static_cast<pxml::ObjectId>(o)) ==
             b.ObjectName(static_cast<pxml::ObjectId>(o));
    }
    for (std::size_t l = 0; same && l < a.num_labels(); ++l) {
      same = a.LabelName(static_cast<pxml::LabelId>(l)) ==
             b.LabelName(static_cast<pxml::LabelId>(l));
    }
    if (!same) Fail("donor", pxml::Status::Internal("id spaces differ"));
    in.commits = MakeCommits(in.base, args.seed, count / kBatchesPerCommit);
  }

  report->inputs
      .Str("shape", "per-label b=4 d=7 with leaf values")
      .Int("objects", in.base.weak().num_objects())
      .Int("opf_rows", in.base.TotalOpfEntries())
      .Int("input_bytes", in.input_bytes)
      .Int("threads", kEngineThreads)
      .Int("question_pool", in.pool.questions.size())
      .Int("warmup_batches", in.warmup.size())
      .Int("timed_batches", in.batches.size())
      .Int("batch_size", kBatchSize)
      .Int("probe_commits", in.commits.size());
  return in;
}

/// The commit probe (traced runs only): a fresh serial engine runs the same
/// batches with one 4-update commit after every kBatchesPerCommit of them,
/// traced. It reports the commit path's per-layer metrics, and its sampled
/// batches are checked against a fresh engine over a serial replay of the
/// commits that preceded them.
void RunCommitProbe(const EngineInputs& in, SpanRecorder* rec,
                    Report* report) {
  auto engine = BuildEngine(in, kEngineThreads, nullptr, nullptr);
  const EnginePass pass =
      RunEnginePass(*engine, in, /*commits=*/true, rec, nullptr, report);
  engine.reset();

  report->layer["cache.memo_invalidated_per_batch"] =
      static_cast<double>(pass.totals.cache_invalidated) /
      static_cast<double>(in.batches.size());
  report->layer["frozen.refreeze_recompiled_per_commit"] =
      pass.commits == 0 ? 0.0
                        : static_cast<double>(pass.refreeze_recompiled) /
                              static_cast<double>(pass.commits);
  report->layer["engine.live_snapshots_max"] =
      static_cast<double>(pass.live_snapshots_max);
  const auto by_name = GroupByName(rec->spans());
  report->layer["engine.begin_ms"] = MedianSelfMs(by_name, "engine.begin");
  report->layer["engine.update_ms"] = MedianSelfMs(by_name, "engine.update");
  report->layer["engine.publish_ms"] = MedianSelfMs(by_name, "engine.publish");

  ProbabilisticInstance replay = in.base;
  std::size_t applied = 0;
  std::vector<BatchQuery> queries;
  for (const ReplaySample& s : pass.samples) {
    while (applied < s.commits_before) {
      report->gates.Check(ApplyCommit(replay, in.donor, in.commits[applied]).ok());
      ++applied;
    }
    FillBatch(in.pool, in.batches[s.batch], &queries);
    auto want = ReferenceAnswers(replay, queries, /*plain=*/false);
    report->gates.Check(want.ok());
    if (!want.ok()) continue;
    const std::vector<Answer> got(
        pass.answers.begin() + static_cast<long>(s.first_answer),
        pass.answers.begin() + static_cast<long>(s.first_answer + kBatchSize));
    report->gates.Add(CompareAnswers(got, *want));
  }
  report->inputs.Int("replay_samples", pass.samples.size());
}

void RunEngine(const Args& args, Report* report) {
  const EngineInputs in = MakeEngineInputs(args, report);

  SpanRecorder rec(args.trace);
  ResetPeakRss();
  SetupTimes setup;
  std::unique_ptr<pxml::QueryEngine> engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    engine = BuildEngine(in, kEngineThreads, &rec, &setup);
  }
  ReportSetup(setup, in.input_bytes, report);

  std::optional<EnginePass> untraced;
  std::optional<DirectKernels> direct;
  if (args.trace) {
    SpanRecorder off(false);
    Report scratch;
    untraced = RunEnginePass(*engine, in, /*commits=*/false, &off, nullptr,
                             &scratch);
    engine.reset();
    engine = BuildEngine(in, kEngineThreads, &off, nullptr);
    direct.emplace(in.base);
    // Warm the direct path's memo cache with the engine's warm-up batches.
    std::vector<BatchQuery> queries;
    for (const Batch& b : in.warmup) {
      FillBatch(in.pool, b, &queries);
      direct->Answer(queries, &off, 0);
    }
  }
  const EnginePass pass = RunEnginePass(*engine, in, /*commits=*/false, &rec,
                                        direct ? &*direct : nullptr, report);
  const double peak_rss = PeakRssMiB();
  direct.reset();
  const auto rate = [](const EnginePass& p) {
    return static_cast<double>(p.queries) / p.wall_s;
  };

  if (!args.trace) {
    report->metrics.Set("ops_per_s", rate(pass), "1/s");
    report->metrics.Set("peak_rss_mb", peak_rss, "MiB");
    ReportLatency(pass.batch_ms, report);
  }

  const double queries = static_cast<double>(pass.queries);
  const double batches = static_cast<double>(in.batches.size());
  const pxml::BatchStats& t = pass.totals;
  report->layer["query.opf_row_ops_per_query"] = static_cast<double>(t.opf_row_ops) / queries;
  report->layer["query.epsilon_recomputed_per_query"] =
      static_cast<double>(t.epsilon_recomputed) / queries;
  const double passes = static_cast<double>(t.frozen_passes + t.generic_passes);
  report->layer["query.frozen_pass_share"] =
      passes == 0 ? 0.0 : static_cast<double>(t.frozen_passes) / passes;
  report->layer["query.bytes_allocated_per_query"] =
      static_cast<double>(t.bytes_allocated) / queries;
  report->layer["cache.memo_hit_ratio"] =
      t.cache_lookups == 0 ? 0.0
                           : static_cast<double>(t.cache_hits) /
                                 static_cast<double>(t.cache_lookups);
  report->layer["query.repeat_share"] = RepeatShare(in.warmup, in.batches);

  if (args.trace) {
    const auto by_name = GroupByName(rec.spans());
    const double direct_ns = SumTotalNs(by_name, "direct");
    double kernel_ns = 0.0;
    for (const char* kind : {"point", "exists", "value", "condition"}) {
      const std::string span = std::string("kernel.") + kind;
      auto it = by_name.find(span);
      if (it == by_name.end()) continue;
      kernel_ns += Sum(it->second.total_ns);
      report->layer[span + "_us"] = Mean(it->second.total_ns) * 1e-3;
    }
    report->layer["engine.overhead_us_per_query"] =
        (SumTotalNs(by_name, "engine.run") - kernel_ns) * 1e-3 / queries;
    report->layer["trace.overhead_share"] =
        (pass.wall_s - direct_ns * 1e-9) / untraced->wall_s - 1.0;

    // The pool probe: the same list from the same start state at
    // kPoolThreads, untraced. Its spread across runs is too wide for an
    // end-to-end bound on a shared host, so it is reported here only.
    engine.reset();
    engine = BuildEngine(in, kPoolThreads, nullptr, nullptr);
    Report probe_report;
    const EnginePass probe = RunEnginePass(*engine, in, /*commits=*/false,
                                           nullptr, nullptr, &probe_report);
    engine.reset();
    report->ops.Add(probe_report.ops);
    const pxml::BatchStats& p = probe.totals;
    report->layer["pool.tasks_per_batch"] = static_cast<double>(p.tasks) / batches;
    report->layer["pool.steals_per_batch"] =
        static_cast<double>(p.steal_count) / batches;
    report->layer["pool.cpu_per_wall"] =
        p.wall_seconds == 0 ? 0.0 : p.cpu_seconds / p.wall_seconds;
    report->layer["pool.ops_ratio"] = rate(probe) / rate(*untraced);

    RunCommitProbe(in, &rec, report);
    if (!rec.WriteJson(args.out_dir + "/spans_" + WorkloadName(args.workload) +
                       ".json")) {
      Fail("write spans", pxml::Status::IoError(args.out_dir));
    }
  }

  // ---- gates: every answer of the pass against a plain reference engine
  // (threads=1, no cache, no frozen kernels), each distinct question
  // answered once.
  engine.reset();
  std::vector<std::uint32_t> distinct;
  std::unordered_map<std::uint32_t, std::size_t> slot;
  for (const Batch& b : in.batches) {
    for (std::uint32_t q : b) {
      if (slot.emplace(q, distinct.size()).second) distinct.push_back(q);
    }
  }
  std::vector<BatchQuery> questions;
  questions.reserve(distinct.size());
  for (std::uint32_t q : distinct) questions.push_back(in.pool.questions[q]);
  auto reference = ReferenceAnswers(in.base, questions, /*plain=*/true);
  report->gates.Check(reference.ok());
  if (reference.ok()) {
    std::vector<double> want;
    want.reserve(pass.answers.size());
    for (const Batch& b : in.batches) {
      for (std::uint32_t q : b) want.push_back((*reference)[slot[q]]);
    }
    report->gates.Add(CompareAnswers(pass.answers, want));
  }
  report->inputs.Int("distinct_questions", distinct.size());
  report->gates.Add(OracleGate(args.seed));
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pxbench --workload fig7_pipeline|engine_read "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
                 "[--source-sha HEX]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) Fail("create " + args.out_dir, pxml::Status::IoError(ec.message()));

  Report report;
  report.inputs.Str("workload", WorkloadName(args.workload))
      .Int("seed", args.seed)
      .Int("seconds", args.seconds)
      .Int("trace", args.trace ? 1 : 0);
  if (args.workload == Workload::kFig7Pipeline) {
    RunFig7(args, &report);
  } else {
    RunEngine(args, &report);
  }
  if (args.trace) {
    report.metrics = MetricSet();
    report.FinishLayers();
  }

  JsonObject env;
  StampHost(&env);
  env.Str("source_sha", args.source_sha).Str("output_dir", args.out_dir);
  std::printf("%s\n", JsonObject()
                          .Raw("env", env.str())
                          .Raw("inputs", report.inputs.str())
                          .Int("gate_checks", report.gates.attempted)
                          .Int("gate_failures", report.gates.failed)
                          .str()
                          .c_str());
  Tally all = report.ops;
  all.Add(report.gates);
  std::printf("%s\n", JsonObject()
                          .Raw("correct", all.failed == 0 ? "true" : "false")
                          .Int("attempted", all.attempted)
                          .Int("failed", all.failed)
                          .Raw("metrics", report.metrics.Json())
                          .str()
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace pxbench

int main(int argc, char** argv) { return pxbench::Main(argc, argv); }
