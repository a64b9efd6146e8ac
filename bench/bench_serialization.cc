// Serialization throughput: SerializePxml / WritePxmlFile / ParsePxml over
// generated instances of growing size. Write time is a first-class cost
// in the paper's Figure 7 totals (it dominates selection), so the
// library's storage path deserves its own measurement. The `fig7_pipeline`
// rows use the shape of the benchmark's pipeline input (FR labeling, b=4,
// d=6, explicit tables, no leaf values); the numbered rows are SL trees
// of that depth.
//
// Usage: bench_serialization [--seed=S] [--threads=N] [gbench flags]
// (--threads is accepted for interface uniformity across the bench
// suite; the serialization path is single-threaded.)
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>

#include "fig7_common.h"
#include "workload/generator.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace {

using namespace pxml;  // NOLINT

bench::BenchFlags g_flags{/*threads=*/1, /*seed=*/77};

ProbabilisticInstance Generate(const GeneratorConfig& config) {
  auto inst = GenerateBalancedTree(config);
  if (!inst.ok()) std::abort();
  return std::move(inst).ValueOrDie();
}

ProbabilisticInstance MakeTree(std::uint32_t depth) {
  GeneratorConfig config;
  config.depth = depth;
  config.branching = 4;
  config.seed = g_flags.seed;
  return Generate(config);
}

ProbabilisticInstance MakeFig7PipelineTree() {
  GeneratorConfig config;
  config.labeling = LabelingScheme::kFullyRandom;
  config.depth = 6;
  config.branching = 4;
  config.opf_style = OpfStyle::kExplicitTable;
  config.seed = g_flags.seed;
  return Generate(config);
}

void Serialize(benchmark::State& state, const ProbabilisticInstance& inst) {
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string text = SerializePxml(inst);
    bytes = text.size();
    benchmark::DoNotOptimize(text);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(bytes) *
      static_cast<std::int64_t>(state.iterations()));
  state.counters["objects"] =
      static_cast<double>(inst.weak().num_objects());
}

void WriteFile(benchmark::State& state, const ProbabilisticInstance& inst) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "bench_serialization.pxml")
          .string();
  for (auto _ : state) {
    if (!WritePxmlFile(inst, path).ok()) std::abort();
  }
  const auto bytes = std::filesystem::file_size(path);
  std::remove(path.c_str());
  state.SetBytesProcessed(
      static_cast<std::int64_t>(bytes) *
      static_cast<std::int64_t>(state.iterations()));
  state.counters["objects"] =
      static_cast<double>(inst.weak().num_objects());
}

void BM_Serialize(benchmark::State& state) {
  Serialize(state, MakeTree(static_cast<std::uint32_t>(state.range(0))));
}
BENCHMARK(BM_Serialize)->DenseRange(2, 6, 1);

void BM_Serialize_fig7_pipeline(benchmark::State& state) {
  Serialize(state, MakeFig7PipelineTree());
}
BENCHMARK(BM_Serialize_fig7_pipeline);

void BM_WriteFile(benchmark::State& state) {
  WriteFile(state, MakeTree(static_cast<std::uint32_t>(state.range(0))));
}
BENCHMARK(BM_WriteFile)->DenseRange(2, 6, 1);

void BM_WriteFile_fig7_pipeline(benchmark::State& state) {
  WriteFile(state, MakeFig7PipelineTree());
}
BENCHMARK(BM_WriteFile_fig7_pipeline);

void Parse(benchmark::State& state, const ProbabilisticInstance& inst) {
  const std::string text = SerializePxml(inst);
  for (auto _ : state) {
    auto parsed = ParsePxml(text);
    if (!parsed.ok()) std::abort();
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(text.size()) *
      static_cast<std::int64_t>(state.iterations()));
  state.counters["objects"] =
      static_cast<double>(inst.weak().num_objects());
}

void BM_Parse(benchmark::State& state) {
  Parse(state, MakeTree(static_cast<std::uint32_t>(state.range(0))));
}
BENCHMARK(BM_Parse)->DenseRange(2, 6, 1);

void BM_Parse_fig7_pipeline(benchmark::State& state) {
  Parse(state, MakeFig7PipelineTree());
}
BENCHMARK(BM_Parse_fig7_pipeline);

void BM_DeepCopy(benchmark::State& state) {
  // The "copy the input instance" phase of every Fig 7 query.
  ProbabilisticInstance inst =
      MakeTree(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    ProbabilisticInstance copy = inst;
    benchmark::DoNotOptimize(copy);
  }
  state.counters["opf_rows"] =
      static_cast<double>(inst.TotalOpfEntries());
}
BENCHMARK(BM_DeepCopy)->DenseRange(2, 6, 1);

}  // namespace

int main(int argc, char** argv) {
  g_flags = pxml::bench::ParseBenchFlags(&argc, argv, g_flags);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
