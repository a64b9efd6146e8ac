#ifndef PXBENCH_WORKLOADS_H_
#define PXBENCH_WORKLOADS_H_

// Workload definitions: instance shapes and the seeded request lists.
// Everything here is generated before any clock starts; the same seed
// gives the same lists.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/selection_global.h"
#include "core/probabilistic_instance.h"
#include "graph/path.h"
#include "query/engine.h"
#include "util/status.h"
#include "workload/generator.h"

namespace pxbench {

enum class Workload { kFig7Pipeline, kEngineRead };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload w);

/// The paper's grid point for fig7_pipeline: FR labeling, b=4, d=6,
/// explicit OPF tables, no leaf values (5,461 objects).
pxml::GeneratorConfig Fig7Config(std::uint64_t seed);
/// The engine instance: per-label-product OPFs, b=4, d=7, with leaf values
/// (21,845 objects).
pxml::GeneratorConfig EngineConfig(std::uint64_t seed);

// ---- fig7_pipeline ------------------------------------------------------

/// One pipeline request: copy → AncestorProject → write, or
/// Select → write.
struct PipelineRequest {
  enum class Kind { kProject, kSelect };
  Kind kind = Kind::kProject;
  pxml::PathExpression path;            // kProject
  pxml::SelectionCondition condition;   // kSelect
};

/// Requests in rounds of three projections followed by one selection (the
/// fixed 3:1 mix), each over a fresh §7.1 random accepted path.
inline constexpr std::size_t kProjectsPerRound = 3;
inline constexpr std::size_t kRequestsPerRound = kProjectsPerRound + 1;

pxml::Result<std::vector<PipelineRequest>> MakePipelineRequests(
    const pxml::ProbabilisticInstance& instance, std::uint64_t seed,
    std::size_t rounds);

// ---- engine workloads ---------------------------------------------------

/// Queries per Run batch and per-kind share: 8 point, 8 exists, 8
/// value-equals, 8 condition, interleaved.
inline constexpr std::size_t kBatchSize = 32;
inline constexpr std::size_t kKinds = 4;
/// Distinct questions per kind in the seeded pool.
inline constexpr std::size_t kPoolPerKind = 256;
/// engine_read's commit probe commits one MutationGuard after every this
/// many batches.
inline constexpr std::size_t kBatchesPerCommit = 3;

struct QuestionPool {
  /// pool[kind * kPoolPerKind + i] is the i-th question of that kind.
  std::vector<pxml::BatchQuery> questions;
};

pxml::Result<QuestionPool> MakeQuestionPool(
    const pxml::ProbabilisticInstance& instance, std::uint64_t seed);

/// A batch is kBatchSize indices into the question pool; each slot's kind
/// is slot % kKinds and its question is drawn Zipf(1) from that kind's
/// pool.
using Batch = std::array<std::uint32_t, kBatchSize>;

std::vector<Batch> MakeBatches(std::uint64_t seed, std::size_t count);

/// Share of the queries in `timed` whose question already appeared in
/// `warmup` or earlier in `timed`.
double RepeatShare(const std::vector<Batch>& warmup,
                   const std::vector<Batch>& timed);

/// One commit: two leaf VPF replacements and two interior per-label OPF
/// replacements, the new functions taken from a donor instance.
struct Commit {
  std::array<pxml::ObjectId, 2> leaves{};
  std::array<pxml::ObjectId, 2> interiors{};
};

std::vector<Commit> MakeCommits(const pxml::ProbabilisticInstance& instance,
                                std::uint64_t seed, std::size_t count);

/// Applies one commit to a plain instance (the serial replay the commit
/// probe's gate compares against).
pxml::Status ApplyCommit(pxml::ProbabilisticInstance& instance,
                         const pxml::ProbabilisticInstance& donor,
                         const Commit& commit);

/// A stable text rendering of a request list, for determinism checks.
std::string Fingerprint(const std::vector<PipelineRequest>& requests);
std::string Fingerprint(const QuestionPool& pool,
                        const std::vector<Batch>& batches,
                        const std::vector<Commit>& commits);

}  // namespace pxbench

#endif  // PXBENCH_WORKLOADS_H_
