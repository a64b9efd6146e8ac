#ifndef PXBENCH_GATES_H_
#define PXBENCH_GATES_H_

// Correctness gates. They run outside the timed phase; every check that
// fails counts as one failed operation.

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/selection_global.h"
#include "core/probabilistic_instance.h"
#include "core/semantics.h"
#include "graph/path.h"
#include "query/engine.h"
#include "query/point_queries.h"
#include "util/status.h"

namespace pxbench {

/// Per-label kernels agree with the generic interpreter to this bound.
inline constexpr double kAnswerTolerance = 1e-12;
/// World-distribution comparisons against the possible-worlds oracle.
inline constexpr double kWorldTolerance = 1e-9;

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Add(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

/// Same distribution over worlds (matched by fingerprint) within `tol`.
bool SameWorldDistribution(const std::vector<pxml::World>& a,
                           const std::vector<pxml::World>& b, double tol);

/// `result` is the ancestor projection of `input` by `path` according to
/// ProjectWorlds over the enumerated worlds of `input`.
bool ProjectionMatchesWorlds(const pxml::ProbabilisticInstance& input,
                             const pxml::PathExpression& path,
                             const pxml::ProbabilisticInstance& result);

/// `result` is the selection of `input` by `condition` according to
/// SelectWorlds.
bool SelectionMatchesWorlds(const pxml::ProbabilisticInstance& input,
                            const pxml::SelectionCondition& condition,
                            const pxml::ProbabilisticInstance& result);

/// Answers a probability query through the free functions (PointQuery,
/// ExistsQuery, ValueQuery, ConditionProbability) with the given hooks.
pxml::Result<double> ProbabilityQuery(const pxml::ProbabilisticInstance& instance,
                                      const pxml::BatchQuery& query,
                                      const pxml::EpsilonHooks& hooks);

/// `answer` agrees with the query's *ViaWorlds counterpart.
bool AnswerMatchesWorlds(const pxml::ProbabilisticInstance& input,
                         const pxml::BatchQuery& query, double answer);

/// The small-instance oracle gate: AncestorProject/Select against
/// ProjectWorlds/SelectWorlds and the four query kinds (through the free
/// functions, with and without a frozen snapshot) against the *ViaWorlds
/// oracle, on small seeded instances of both workload shapes.
Tally OracleGate(std::uint64_t seed);

/// One answer from a timed batch: the status code and the probability.
struct Answer {
  bool ok = false;
  double probability = 0.0;
};

/// Compares answers position by position against reference values: each
/// must be OK and within kAnswerTolerance.
Tally CompareAnswers(const std::vector<Answer>& got,
                     const std::vector<double>& want);

/// Answers `queries` on a fresh reference engine over `instance`
/// (threads=1; with `plain`, also cache=false and frozen=false).
pxml::Result<std::vector<double>> ReferenceAnswers(
    const pxml::ProbabilisticInstance& instance,
    const std::vector<pxml::BatchQuery>& queries, bool plain);

/// Re-reads a written result document and checks its object count.
bool OutputMatches(const std::string& path, std::size_t expected_objects);

}  // namespace pxbench

#endif  // PXBENCH_GATES_H_
