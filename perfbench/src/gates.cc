#include "gates.h"

#include <cmath>
#include <map>

#include "algebra/projection.h"
#include "algebra/projection_global.h"
#include "algebra/selection.h"
#include "query/frozen.h"
#include "query/point_queries.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/query_generator.h"
#include "xml/parser.h"

namespace pxbench {

using pxml::BatchQuery;
using pxml::ProbabilisticInstance;
using pxml::World;

namespace {

std::map<std::string, double> Distribution(const std::vector<World>& worlds) {
  std::map<std::string, double> out;
  for (const World& w : worlds) out[w.instance.Fingerprint()] += w.prob;
  return out;
}

bool InstanceMatchesWorlds(const ProbabilisticInstance& instance,
                           const std::vector<World>& expected) {
  auto worlds = pxml::EnumerateWorlds(instance);
  return worlds.ok() &&
         SameWorldDistribution(*worlds, expected, kWorldTolerance);
}

pxml::Result<double> Oracle(const ProbabilisticInstance& input,
                            const BatchQuery& q) {
  switch (q.kind) {
    case BatchQuery::Kind::kPoint:
      return pxml::PointQueryViaWorlds(input, q.path, q.object);
    case BatchQuery::Kind::kExists:
      return pxml::ExistsQueryViaWorlds(input, q.path);
    case BatchQuery::Kind::kValue:
      return pxml::ValueQueryViaWorlds(input, q.path, q.value);
    case BatchQuery::Kind::kCondition:
      return pxml::ConditionProbabilityViaWorlds(input, q.condition);
    case BatchQuery::Kind::kAncestorProject:
      break;
  }
  return pxml::Status::InvalidArgument("not a probability query");
}

}  // namespace

pxml::Result<double> ProbabilityQuery(const ProbabilisticInstance& instance,
                                      const BatchQuery& q,
                                      const pxml::EpsilonHooks& hooks) {
  switch (q.kind) {
    case BatchQuery::Kind::kPoint:
      return pxml::PointQuery(instance, q.path, q.object, {}, hooks);
    case BatchQuery::Kind::kExists:
      return pxml::ExistsQuery(instance, q.path, {}, hooks);
    case BatchQuery::Kind::kValue:
      return pxml::ValueQuery(instance, q.path, q.value, {}, hooks);
    case BatchQuery::Kind::kCondition:
      return pxml::ConditionProbability(instance, q.condition, {}, hooks);
    case BatchQuery::Kind::kAncestorProject:
      break;
  }
  return pxml::Status::InvalidArgument("not a probability query");
}

bool SameWorldDistribution(const std::vector<World>& a,
                           const std::vector<World>& b, double tol) {
  const std::map<std::string, double> da = Distribution(a);
  const std::map<std::string, double> db = Distribution(b);
  for (const auto& [fp, p] : db) {
    auto it = da.find(fp);
    const double q = it == da.end() ? 0.0 : it->second;
    if (!(std::fabs(q - p) <= tol)) return false;
  }
  for (const auto& [fp, p] : da) {
    if (db.find(fp) == db.end() && !(std::fabs(p) <= tol)) return false;
  }
  return true;
}

bool ProjectionMatchesWorlds(const ProbabilisticInstance& input,
                             const pxml::PathExpression& path,
                             const ProbabilisticInstance& result) {
  auto worlds = pxml::EnumerateWorlds(input);
  if (!worlds.ok()) return false;
  auto oracle = pxml::ProjectWorlds(*worlds, path);
  return oracle.ok() && InstanceMatchesWorlds(result, *oracle);
}

bool SelectionMatchesWorlds(const ProbabilisticInstance& input,
                            const pxml::SelectionCondition& condition,
                            const ProbabilisticInstance& result) {
  auto worlds = pxml::EnumerateWorlds(input);
  if (!worlds.ok()) return false;
  auto oracle = pxml::SelectWorlds(*worlds, condition);
  return oracle.ok() && InstanceMatchesWorlds(result, *oracle);
}

bool AnswerMatchesWorlds(const ProbabilisticInstance& input,
                         const BatchQuery& query, double answer) {
  auto want = Oracle(input, query);
  return want.ok() && std::fabs(*want - answer) <= kWorldTolerance;
}

Tally OracleGate(std::uint64_t seed) {
  Tally tally;
  constexpr int kCasesPerInstance = 4;
  // Both workload shapes, scaled down until world enumeration is cheap:
  // explicit tables without leaf values, per-label products with them.
  struct Shape {
    pxml::OpfStyle style;
    std::uint32_t depth;
    bool values;
  };
  for (const Shape& shape : {Shape{pxml::OpfStyle::kExplicitTable, 3, false},
                             Shape{pxml::OpfStyle::kPerLabelProduct, 2, true}}) {
    pxml::GeneratorConfig config;
    config.labeling = pxml::LabelingScheme::kFullyRandom;
    config.branching = 2;
    config.depth = shape.depth;
    config.opf_style = shape.style;
    config.with_leaf_values = shape.values;
    config.seed = seed;
    auto inst = pxml::GenerateBalancedTree(config);
    tally.Check(inst.ok());
    if (!inst.ok()) continue;
    auto frozen = pxml::FrozenInstance::Freeze(*inst);
    tally.Check(frozen.ok());
    if (!frozen.ok()) continue;
    pxml::EpsilonScratch scratch;
    pxml::EpsilonHooks frozen_hooks;
    frozen_hooks.frozen = &*frozen;
    frozen_hooks.scratch = &scratch;

    pxml::Rng rng(seed ^ 0x0A11CE);
    for (int i = 0; i < kCasesPerInstance; ++i) {
      auto path = pxml::GenerateAcceptedPath(*inst, rng);
      auto sel = pxml::GenerateObjectSelection(*inst, rng);
      tally.Check(path.ok() && sel.ok());
      if (!path.ok() || !sel.ok()) continue;

      auto projected = pxml::AncestorProject(*inst, *path);
      tally.Check(projected.ok() &&
                  ProjectionMatchesWorlds(*inst, *path, *projected));
      auto selected = pxml::Select(*inst, *sel);
      tally.Check(selected.ok() &&
                  SelectionMatchesWorlds(*inst, *sel, *selected));

      pxml::PathExpression parent = *path;
      const pxml::LabelId last = parent.labels.back();
      parent.labels.pop_back();
      const BatchQuery queries[] = {
          BatchQuery::Point(sel->path, sel->object),
          BatchQuery::Exists(*path),
          BatchQuery::ValueEquals(*path, pxml::Value("v0")),
          BatchQuery::Condition(pxml::SelectionCondition::CardinalityIn(
              parent, last, pxml::IntInterval(1, 1))),
      };
      for (const BatchQuery& q : queries) {
        for (const pxml::EpsilonHooks& hooks :
             {pxml::EpsilonHooks{}, frozen_hooks}) {
          auto got = ProbabilityQuery(*inst, q, hooks);
          tally.Check(got.ok() && AnswerMatchesWorlds(*inst, q, *got));
        }
      }
    }
  }
  return tally;
}

Tally CompareAnswers(const std::vector<Answer>& got,
                     const std::vector<double>& want) {
  Tally tally;
  tally.Check(got.size() == want.size());
  const std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) {
    tally.Check(got[i].ok &&
                std::fabs(got[i].probability - want[i]) <= kAnswerTolerance);
  }
  return tally;
}

pxml::Result<std::vector<double>> ReferenceAnswers(
    const ProbabilisticInstance& instance,
    const std::vector<BatchQuery>& queries, bool plain) {
  pxml::BatchOptions options;
  options.threads = 1;
  if (plain) {
    options.cache = false;
    options.frozen = false;
  }
  pxml::QueryEngine engine(instance, options);
  std::vector<double> out;
  out.reserve(queries.size());
  constexpr std::size_t kChunk = 32;
  std::vector<BatchQuery> chunk;
  for (std::size_t i = 0; i < queries.size(); i += kChunk) {
    chunk.assign(queries.begin() + static_cast<long>(i),
                 queries.begin() + static_cast<long>(std::min(queries.size(), i + kChunk)));
    PXML_ASSIGN_OR_RETURN(std::vector<pxml::BatchAnswer> answers,
                          engine.Run(chunk));
    for (const pxml::BatchAnswer& a : answers) {
      PXML_RETURN_IF_ERROR(a.status);
      out.push_back(a.probability);
    }
  }
  return out;
}

bool OutputMatches(const std::string& path, std::size_t expected_objects) {
  auto doc = pxml::ReadPxmlFile(path);
  return doc.ok() && doc->weak().num_objects() == expected_objects;
}

}  // namespace pxbench
