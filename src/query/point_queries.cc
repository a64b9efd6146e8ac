#include "query/point_queries.h"

#include <algorithm>

#include "algebra/selection_global.h"
#include "core/semantics.h"
#include "query/epsilon.h"
#include "query/frozen.h"
#include "util/strings.h"

namespace pxml {

namespace {

/// True when root-anchored target discovery can run over the frozen CSR
/// layers instead of the generic IdSet union/intersection walk: a
/// synced snapshot plus a scratch to build into, and a path starting at
/// the frozen root (the only start the frozen pass accepts, and always
/// a present object — so the generic walk's UnknownObject validation
/// cannot differ). The layers are content-identical either way
/// (FrozenInstance::BuildPrunedLayers), so answers keep their exact
/// bits; only the per-query discovery cost changes from O(weak lch
/// unions) to O(|K|).
bool UseFrozenLayers(const ProbabilisticInstance& instance,
                     const PathExpression& path, const EpsilonHooks& hooks) {
  return hooks.frozen != nullptr && hooks.scratch != nullptr &&
         hooks.frozen->InSyncWith(instance) &&
         path.start == hooks.frozen->root();
}

/// Target discovery shared by every ε-pass query kind: the pruned layers
/// of one path, built once per query. On the frozen route they live in
/// hooks.scratch and the ε pass reuses them instead of building them a
/// second time; otherwise the generic walk's IdSets are held here.
class PathTargets {
 public:
  static Result<PathTargets> Find(const ProbabilisticInstance& instance,
                                  const PathExpression& path,
                                  const EpsilonHooks& hooks) {
    PathTargets t;
    t.n_ = path.labels.size();
    if (UseFrozenLayers(instance, path, hooks)) {
      hooks.frozen->BuildPrunedLayers(path, hooks.scratch);
      t.scratch_ = hooks.scratch;
    } else {
      PXML_ASSIGN_OR_RETURN(t.generic_,
                            PrunedWeakPathLayers(instance.weak(), path));
    }
    return t;
  }

  /// The final pruned layer, ascending.
  std::span<const ObjectId> objects() const {
    if (scratch_ != nullptr) return scratch_->layers[n_];
    return generic_[n_].ids();
  }

  /// ε_root of `path` with `targets` (all drawn from objects()).
  Result<double> RootEpsilon(const ProbabilisticInstance& instance,
                             const PathExpression& path,
                             std::span<const TargetEps> targets,
                             const ParallelOptions& parallel,
                             const EpsilonHooks& hooks) const {
    if (scratch_ != nullptr) {
      return FrozenRootEpsilon(*hooks.frozen, instance, path, targets,
                               parallel, hooks.cache, hooks.stats,
                               hooks.scratch, hooks.trace, hooks.control,
                               /*layers_built=*/true);
    }
    EpsilonPropagator prop(instance, parallel, hooks.cache, hooks.stats,
                           hooks.frozen, hooks.scratch, hooks.trace,
                           hooks.control);
    return prop.RootEpsilon(path, targets);
  }

 private:
  std::size_t n_ = 0;
  EpsilonScratch* scratch_ = nullptr;  // set on the frozen route
  std::vector<IdSet> generic_;
};

}  // namespace

Result<double> PointQuery(const ProbabilisticInstance& instance,
                          const PathExpression& path, ObjectId object,
                          const ParallelOptions& parallel,
                          const EpsilonHooks& hooks) {
  PXML_ASSIGN_OR_RETURN(PathTargets match,
                        PathTargets::Find(instance, path, hooks));
  const std::span<const ObjectId> last = match.objects();
  if (!std::binary_search(last.begin(), last.end(), object)) return 0.0;
  const TargetEps target{object, 1.0};
  return match.RootEpsilon(instance, path,
                           std::span<const TargetEps>(&target, 1), parallel,
                           hooks);
}

Result<std::vector<double>> MultiPointQuery(
    const ProbabilisticInstance& instance, const PathExpression& path,
    std::span<const ObjectId> objects, const ParallelOptions& parallel,
    const EpsilonHooks& hooks) {
  std::vector<TargetEps> targets;
  targets.reserve(objects.size());
  for (ObjectId o : objects) targets.push_back(TargetEps{o, 1.0});
  std::vector<double> out(objects.size(), 0.0);
  // The memo cache is deliberately not passed through: the shared pass
  // walks per-target spines and memo hits could not change its answers
  // (they return exactly the recomputed bits), only complicate it.
  EpsilonPropagator prop(instance, parallel, /*cache=*/nullptr, hooks.stats,
                         hooks.frozen, hooks.scratch, hooks.trace,
                         hooks.control);
  PXML_RETURN_IF_ERROR(prop.RootEpsilonShared(path, targets, out));
  return out;
}

Result<double> ExistsQuery(const ProbabilisticInstance& instance,
                           const PathExpression& path,
                           const ParallelOptions& parallel,
                           const EpsilonHooks& hooks) {
  PXML_ASSIGN_OR_RETURN(PathTargets match,
                        PathTargets::Find(instance, path, hooks));
  std::vector<TargetEps> targets;
  targets.reserve(match.objects().size());
  for (ObjectId o : match.objects()) targets.push_back(TargetEps{o, 1.0});
  if (targets.empty()) return 0.0;
  return match.RootEpsilon(instance, path, targets, parallel, hooks);
}

Result<double> ValueQuery(const ProbabilisticInstance& instance,
                          const PathExpression& path, const Value& value,
                          const ParallelOptions& parallel,
                          const EpsilonHooks& hooks) {
  return ConditionProbability(
      instance, SelectionCondition::ValueEquals(path, value), parallel,
      hooks);
}

Result<double> ConditionProbability(const ProbabilisticInstance& instance,
                                    const SelectionCondition& condition,
                                    const ParallelOptions& parallel,
                                    const EpsilonHooks& hooks) {
  if (condition.kind == SelectionCondition::Kind::kObject) {
    return PointQuery(instance, condition.path, condition.object, parallel,
                      hooks);
  }
  const WeakInstance& weak = instance.weak();
  PXML_ASSIGN_OR_RETURN(PathTargets match,
                        PathTargets::Find(instance, condition.path, hooks));
  std::vector<TargetEps> targets;
  targets.reserve(match.objects().size());
  for (ObjectId o : match.objects()) {
    // The per-target survival scans below stream VPF entries or the
    // (possibly exponential) OPF support; keep them cooperative too.
    if (hooks.control != nullptr) {
      PXML_RETURN_IF_ERROR(hooks.control->Charge(1));
    }
    // The target's "survival" probability is the chance it satisfies the
    // condition locally, given it exists.
    double e = 0.0;
    if (condition.kind == SelectionCondition::Kind::kValue) {
      if (!weak.IsLeaf(o)) continue;
      const Vpf* vpf = instance.GetVpf(o);
      if (vpf == nullptr) continue;
      for (const Vpf::Entry& entry : vpf->Entries()) {
        if (EvalValueOp(entry.value, condition.value_op, condition.value)) {
          e += entry.prob;
        }
      }
    } else {  // kCardinality
      if (weak.IsLeaf(o)) {
        e = condition.count_range.Contains(0) ? 1.0 : 0.0;
      } else {
        const Opf* opf = instance.GetOpf(o);
        if (opf == nullptr) {
          return Status::FailedPrecondition(
              StrCat("non-leaf '", weak.dict().ObjectName(o),
                     "' has no OPF"));
        }
        PXML_ASSIGN_OR_RETURN(
            e, opf->CountInRangeProb(weak.Lch(o, condition.count_label),
                                     condition.count_range, hooks.control));
      }
    }
    targets.push_back(TargetEps{o, e});
  }
  if (targets.empty()) return 0.0;
  return match.RootEpsilon(instance, condition.path, targets, parallel,
                           hooks);
}

Result<double> ChainProbability(const ProbabilisticInstance& instance,
                                const std::vector<ObjectId>& chain) {
  const WeakInstance& weak = instance.weak();
  if (chain.empty() || chain.front() != weak.root()) {
    return Status::InvalidArgument("chain must start at the root");
  }
  double p = 1.0;
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    const Opf* opf = instance.GetOpf(chain[i]);
    if (opf == nullptr) {
      return Status::FailedPrecondition(
          StrCat("non-leaf '", weak.dict().ObjectName(chain[i]),
                 "' has no OPF"));
    }
    p *= opf->MarginalChildProb(chain[i + 1]);
    if (p == 0.0) return 0.0;
  }
  return p;
}

Result<double> ConditionProbabilityViaWorlds(
    const ProbabilisticInstance& instance,
    const SelectionCondition& condition) {
  PXML_ASSIGN_OR_RETURN(std::vector<World> worlds,
                        EnumerateWorlds(instance));
  double p = 0.0;
  for (const World& w : worlds) {
    PXML_ASSIGN_OR_RETURN(bool sat, InstanceSatisfies(w.instance, condition));
    if (sat) p += w.prob;
  }
  return p;
}

Result<double> PointQueryViaWorlds(const ProbabilisticInstance& instance,
                                   const PathExpression& path,
                                   ObjectId object) {
  return ConditionProbabilityViaWorlds(
      instance, SelectionCondition::ObjectEquals(path, object));
}

Result<double> ExistsQueryViaWorlds(const ProbabilisticInstance& instance,
                                    const PathExpression& path) {
  PXML_ASSIGN_OR_RETURN(std::vector<World> worlds,
                        EnumerateWorlds(instance));
  double p = 0.0;
  for (const World& w : worlds) {
    if (!w.instance.Present(path.start)) continue;
    PXML_ASSIGN_OR_RETURN(IdSet reached, EvaluatePath(w.instance, path));
    if (!reached.empty()) p += w.prob;
  }
  return p;
}

Result<double> ValueQueryViaWorlds(const ProbabilisticInstance& instance,
                                   const PathExpression& path,
                                   const Value& value) {
  return ConditionProbabilityViaWorlds(
      instance, SelectionCondition::ValueEquals(path, value));
}

}  // namespace pxml
