#include "algebra/selection.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "obs/metrics.h"
#include "prob/distribution.h"
#include "util/strings.h"

namespace pxml {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The unique chain root = a_0, a_1, ..., a_k = target in a tree-shaped
/// weak instance, verified against the path's labels. Fails if the target
/// is not reached by the path.
Result<std::vector<ObjectId>> AncestorChain(const WeakInstance& weak,
                                            const PathExpression& path,
                                            ObjectId target) {
  std::vector<ObjectId> chain{target};
  ObjectId cur = target;
  for (std::size_t i = path.labels.size(); i-- > 0;) {
    const std::vector<ObjectId>& parents = weak.PotentialParents(cur);
    if (parents.size() != 1) {
      return Status::FailedPrecondition(
          StrCat("object id ", cur, " has ", parents.size(),
                 " potential parents; efficient selection needs a tree"));
    }
    ObjectId parent = parents[0];
    if (!weak.Lch(parent, path.labels[i]).Contains(cur)) {
      return Status::FailedPrecondition(
          "target is not reached by the path expression (label mismatch)");
    }
    chain.push_back(parent);
    cur = parent;
  }
  if (cur != path.start) {
    return Status::FailedPrecondition(
        "target is not reached by the path expression (wrong start)");
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

/// Conditions ℘(o) on containing `child`; returns the pre-conditioning
/// mass m = P(child ∈ c) and installs the conditioned OPF in `out`.
/// A non-null `control` charges the row scan (one op per row or
/// independent entry) so a doomed selection stops within the bounded
/// check interval.
Result<double> ConditionOpfOnChild(const ProbabilisticInstance& in,
                                   ObjectId o, ObjectId child,
                                   ProbabilisticInstance* out,
                                   QueryControl* control) {
  const Opf* opf = in.GetOpf(o);
  if (opf == nullptr) {
    return Status::FailedPrecondition(
        StrCat("non-leaf '", in.dict().ObjectName(o), "' has no OPF"));
  }
  if (const auto* ind = dynamic_cast<const IndependentOpf*>(opf)) {
    // §3.2 structure exploitation: conditioning an independent OPF on a
    // child keeps it independent — set that child's probability to 1.
    if (control != nullptr) {
      PXML_RETURN_IF_ERROR(control->Charge(ind->children().size()));
    }
    double mass = ind->MarginalChildProb(child);
    if (mass <= kProbEps) {
      return Status::FailedPrecondition(
          StrCat("selection condition has probability ~0 at '",
                 in.dict().ObjectName(o), "'"));
    }
    auto conditioned = std::make_unique<IndependentOpf>();
    for (const auto& [c, p] : ind->children()) {
      PXML_RETURN_IF_ERROR(conditioned->AddChild(c, c == child ? 1.0 : p));
    }
    PXML_RETURN_IF_ERROR(out->SetOpf(o, std::move(conditioned)));
    return mass;
  }
  double mass = 0.0;
  auto conditioned = std::make_unique<ExplicitOpf>();
  std::uint64_t rows = 0;
  for (const OpfEntry& row : opf->Entries()) {
    if (control != nullptr && ++rows % 1024 == 0) {
      PXML_RETURN_IF_ERROR(control->Charge(1024));
    }
    if (row.child_set.Contains(child)) {
      mass += row.prob;
      if (row.prob > 0.0) conditioned->Set(row.child_set, row.prob);
    }
  }
  if (mass <= kProbEps) {
    return Status::FailedPrecondition(
        StrCat("selection condition has probability ~0 at '",
               in.dict().ObjectName(o), "'"));
  }
  PXML_RETURN_IF_ERROR(conditioned->Normalize());
  PXML_RETURN_IF_ERROR(out->SetOpf(o, std::move(conditioned)));
  return mass;
}

}  // namespace

Result<ProbabilisticInstance> Select(const ProbabilisticInstance& instance,
                                     const SelectionCondition& condition,
                                     SelectionStats* stats,
                                     obs::TraceSession* trace,
                                     QueryControl* control) {
  const WeakInstance& weak = instance.weak();
  Clock::time_point tc = Clock::now();
  PXML_RETURN_IF_ERROR(CheckWeakTree(weak));
  if (control != nullptr) PXML_RETURN_IF_ERROR(control->CheckNow());

  // ---- Locate the target and its ancestor chain.
  std::optional<obs::TraceSpan> locate_span;
  if (trace != nullptr) locate_span.emplace(trace, "locate");
  Clock::time_point t0 = Clock::now();
  ObjectId target = kInvalidId;
  if (condition.kind == SelectionCondition::Kind::kObject) {
    target = condition.object;
  } else {
    PXML_ASSIGN_OR_RETURN(std::vector<IdSet> layers,
                          PrunedWeakPathLayers(weak, condition.path));
    if (layers.back().size() != 1) {
      return Status::Unimplemented(StrCat(
          "efficient value/cardinality selection supports exactly one ",
          "object satisfying the path; found ", layers.back().size(),
          " — use the global SelectWorlds oracle"));
    }
    target = layers.back()[0];
  }
  if (!weak.Present(target)) {
    return Status::FailedPrecondition("selection target is not in V");
  }
  PXML_ASSIGN_OR_RETURN(std::vector<ObjectId> chain,
                        AncestorChain(weak, condition.path, target));
  Clock::time_point t1 = Clock::now();
  locate_span.reset();

  // ---- Copy the instance, then condition ℘ along the chain.
  ProbabilisticInstance out = instance;
  obs::TraceSpan update_span(trace, "update");
  Clock::time_point t2 = Clock::now();
  double condition_prob = 1.0;
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    PXML_ASSIGN_OR_RETURN(
        double m, ConditionOpfOnChild(instance, chain[i], chain[i + 1],
                                      &out, control));
    condition_prob *= m;
  }
  std::size_t updated = chain.size() > 0 ? chain.size() - 1 : 0;
  if (condition.kind == SelectionCondition::Kind::kValue) {
    // Restrict the target's VPF to the values satisfying `op value`.
    const Vpf* vpf = instance.GetVpf(target);
    auto type = weak.TypeOf(target);
    if (vpf == nullptr || !type.has_value()) {
      return Status::FailedPrecondition(
          "value selection target has no VPF/type");
    }
    Vpf restricted;
    double mass = 0.0;
    for (const Vpf::Entry& e : vpf->Entries()) {
      if (EvalValueOp(e.value, condition.value_op, condition.value)) {
        restricted.Set(e.value, e.prob);
        mass += e.prob;
      }
    }
    if (mass <= kProbEps) {
      return Status::FailedPrecondition(
          "value condition has probability ~0 at the target");
    }
    condition_prob *= mass;
    PXML_RETURN_IF_ERROR(restricted.Normalize());
    PXML_RETURN_IF_ERROR(out.SetVpf(target, std::move(restricted)));
    ++updated;
  } else if (condition.kind == SelectionCondition::Kind::kCardinality) {
    // Restrict the target's OPF to rows whose l-labeled child count lies
    // in the range (a weak-instance leaf always has count 0).
    if (weak.IsLeaf(target)) {
      if (!condition.count_range.Contains(0)) {
        return Status::FailedPrecondition(
            "cardinality condition has probability 0 at a leaf target");
      }
    } else {
      const Opf* opf = instance.GetOpf(target);
      if (opf == nullptr) {
        return Status::FailedPrecondition(
            "cardinality selection target has no OPF");
      }
      const IdSet& lch = weak.Lch(target, condition.count_label);
      auto restricted = std::make_unique<ExplicitOpf>();
      double mass = 0.0;
      std::uint64_t rows = 0;
      for (const OpfEntry& row : opf->Entries()) {
        if (control != nullptr && ++rows % 1024 == 0) {
          PXML_RETURN_IF_ERROR(control->Charge(1024));
        }
        std::uint32_t k = static_cast<std::uint32_t>(
            row.child_set.Intersect(lch).size());
        if (condition.count_range.Contains(k)) {
          mass += row.prob;
          if (row.prob > 0.0) restricted->Set(row.child_set, row.prob);
        }
      }
      if (mass <= kProbEps) {
        return Status::FailedPrecondition(
            "cardinality condition has probability ~0 at the target");
      }
      condition_prob *= mass;
      PXML_RETURN_IF_ERROR(restricted->Normalize());
      PXML_RETURN_IF_ERROR(out.SetOpf(target, std::move(restricted)));
      ++updated;
    }
  }
  Clock::time_point t3 = Clock::now();
  update_span.Arg("updated_objects", static_cast<std::uint64_t>(updated));
  update_span.Arg("condition_prob", condition_prob);

  {
    using obs::Registry;
    static obs::Counter& c_passes =
        Registry::Global().GetCounter("pxml.selection.passes");
    static obs::Counter& c_updated =
        Registry::Global().GetCounter("pxml.selection.updated_objects");
    static obs::Histogram& h_check =
        Registry::Global().GetHistogram("pxml.selection.check_ns");
    static obs::Histogram& h_locate =
        Registry::Global().GetHistogram("pxml.selection.locate_ns");
    static obs::Histogram& h_copy =
        Registry::Global().GetHistogram("pxml.selection.copy_ns");
    static obs::Histogram& h_update =
        Registry::Global().GetHistogram("pxml.selection.update_ns");
    c_passes.Increment();
    c_updated.Add(updated);
    h_check.Record(static_cast<std::uint64_t>(Seconds(tc, t0) * 1e9));
    h_locate.Record(static_cast<std::uint64_t>(Seconds(t0, t1) * 1e9));
    h_copy.Record(static_cast<std::uint64_t>(Seconds(t1, t2) * 1e9));
    h_update.Record(static_cast<std::uint64_t>(Seconds(t2, t3) * 1e9));
  }
  if (stats != nullptr) {
    stats->check_seconds = Seconds(tc, t0);
    stats->locate_seconds = Seconds(t0, t1);
    stats->copy_seconds = Seconds(t1, t2);
    stats->update_seconds = Seconds(t2, t3);
    stats->condition_prob = condition_prob;
    stats->updated_objects = updated;
  }
  return out;
}

}  // namespace pxml
