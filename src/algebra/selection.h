#ifndef PXML_ALGEBRA_SELECTION_H_
#define PXML_ALGEBRA_SELECTION_H_

#include "algebra/selection_global.h"
#include "core/probabilistic_instance.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/status.h"

namespace pxml {

/// Phase timings and byproducts of one efficient selection.
struct SelectionStats {
  /// Seconds checking that the weak instance graph is a tree.
  double check_seconds = 0.0;
  /// Seconds locating the chain of path ancestors.
  double locate_seconds = 0.0;
  /// Seconds copying the input into the result instance.
  double copy_seconds = 0.0;
  /// Seconds spent updating ℘ along the chain (the quantity the paper
  /// reports as "< 0.001 second").
  double update_seconds = 0.0;
  /// P(condition) before conditioning — the normalization constant of
  /// Def 5.6, i.e. the answer to the matching probabilistic point query.
  double condition_prob = 0.0;
  /// Number of objects whose ℘(o) was updated (equals the chain length;
  /// the paper notes it equals the instance depth).
  std::size_t updated_objects = 0;
};

/// Efficient selection σ_sc on a tree-shaped probabilistic instance
/// (Sections 5.2 / 6): returns a new probabilistic instance whose world
/// distribution is the Def 5.6 conditional. Only the OPFs on the chain of
/// path ancestors change (conditioned to contain the next chain object);
/// for a value condition the target leaf's VPF collapses to the selected
/// value.
///
/// Supported shapes (everything else falls back to the global oracle):
///  * object conditions p = o, where o is reached by p in the weak
///    instance (tree ⇒ a unique ancestor chain);
///  * value conditions val(p) = v where exactly one object satisfies p.
///
/// Fails with FailedPrecondition when the condition has probability 0.
///
/// A non-null `trace` records the selection's locate and update phases as
/// "locate"/"update" spans (obs/trace.h); null is the zero-cost disabled
/// path. A successful selection flushes its counters into the
/// `pxml.selection.*` registry metrics either way.
///
/// A non-null `control` makes the chain-conditioning pass cooperative
/// (deadline/budget/cancellation, util/cancel.h): each conditioned OPF's
/// row scan charges through it. Null costs one branch per chain object.
Result<ProbabilisticInstance> Select(const ProbabilisticInstance& instance,
                                     const SelectionCondition& condition,
                                     SelectionStats* stats = nullptr,
                                     obs::TraceSession* trace = nullptr,
                                     QueryControl* control = nullptr);

}  // namespace pxml

#endif  // PXML_ALGEBRA_SELECTION_H_
