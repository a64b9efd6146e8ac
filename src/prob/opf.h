#ifndef PXML_PROB_OPF_H_
#define PXML_PROB_OPF_H_

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/symbols.h"
#include "util/cancel.h"
#include "util/id_set.h"
#include "util/interval.h"
#include "util/rng.h"
#include "util/status.h"

namespace pxml {

/// One row of an OPF table: a potential child set c in PC(o) and its
/// conditional probability w(c) = P(children of o are exactly c | o exists).
struct OpfEntry {
  IdSet child_set;
  double prob = 0.0;
};

/// An object probability function (Def 3.8): a distribution over the
/// potential child sets PC(o) of a non-leaf object.
///
/// Opf is a polymorphic interface because Section 3.2 of the paper calls
/// for compact representations when structure can be exploited; three are
/// provided:
///   * ExplicitOpf        — a full table (the fully general form; what the
///                          paper's experiments use: 2^b entries);
///   * IndependentOpf     — every child occurs independently with its own
///                          probability (the ProTDB special case);
///   * PerLabelProductOpf — independence *across* labels with an explicit
///                          table per label.
class Opf {
 public:
  virtual ~Opf() = default;

  /// w(c); 0 for sets outside the support.
  virtual double Prob(const IdSet& child_set) const = 0;

  /// All support rows in canonical (IdSet-ascending) order.
  /// For compact representations this materializes the product, which may
  /// be exponential in the number of children — fine for correctness
  /// oracles; hot paths should use the representation-specific API.
  virtual std::vector<OpfEntry> Entries() const = 0;

  /// Number of rows Entries() would produce.
  virtual std::size_t NumEntries() const = 0;

  /// Streams every support row to `visit` without materializing the full
  /// Entries() vector. ExplicitOpf streams its stored rows in place
  /// (canonical order, zero allocation); the compact representations
  /// enumerate their product lazily — one transient row at a time, in a
  /// representation-defined order — so peak memory stays O(1) rows even
  /// when the table is exponential. Callers that need canonical order
  /// must use Entries().
  template <typename Visitor>
  void ForEachEntry(Visitor&& visit) const {
    VisitEntries(
        [](void* ctx, const OpfEntry& entry) {
          (*static_cast<std::remove_reference_t<Visitor>*>(ctx))(entry);
        },
        &visit);
  }

  /// Type-erased visitation hook behind ForEachEntry; `visit(ctx, row)`
  /// is called once per support row. The base implementation falls back
  /// to materializing Entries().
  using EntryVisitor = void (*)(void* ctx, const OpfEntry& entry);
  virtual void VisitEntries(EntryVisitor visit, void* ctx) const;

  /// The set of children mentioned anywhere in the support.
  virtual IdSet ChildUniverse() const = 0;

  /// P(child in C) — the marginal that a particular child occurs.
  virtual double MarginalChildProb(ObjectId child) const;

  /// P(|C ∩ set| ∈ range): the local survival probability of a
  /// cardinality condition whose count label's potential children are
  /// `set`. The default streams every support row (ForEachEntry order)
  /// and sums the rows whose count lies in `range`, charging `control`
  /// (when non-null) once per 1024 rows so an exponential support stays
  /// cooperative; it returns the control's status if that trips.
  virtual Result<double> CountInRangeProb(const IdSet& set,
                                          const IntInterval& range,
                                          QueryControl* control) const;

  /// Draws a child set from the distribution. The default walks the
  /// materialized table CDF; compact representations override with O(n)
  /// sampling.
  virtual IdSet SampleChildSet(Rng& rng) const;

  /// OK iff all probabilities lie in [0,1] and the support sums to 1.
  virtual Status Validate() const;

  virtual std::unique_ptr<Opf> Clone() const = 0;

  /// A copy with every child id `o` replaced by `mapping[o]` (mapping
  /// must cover every id in the child universe) and, when `label_mapping`
  /// is non-null, every label id `l` replaced by `(*label_mapping)[l]`.
  /// Used when instances are re-interned into a merged dictionary
  /// (Cartesian product, renaming).
  virtual std::unique_ptr<Opf> Remap(
      const std::vector<ObjectId>& mapping,
      const std::vector<LabelId>* label_mapping = nullptr) const = 0;

  /// "explicit", "independent", or "per-label".
  virtual std::string RepresentationName() const = 0;

  /// Multi-line table rendering using `dict` for object names.
  std::string ToString(const Dictionary& dict) const;
};

/// A full-table OPF: the general representation. Rows are kept sorted by
/// child set, so iteration order, serialization and fingerprints are
/// deterministic.
class ExplicitOpf final : public Opf {
 public:
  ExplicitOpf() = default;

  /// Builds directly from rows (sorted + deduplicated internally; later
  /// duplicates overwrite earlier ones).
  static ExplicitOpf FromEntries(std::vector<OpfEntry> entries);

  /// Sets w(child_set) = prob (overwrites).
  void Set(IdSet child_set, double prob);

  double Prob(const IdSet& child_set) const override;
  std::vector<OpfEntry> Entries() const override { return rows_; }
  /// The stored rows themselves (canonical order) — no copy; what hot
  /// paths and the freezing compiler iterate.
  const std::vector<OpfEntry>& rows() const { return rows_; }
  void VisitEntries(EntryVisitor visit, void* ctx) const override;
  std::size_t NumEntries() const override { return rows_.size(); }
  IdSet ChildUniverse() const override;
  double MarginalChildProb(ObjectId child) const override;
  std::unique_ptr<Opf> Clone() const override {
    return std::make_unique<ExplicitOpf>(*this);
  }
  std::unique_ptr<Opf> Remap(
      const std::vector<ObjectId>& mapping,
      const std::vector<LabelId>* label_mapping = nullptr) const override;
  std::string RepresentationName() const override { return "explicit"; }

  /// Rescales all rows by 1/mass so they sum to 1. Fails on ~zero mass.
  Status Normalize();

  /// Drops rows with probability <= `threshold` (exact zeros by default).
  void PruneZeroRows(double threshold = 0.0);

 private:
  std::vector<OpfEntry> rows_;  // sorted by child_set
};

/// An OPF under which each child occurs independently with probability
/// p_i:  w(c) = prod_{i in c} p_i * prod_{i not in c} (1 - p_i).
/// This is exactly ProTDB's per-child model (Section 8).
class IndependentOpf final : public Opf {
 public:
  IndependentOpf() = default;

  /// Declares `child` with occurrence probability `p` in [0,1].
  Status AddChild(ObjectId child, double p);

  double Prob(const IdSet& child_set) const override;
  std::vector<OpfEntry> Entries() const override;
  void VisitEntries(EntryVisitor visit, void* ctx) const override;
  std::size_t NumEntries() const override;
  IdSet ChildUniverse() const override;
  double MarginalChildProb(ObjectId child) const override;
  IdSet SampleChildSet(Rng& rng) const override;
  Status Validate() const override;
  std::unique_ptr<Opf> Clone() const override {
    return std::make_unique<IndependentOpf>(*this);
  }
  std::unique_ptr<Opf> Remap(
      const std::vector<ObjectId>& mapping,
      const std::vector<LabelId>* label_mapping = nullptr) const override;
  std::string RepresentationName() const override { return "independent"; }

  const std::vector<std::pair<ObjectId, double>>& children() const {
    return children_;
  }

 private:
  std::vector<std::pair<ObjectId, double>> children_;  // sorted by id
};

/// An OPF that is a product of independent per-label factors, each factor
/// an explicit table over subsets of that label's children — the "specify
/// a distribution over authors and a distribution over titles" compaction
/// of Section 3.2:  w(c) = prod_l  P_l(c ∩ lch(o, l)).
class PerLabelProductOpf final : public Opf {
 public:
  PerLabelProductOpf() = default;

  /// Adds the factor for `label`, whose table ranges over subsets of that
  /// label's children. Factor child universes must be pairwise disjoint.
  Status AddLabelFactor(LabelId label, ExplicitOpf factor);

  double Prob(const IdSet& child_set) const override;
  std::vector<OpfEntry> Entries() const override;
  void VisitEntries(EntryVisitor visit, void* ctx) const override;
  std::size_t NumEntries() const override;
  IdSet ChildUniverse() const override;
  double MarginalChildProb(ObjectId child) const override;
  /// When at most one factor's universe meets `set`, reads only that
  /// factor's rows and multiplies by the other factors' masses (ascending
  /// factor order): O(Σ_l |table_l|) instead of the Π_l |table_l| stream.
  /// Equal to the default in exact arithmetic; the association differs,
  /// so the two agree to ~1e-12. Factors meeting `set` under two or more
  /// labels fall back to the default stream.
  Result<double> CountInRangeProb(const IdSet& set, const IntInterval& range,
                                  QueryControl* control) const override;
  Status Validate() const override;
  std::unique_ptr<Opf> Clone() const override {
    return std::make_unique<PerLabelProductOpf>(*this);
  }
  std::unique_ptr<Opf> Remap(
      const std::vector<ObjectId>& mapping,
      const std::vector<LabelId>* label_mapping = nullptr) const override;
  std::string RepresentationName() const override { return "per-label"; }

  std::size_t num_factors() const { return factors_.size(); }

  /// Read access to the per-label factors (label, table), in insertion
  /// order.
  std::vector<std::pair<LabelId, const ExplicitOpf*>> factor_views() const {
    std::vector<std::pair<LabelId, const ExplicitOpf*>> out;
    out.reserve(factors_.size());
    for (const Factor& f : factors_) out.emplace_back(f.label, &f.table);
    return out;
  }

 private:
  struct Factor {
    LabelId label;
    ExplicitOpf table;
    IdSet universe;
  };
  std::vector<Factor> factors_;
};

}  // namespace pxml

#endif  // PXML_PROB_OPF_H_
