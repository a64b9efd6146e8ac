#include "prob/opf.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "prob/distribution.h"
#include "util/strings.h"

namespace pxml {

void Opf::VisitEntries(EntryVisitor visit, void* ctx) const {
  for (const OpfEntry& e : Entries()) visit(ctx, e);
}

double Opf::MarginalChildProb(ObjectId child) const {
  double p = 0.0;
  for (const OpfEntry& e : Entries()) {
    if (e.child_set.Contains(child)) p += e.prob;
  }
  return p;
}

Result<double> Opf::CountInRangeProb(const IdSet& set,
                                     const IntInterval& range,
                                     QueryControl* control) const {
  double p = 0.0;
  Status stream_status;
  std::uint64_t rows = 0;
  ForEachEntry([&](const OpfEntry& row) {
    if (!stream_status.ok()) return;
    std::uint32_t k = 0;
    row.child_set.ForEachIntersecting(set, [&](ObjectId) { ++k; });
    if (range.Contains(k)) p += row.prob;
    if (control != nullptr && ++rows % 1024 == 0) {
      stream_status = control->Charge(1024);
    }
  });
  PXML_RETURN_IF_ERROR(stream_status);
  return p;
}

IdSet Opf::SampleChildSet(Rng& rng) const {
  double u = rng.NextDouble();
  std::vector<OpfEntry> entries = Entries();
  double cum = 0.0;
  for (const OpfEntry& e : entries) {
    cum += e.prob;
    if (u < cum) return e.child_set;
  }
  // Rounding slack: return the last positive row.
  for (std::size_t i = entries.size(); i-- > 0;) {
    if (entries[i].prob > 0.0) return entries[i].child_set;
  }
  return IdSet();
}

Status Opf::Validate() const {
  std::vector<OpfEntry> entries = Entries();
  std::vector<double> probs;
  probs.reserve(entries.size());
  for (const OpfEntry& e : entries) probs.push_back(e.prob);
  return ValidateProbabilityVector(probs);
}

std::string Opf::ToString(const Dictionary& dict) const {
  std::ostringstream os;
  os << RepresentationName() << " OPF {\n";
  for (const OpfEntry& e : Entries()) {
    os << "  {";
    bool first = true;
    for (ObjectId o : e.child_set) {
      if (!first) os << ',';
      first = false;
      os << dict.ObjectName(o);
    }
    os << "} -> " << e.prob << '\n';
  }
  os << '}';
  return os.str();
}

// ---------------------------------------------------------------- Explicit

ExplicitOpf ExplicitOpf::FromEntries(std::vector<OpfEntry> entries) {
  // Bulk path: one sort instead of per-row sorted insertion.
  std::stable_sort(entries.begin(), entries.end(),
                   [](const OpfEntry& a, const OpfEntry& b) {
                     return a.child_set < b.child_set;
                   });
  // Later duplicates overwrite earlier ones.
  std::size_t out = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (out > 0 && entries[out - 1].child_set == entries[i].child_set) {
      entries[out - 1].prob = entries[i].prob;
    } else {
      if (out != i) entries[out] = std::move(entries[i]);
      ++out;
    }
  }
  entries.resize(out);
  ExplicitOpf opf;
  opf.rows_ = std::move(entries);
  return opf;
}

void ExplicitOpf::Set(IdSet child_set, double prob) {
  auto it = std::lower_bound(rows_.begin(), rows_.end(), child_set,
                             [](const OpfEntry& e, const IdSet& key) {
                               return e.child_set < key;
                             });
  if (it != rows_.end() && it->child_set == child_set) {
    it->prob = prob;
  } else {
    rows_.insert(it, OpfEntry{std::move(child_set), prob});
  }
}

double ExplicitOpf::Prob(const IdSet& child_set) const {
  auto it = std::lower_bound(rows_.begin(), rows_.end(), child_set,
                             [](const OpfEntry& e, const IdSet& key) {
                               return e.child_set < key;
                             });
  if (it != rows_.end() && it->child_set == child_set) return it->prob;
  return 0.0;
}

void ExplicitOpf::VisitEntries(EntryVisitor visit, void* ctx) const {
  // In-place walk over the stored (canonical-order) rows: no allocation,
  // no copy — the "explicit fallback never materializes Entries()" path.
  for (const OpfEntry& e : rows_) visit(ctx, e);
}

IdSet ExplicitOpf::ChildUniverse() const {
  IdSet out;
  for (const OpfEntry& e : rows_) out = out.Union(e.child_set);
  return out;
}

double ExplicitOpf::MarginalChildProb(ObjectId child) const {
  double p = 0.0;
  for (const OpfEntry& e : rows_) {
    if (e.child_set.Contains(child)) p += e.prob;
  }
  return p;
}

std::unique_ptr<Opf> ExplicitOpf::Remap(
    const std::vector<ObjectId>& mapping,
    const std::vector<LabelId>* /*label_mapping*/) const {
  auto out = std::make_unique<ExplicitOpf>();
  for (const OpfEntry& e : rows_) {
    std::vector<std::uint32_t> ids;
    ids.reserve(e.child_set.size());
    for (ObjectId o : e.child_set) ids.push_back(mapping[o]);
    out->Set(IdSet(std::move(ids)), e.prob);
  }
  return out;
}

Status ExplicitOpf::Normalize() {
  std::vector<double> probs;
  probs.reserve(rows_.size());
  for (const OpfEntry& e : rows_) probs.push_back(e.prob);
  PXML_RETURN_IF_ERROR(NormalizeInPlace(probs));
  for (std::size_t i = 0; i < rows_.size(); ++i) rows_[i].prob = probs[i];
  return Status::Ok();
}

void ExplicitOpf::PruneZeroRows(double threshold) {
  rows_.erase(std::remove_if(rows_.begin(), rows_.end(),
                             [&](const OpfEntry& e) {
                               return e.prob <= threshold;
                             }),
              rows_.end());
}

// ------------------------------------------------------------- Independent

Status IndependentOpf::AddChild(ObjectId child, double p) {
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument(
        StrCat("child probability ", p, " outside [0,1]"));
  }
  auto it = std::lower_bound(
      children_.begin(), children_.end(), child,
      [](const std::pair<ObjectId, double>& e, ObjectId key) {
        return e.first < key;
      });
  if (it != children_.end() && it->first == child) {
    return Status::FailedPrecondition(
        StrCat("child id ", child, " already declared"));
  }
  children_.insert(it, {child, p});
  return Status::Ok();
}

double IndependentOpf::Prob(const IdSet& child_set) const {
  if (!child_set.IsSubsetOf(ChildUniverse())) return 0.0;
  double p = 1.0;
  for (const auto& [child, pi] : children_) {
    p *= child_set.Contains(child) ? pi : (1.0 - pi);
  }
  return p;
}

std::vector<OpfEntry> IndependentOpf::Entries() const {
  // Materialize all 2^n subsets in canonical order.
  std::vector<OpfEntry> out;
  out.push_back(OpfEntry{IdSet(), 1.0});
  for (const auto& [child, pi] : children_) {
    std::size_t n = out.size();
    out.reserve(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(OpfEntry{out[i].child_set.With(child), out[i].prob * pi});
      out[i].prob *= (1.0 - pi);
    }
  }
  std::sort(out.begin(), out.end(), [](const OpfEntry& a, const OpfEntry& b) {
    return a.child_set < b.child_set;
  });
  return out;
}

void IndependentOpf::VisitEntries(EntryVisitor visit, void* ctx) const {
  // Lazy subset enumeration (binary-counter order over the sorted child
  // list, not canonical IdSet order): one transient row alive at a time
  // instead of the 2^n-row table Entries() builds.
  const std::size_t n = children_.size();
  std::vector<std::uint32_t> members;
  members.reserve(n);
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    members.clear();
    double p = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (std::size_t{1} << i)) {
        members.push_back(children_[i].first);
        p *= children_[i].second;
      } else {
        p *= 1.0 - children_[i].second;
      }
    }
    OpfEntry row{IdSet(members), p};
    visit(ctx, row);
  }
}

std::size_t IndependentOpf::NumEntries() const {
  return static_cast<std::size_t>(1) << children_.size();
}

IdSet IndependentOpf::ChildUniverse() const {
  std::vector<std::uint32_t> ids;
  ids.reserve(children_.size());
  for (const auto& [child, p] : children_) ids.push_back(child);
  return IdSet(std::move(ids));
}

double IndependentOpf::MarginalChildProb(ObjectId child) const {
  for (const auto& [c, p] : children_) {
    if (c == child) return p;
  }
  return 0.0;
}

IdSet IndependentOpf::SampleChildSet(Rng& rng) const {
  std::vector<std::uint32_t> members;
  for (const auto& [child, p] : children_) {
    if (rng.NextBool(p)) members.push_back(child);
  }
  return IdSet(std::move(members));
}

std::unique_ptr<Opf> IndependentOpf::Remap(
    const std::vector<ObjectId>& mapping,
    const std::vector<LabelId>* /*label_mapping*/) const {
  auto out = std::make_unique<IndependentOpf>();
  for (const auto& [child, p] : children_) {
    // Ignore failures: remapping preserves probabilities and uniqueness.
    out->AddChild(mapping[child], p).ok();
  }
  return out;
}

Status IndependentOpf::Validate() const {
  for (const auto& [child, p] : children_) {
    if (!(p >= 0.0 && p <= 1.0)) {
      return Status::InvalidArgument(
          StrCat("child ", child, " probability ", p, " outside [0,1]"));
    }
  }
  return Status::Ok();
}

// -------------------------------------------------------- PerLabelProduct

Status PerLabelProductOpf::AddLabelFactor(LabelId label, ExplicitOpf factor) {
  IdSet universe = factor.ChildUniverse();
  for (const Factor& f : factors_) {
    if (f.label == label) {
      return Status::FailedPrecondition(
          StrCat("factor for label id ", label, " already present"));
    }
    if (!f.universe.Intersect(universe).empty()) {
      return Status::FailedPrecondition(
          "per-label factors must have disjoint child universes");
    }
  }
  factors_.push_back(Factor{label, std::move(factor), std::move(universe)});
  return Status::Ok();
}

double PerLabelProductOpf::Prob(const IdSet& child_set) const {
  // c must decompose exactly into per-factor parts.
  IdSet covered;
  for (const Factor& f : factors_) covered = covered.Union(f.universe);
  if (!child_set.IsSubsetOf(covered)) return 0.0;
  double p = 1.0;
  for (const Factor& f : factors_) {
    p *= f.table.Prob(child_set.Intersect(f.universe));
    if (p == 0.0) return 0.0;
  }
  return p;
}

std::vector<OpfEntry> PerLabelProductOpf::Entries() const {
  std::vector<OpfEntry> out;
  out.push_back(OpfEntry{IdSet(), 1.0});
  for (const Factor& f : factors_) {
    std::vector<OpfEntry> next;
    std::vector<OpfEntry> rows = f.table.Entries();
    next.reserve(out.size() * rows.size());
    for (const OpfEntry& base : out) {
      for (const OpfEntry& row : rows) {
        next.push_back(OpfEntry{base.child_set.Union(row.child_set),
                                base.prob * row.prob});
      }
    }
    out = std::move(next);
  }
  std::sort(out.begin(), out.end(), [](const OpfEntry& a, const OpfEntry& b) {
    return a.child_set < b.child_set;
  });
  return out;
}

void PerLabelProductOpf::VisitEntries(EntryVisitor visit, void* ctx) const {
  // Lazy product enumeration (factor-nested order, not canonical): one
  // combined row alive at a time instead of the full Π_l |table_l| cross
  // product Entries() materializes.
  struct Frame {
    const PerLabelProductOpf* self;
    EntryVisitor visit;
    void* ctx;
  } frame{this, visit, ctx};
  struct Rec {
    static void Go(const Frame& f, std::size_t i, const IdSet& members,
                   double p) {
      if (i == f.self->factors_.size()) {
        OpfEntry row{members, p};
        f.visit(f.ctx, row);
        return;
      }
      for (const OpfEntry& e : f.self->factors_[i].table.rows()) {
        Go(f, i + 1, members.Union(e.child_set), p * e.prob);
      }
    }
  };
  Rec::Go(frame, 0, IdSet(), 1.0);
}

std::size_t PerLabelProductOpf::NumEntries() const {
  std::size_t n = 1;
  for (const Factor& f : factors_) n *= f.table.NumEntries();
  return n;
}

IdSet PerLabelProductOpf::ChildUniverse() const {
  IdSet out;
  for (const Factor& f : factors_) out = out.Union(f.universe);
  return out;
}

double PerLabelProductOpf::MarginalChildProb(ObjectId child) const {
  for (const Factor& f : factors_) {
    if (f.universe.Contains(child)) return f.table.MarginalChildProb(child);
  }
  return 0.0;
}

Result<double> PerLabelProductOpf::CountInRangeProb(
    const IdSet& set, const IntInterval& range, QueryControl* control) const {
  // Factors are independent with disjoint universes, so a factor whose
  // universe misses `set` contributes only its mass.
  const Factor* counted = nullptr;
  double others = 1.0;
  for (const Factor& f : factors_) {
    bool meets = false;
    f.universe.ForEachIntersecting(set, [&](ObjectId) { meets = true; });
    if (!meets) {
      double mass = 0.0;
      for (const OpfEntry& e : f.table.rows()) mass += e.prob;
      others *= mass;
    } else if (counted == nullptr) {
      counted = &f;
    } else {
      return Opf::CountInRangeProb(set, range, control);
    }
  }
  if (counted == nullptr) return range.Contains(0) ? others : 0.0;
  double in_range = 0.0;
  std::uint64_t rows = 0;
  for (const OpfEntry& row : counted->table.rows()) {
    std::uint32_t k = 0;
    row.child_set.ForEachIntersecting(set, [&](ObjectId) { ++k; });
    if (range.Contains(k)) in_range += row.prob;
    if (control != nullptr && ++rows % 1024 == 0) {
      PXML_RETURN_IF_ERROR(control->Charge(1024));
    }
  }
  return in_range * others;
}

std::unique_ptr<Opf> PerLabelProductOpf::Remap(
    const std::vector<ObjectId>& mapping,
    const std::vector<LabelId>* label_mapping) const {
  auto out = std::make_unique<PerLabelProductOpf>();
  for (const Factor& f : factors_) {
    std::unique_ptr<Opf> remapped = f.table.Remap(mapping);
    LabelId label =
        label_mapping != nullptr ? (*label_mapping)[f.label] : f.label;
    out->AddLabelFactor(label, *static_cast<ExplicitOpf*>(remapped.get()))
        .ok();
  }
  return out;
}

Status PerLabelProductOpf::Validate() const {
  for (const Factor& f : factors_) {
    PXML_RETURN_IF_ERROR(f.table.Validate());
  }
  return Status::Ok();
}

}  // namespace pxml
