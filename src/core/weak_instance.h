#ifndef PXML_CORE_WEAK_INSTANCE_H_
#define PXML_CORE_WEAK_INSTANCE_H_

#include <optional>
#include <string>
#include <vector>

#include "graph/instance.h"
#include "graph/path.h"
#include "graph/symbols.h"
#include "prob/cardinality.h"
#include "prob/value.h"
#include "util/id_set.h"
#include "util/interval.h"
#include "util/status.h"

namespace pxml {

/// A weak instance W = (V, lch, tau, val, card) (Def 3.4): the structural
/// half of a probabilistic instance. For every object o and label l,
/// lch(o, l) lists the objects that *may* be l-children of o, and
/// card(o, l) bounds how many of them occur in any compatible world.
///
/// Leaf objects (those with no lch entries) may carry a type tau(o) —
/// whose finite domain the leaf's value ranges over in compatible worlds —
/// and optionally a witnessed value val(o) from that domain.
///
/// Library invariant (checked by ValidateWeakInstance): the lch families
/// of one object are pairwise disjoint across labels, i.e. an object
/// cannot be a potential child of the same parent under two different
/// labels. Every example in the paper satisfies this, and it makes each
/// potential child set decompose uniquely into per-label parts.
class WeakInstance {
 public:
  WeakInstance() = default;

  Dictionary& dict() { return dict_; }
  const Dictionary& dict() const { return dict_; }
  void SetDictionary(Dictionary dict) { dict_ = std::move(dict); }

  /// Interns `name` and adds the object to V (idempotent).
  ObjectId AddObject(std::string_view name);
  Status AddObjectById(ObjectId o);

  Status SetRoot(ObjectId o);
  ObjectId root() const { return root_; }
  bool HasRoot() const { return root_ != kInvalidId; }

  bool Present(ObjectId o) const {
    return o < nodes_.size() && nodes_[o].present;
  }
  std::size_t num_objects() const { return num_present_; }
  std::vector<ObjectId> Objects() const;

  /// Declares `child` a potential l-child of `o` (idempotent per triple).
  Status AddPotentialChild(ObjectId o, LabelId l, ObjectId child);

  /// lch(o, l); empty if no entry.
  const IdSet& Lch(ObjectId o, LabelId l) const;

  /// The labels l with lch(o, l) non-empty, ascending.
  std::vector<LabelId> LabelsOf(ObjectId o) const;

  /// One lch family of an object: a label l and lch(o, l).
  struct LchEntry {
    LabelId label;
    IdSet children;
  };
  /// The lch families of o, ascending by label (empty if o is absent):
  /// LabelsOf and Lch in one pass, without copying.
  const std::vector<LchEntry>& LchEntries(ObjectId o) const;

  /// Union of lch(o, l) over all labels.
  IdSet AllPotentialChildren(ObjectId o) const;

  /// The potential parents of o: objects having o in some lch set.
  const std::vector<ObjectId>& PotentialParents(ObjectId o) const {
    return nodes_[o].parents;
  }

  /// The label under which `child` may hang off `o`, if any. Unique by
  /// the per-object disjointness invariant.
  std::optional<LabelId> ChildLabel(ObjectId o, ObjectId child) const;

  /// True iff o has no lch entries (a leaf of the weak instance).
  bool IsLeaf(ObjectId o) const {
    return Present(o) && nodes_[o].lch.empty();
  }

  /// Sets card(o, l); both endpoints must exist and min <= max.
  Status SetCard(ObjectId o, LabelId l, IntInterval interval);
  IntInterval Card(ObjectId o, LabelId l) const { return card_.Get(o, l); }
  const CardinalityMap& card() const { return card_; }

  /// Assigns tau(o) = type for a leaf.
  Status SetLeafType(ObjectId o, TypeId type);
  /// Assigns tau(o) = type and the witnessed value val(o) = v (v must be
  /// in dom(type)).
  Status SetLeafValue(ObjectId o, TypeId type, Value v);

  std::optional<TypeId> TypeOf(ObjectId o) const;
  std::optional<Value> ValueOf(ObjectId o) const;

  /// Multi-line human-readable rendering.
  std::string ToString() const;

 private:
  struct Node {
    bool present = false;
    std::vector<LchEntry> lch;  // sorted by label
    std::vector<ObjectId> parents;
    std::optional<TypeId> type;
    std::optional<Value> value;
  };

  void EnsureSize(ObjectId o);

  Dictionary dict_;
  std::vector<Node> nodes_;
  CardinalityMap card_;
  ObjectId root_ = kInvalidId;
  std::size_t num_present_ = 0;
};

/// G_W, the weak instance graph (Def 3.7): same vertices, an edge o -> o'
/// iff o' belongs to some potential child set of o. Returned as a
/// SemistructuredInstance sharing W's dictionary, with each edge labeled
/// by the (unique) label under which the child may occur.
Result<SemistructuredInstance> WeakInstanceGraph(const WeakInstance& weak);

/// OK iff G_W is acyclic (Def 4.3) — required for coherent semantics.
Status CheckAcyclic(const WeakInstance& weak);

/// OK iff G_W is a tree (at most one potential parent per object, none
/// for the root, everything reachable) — the shape the efficient
/// Section-6 algorithms assume, under which every compatible world is a
/// tree.
Status CheckWeakTree(const WeakInstance& weak);

/// Forward path layers of p over the weak instance's lch structure:
/// F_0 = {p.start}, F_{i+1} = union of lch(o, l_{i+1}) over o in F_i.
/// These are the objects that *may* satisfy each prefix of p in some
/// compatible world.
Result<std::vector<IdSet>> WeakPathLayers(const WeakInstance& weak,
                                          const PathExpression& path);

/// WeakPathLayers pruned backward: K_i keeps only objects with an
/// l_{i+1}-potential-child in K_{i+1} — the objects on some potential
/// full match of p (the "path ancestors" of §6.2 plus the targets).
Result<std::vector<IdSet>> PrunedWeakPathLayers(const WeakInstance& weak,
                                                const PathExpression& path);

}  // namespace pxml

#endif  // PXML_CORE_WEAK_INSTANCE_H_
