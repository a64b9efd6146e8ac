#include "core/weak_instance.h"

#include <algorithm>
#include <sstream>

#include "graph/algorithms.h"
#include "util/strings.h"

namespace pxml {

namespace {
const IdSet kEmptySet;
}  // namespace

void WeakInstance::EnsureSize(ObjectId o) {
  if (o >= nodes_.size()) nodes_.resize(o + 1);
}

ObjectId WeakInstance::AddObject(std::string_view name) {
  ObjectId o = dict_.InternObject(name);
  EnsureSize(o);
  if (!nodes_[o].present) {
    nodes_[o].present = true;
    ++num_present_;
  }
  return o;
}

Status WeakInstance::AddObjectById(ObjectId o) {
  if (o >= dict_.num_objects()) {
    return Status::NotFound(StrCat("object id ", o, " not in dictionary"));
  }
  EnsureSize(o);
  if (!nodes_[o].present) {
    nodes_[o].present = true;
    ++num_present_;
  }
  return Status::Ok();
}

Status WeakInstance::SetRoot(ObjectId o) {
  if (!Present(o)) {
    return Status::NotFound(StrCat("root object id ", o, " not present"));
  }
  root_ = o;
  return Status::Ok();
}

std::vector<ObjectId> WeakInstance::Objects() const {
  std::vector<ObjectId> out;
  out.reserve(num_present_);
  for (ObjectId o = 0; o < nodes_.size(); ++o) {
    if (nodes_[o].present) out.push_back(o);
  }
  return out;
}

Status WeakInstance::AddPotentialChild(ObjectId o, LabelId l,
                                       ObjectId child) {
  if (!Present(o) || !Present(child)) {
    return Status::NotFound("lch endpoint not present in weak instance");
  }
  if (l >= dict_.num_labels()) {
    return Status::NotFound(StrCat("label id ", l, " not in dictionary"));
  }
  auto& lch = nodes_[o].lch;
  auto it = std::lower_bound(
      lch.begin(), lch.end(), l,
      [](const LchEntry& e, LabelId key) { return e.label < key; });
  if (it == lch.end() || it->label != l) {
    it = lch.insert(it, LchEntry{l, IdSet()});
  }
  if (it->children.Contains(child)) return Status::Ok();
  it->children = it->children.With(child);
  auto& parents = nodes_[child].parents;
  if (std::find(parents.begin(), parents.end(), o) == parents.end()) {
    parents.push_back(o);
  }
  return Status::Ok();
}

const IdSet& WeakInstance::Lch(ObjectId o, LabelId l) const {
  if (!Present(o)) return kEmptySet;
  const auto& lch = nodes_[o].lch;
  auto it = std::lower_bound(
      lch.begin(), lch.end(), l,
      [](const LchEntry& e, LabelId key) { return e.label < key; });
  if (it != lch.end() && it->label == l) return it->children;
  return kEmptySet;
}

std::vector<LabelId> WeakInstance::LabelsOf(ObjectId o) const {
  std::vector<LabelId> out;
  if (!Present(o)) return out;
  for (const LchEntry& e : nodes_[o].lch) out.push_back(e.label);
  return out;
}

const std::vector<WeakInstance::LchEntry>& WeakInstance::LchEntries(
    ObjectId o) const {
  static const std::vector<LchEntry> kNone;
  return Present(o) ? nodes_[o].lch : kNone;
}

IdSet WeakInstance::AllPotentialChildren(ObjectId o) const {
  IdSet out;
  if (!Present(o)) return out;
  for (const LchEntry& e : nodes_[o].lch) out = out.Union(e.children);
  return out;
}

std::optional<LabelId> WeakInstance::ChildLabel(ObjectId o,
                                                ObjectId child) const {
  if (!Present(o)) return std::nullopt;
  for (const LchEntry& e : nodes_[o].lch) {
    if (e.children.Contains(child)) return e.label;
  }
  return std::nullopt;
}

Status WeakInstance::SetCard(ObjectId o, LabelId l, IntInterval interval) {
  if (!Present(o)) {
    return Status::NotFound(StrCat("object id ", o, " not present"));
  }
  if (!interval.valid()) {
    return Status::InvalidArgument(
        StrCat("invalid cardinality interval ", interval.ToString()));
  }
  card_.Set(o, l, interval);
  return Status::Ok();
}

Status WeakInstance::SetLeafType(ObjectId o, TypeId type) {
  if (!Present(o)) {
    return Status::NotFound(StrCat("object id ", o, " not present"));
  }
  if (type >= dict_.num_types()) {
    return Status::NotFound(StrCat("type id ", type, " not in dictionary"));
  }
  nodes_[o].type = type;
  return Status::Ok();
}

Status WeakInstance::SetLeafValue(ObjectId o, TypeId type, Value v) {
  PXML_RETURN_IF_ERROR(SetLeafType(o, type));
  if (!dict_.DomainContains(type, v)) {
    return Status::InvalidArgument(
        StrCat("value '", v.ToString(), "' not in dom(",
               dict_.TypeName(type), ")"));
  }
  nodes_[o].value = std::move(v);
  return Status::Ok();
}

std::optional<TypeId> WeakInstance::TypeOf(ObjectId o) const {
  if (!Present(o)) return std::nullopt;
  return nodes_[o].type;
}

std::optional<Value> WeakInstance::ValueOf(ObjectId o) const {
  if (!Present(o)) return std::nullopt;
  return nodes_[o].value;
}

std::string WeakInstance::ToString() const {
  std::ostringstream os;
  os << "weak instance root="
     << (HasRoot() ? dict_.ObjectName(root_) : std::string("<none>"))
     << " objects=" << num_present_ << '\n';
  for (ObjectId o : Objects()) {
    os << "  " << dict_.ObjectName(o);
    if (nodes_[o].type) os << " : " << dict_.TypeName(*nodes_[o].type);
    if (nodes_[o].value) os << " = " << nodes_[o].value->ToString();
    for (const LchEntry& e : nodes_[o].lch) {
      os << "  lch[" << dict_.LabelName(e.label) << "]=";
      os << '{';
      bool first = true;
      for (ObjectId c : e.children) {
        if (!first) os << ',';
        first = false;
        os << dict_.ObjectName(c);
      }
      os << '}' << " card=" << card_.Get(o, e.label).ToString();
    }
    os << '\n';
  }
  return os.str();
}

namespace {

/// Calls fn(l, lch(o, l)) for every lch family of o that contributes
/// edges to G_W (Def 3.7, as WeakInstanceGraph builds it): none when
/// PC(o) is empty, i.e. when some card(o, l).min exceeds |lch(o, l)|,
/// and never a family whose interval admits no child (card.max == 0).
template <typename Fn>
void ForEachEdgeFamily(const WeakInstance& weak, ObjectId o, Fn&& fn) {
  const std::vector<WeakInstance::LchEntry>& families = weak.LchEntries(o);
  for (const WeakInstance::LchEntry& e : families) {
    if (weak.Card(o, e.label).min() > e.children.size()) return;
  }
  for (const WeakInstance::LchEntry& e : families) {
    if (weak.Card(o, e.label).max() == 0) continue;
    fn(e.label, e.children);
  }
}

}  // namespace

Result<SemistructuredInstance> WeakInstanceGraph(const WeakInstance& weak) {
  SemistructuredInstance graph;
  graph.SetDictionary(weak.dict());
  for (ObjectId o : weak.Objects()) {
    PXML_RETURN_IF_ERROR(graph.AddObjectById(o));
  }
  if (weak.HasRoot()) {
    PXML_RETURN_IF_ERROR(graph.SetRoot(weak.root()));
  }
  for (ObjectId o : weak.Objects()) {
    // PC(o) is non-empty iff PL(o, l) is non-empty for every label of o,
    // i.e. card(o, l).min <= |lch(o, l)|.
    bool pc_nonempty = true;
    for (LabelId l : weak.LabelsOf(o)) {
      if (weak.Card(o, l).min() > weak.Lch(o, l).size()) {
        pc_nonempty = false;
        break;
      }
    }
    if (!pc_nonempty) continue;
    for (LabelId l : weak.LabelsOf(o)) {
      // Some c in PC(o) contains child iff a set in PL(o, l) does, i.e.
      // the interval admits at least one element.
      if (weak.Card(o, l).max() == 0) continue;
      for (ObjectId child : weak.Lch(o, l)) {
        PXML_RETURN_IF_ERROR(graph.AddEdge(o, l, child));
      }
    }
  }
  return graph;
}

Status CheckWeakTree(const WeakInstance& weak) {
  // The verdicts (and status codes) of CheckTree(WeakInstanceGraph(weak)),
  // computed on lch/card directly: one parent slot per object and one DFS
  // stack, no graph and no dictionary copy.
  if (!weak.HasRoot()) {
    return Status::NotATree("weak instance has no root");
  }
  const Dictionary& dict = weak.dict();
  const std::size_t n = dict.num_objects();
  // parent[c]: the last potential parent seen for c in G_W. Objects are
  // visited in ascending order, so parent[c] == o flags c listed twice by
  // o, which building G_W rejects as a duplicate edge.
  std::vector<ObjectId> parent(n, kInvalidId);
  std::size_t present = 0;
  ObjectId second_parent_of = kInvalidId;
  Status build = Status::Ok();
  for (ObjectId o = 0; o < n; ++o) {
    if (!weak.Present(o)) continue;
    ++present;
    if (!build.ok()) continue;
    ForEachEdgeFamily(weak, o, [&](LabelId l, const IdSet& children) {
      if (!build.ok()) return;
      if (l >= dict.num_labels()) {
        build = Status::NotFound(StrCat("label id ", l, " not in dictionary"));
        return;
      }
      for (ObjectId c : children) {
        if (c >= n) continue;  // reported below as outside the dictionary
        if (parent[c] == o) {
          build = Status::FailedPrecondition(
              StrCat("edge (", dict.ObjectName(o), ",", dict.ObjectName(c),
                     ") already exists"));
          return;
        }
        if (parent[c] != kInvalidId && second_parent_of == kInvalidId) {
          second_parent_of = c;
        }
        parent[c] = o;
      }
    });
  }
  if (present != weak.num_objects()) {
    return Status::NotFound("weak instance has objects outside its dictionary");
  }
  PXML_RETURN_IF_ERROR(build);
  const ObjectId root = weak.root();
  if (parent[root] != kInvalidId) {
    return Status::NotATree("root has a parent");
  }
  if (second_parent_of != kInvalidId) {
    return Status::NotATree(
        StrCat("object '", dict.ObjectName(second_parent_of),
               "' has several parents; a tree requires exactly 1"));
  }
  // No object has two parents and the root has none, so the objects
  // reached from the root form a tree and the walk never revisits one.
  // An object without a parent, or on a cycle, is never reached.
  std::size_t reached = 0;
  std::vector<ObjectId> stack{root};
  while (!stack.empty()) {
    const ObjectId o = stack.back();
    stack.pop_back();
    ++reached;
    ForEachEdgeFamily(weak, o, [&](LabelId, const IdSet& children) {
      stack.insert(stack.end(), children.begin(), children.end());
    });
  }
  if (reached != present) {
    return Status::NotATree("not all objects are reachable from the root");
  }
  return Status::Ok();
}

Result<std::vector<IdSet>> WeakPathLayers(const WeakInstance& weak,
                                          const PathExpression& path) {
  if (!weak.Present(path.start)) {
    return Status::UnknownObject(
        StrCat("path start object id ", path.start, " not present"));
  }
  std::vector<IdSet> layers;
  layers.reserve(path.labels.size() + 1);
  layers.push_back(IdSet{path.start});
  for (LabelId l : path.labels) {
    IdSet next;
    for (ObjectId o : layers.back()) {
      next = next.Union(weak.Lch(o, l));
    }
    layers.push_back(std::move(next));
  }
  return layers;
}

Result<std::vector<IdSet>> PrunedWeakPathLayers(const WeakInstance& weak,
                                                const PathExpression& path) {
  PXML_ASSIGN_OR_RETURN(std::vector<IdSet> layers,
                        WeakPathLayers(weak, path));
  for (std::size_t i = layers.size() - 1; i-- > 0;) {
    LabelId l = path.labels[i];
    std::vector<std::uint32_t> kept;
    for (ObjectId o : layers[i]) {
      if (!weak.Lch(o, l).Intersect(layers[i + 1]).empty()) {
        kept.push_back(o);
      }
    }
    layers[i] = IdSet(std::move(kept));
  }
  return layers;
}

Status CheckAcyclic(const WeakInstance& weak) {
  PXML_ASSIGN_OR_RETURN(SemistructuredInstance graph,
                        WeakInstanceGraph(weak));
  if (!IsAcyclic(graph)) {
    return Status::FailedPrecondition(
        "weak instance graph contains a cycle (Def 4.3 violated)");
  }
  return Status::Ok();
}

}  // namespace pxml
