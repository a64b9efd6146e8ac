#include <gtest/gtest.h>

#include <algorithm>

#include "core/potential_children.h"
#include "core/validation.h"
#include "core/weak_instance.h"
#include "fixtures.h"
#include "util/rng.h"
#include "graph/algorithms.h"
#include "workload/generator.h"
#include "workload/paper_instances.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace pxml {
namespace {

using testing::MakeBibliographicInstance;

// ------------------------------------------------------------ WeakInstance

TEST(WeakInstanceTest, LchAndLabels) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  const WeakInstance& weak = inst.weak();
  const Dictionary& dict = weak.dict();
  ObjectId b1 = *dict.FindObject("B1");
  LabelId author = *dict.FindLabel("author");
  LabelId title = *dict.FindLabel("title");
  EXPECT_EQ(weak.Lch(b1, author).size(), 2u);
  EXPECT_EQ(weak.Lch(b1, title).size(), 1u);
  EXPECT_EQ(weak.LabelsOf(b1).size(), 2u);
  EXPECT_EQ(weak.AllPotentialChildren(b1).size(), 3u);
  EXPECT_TRUE(weak.Lch(b1, *dict.FindLabel("book")).empty());
}

TEST(WeakInstanceTest, ChildLabelIsUniquePerPair) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  const WeakInstance& weak = inst.weak();
  const Dictionary& dict = weak.dict();
  ObjectId b1 = *dict.FindObject("B1");
  ObjectId t1 = *dict.FindObject("T1");
  EXPECT_EQ(weak.ChildLabel(b1, t1), *dict.FindLabel("title"));
  EXPECT_FALSE(weak.ChildLabel(t1, b1).has_value());
}

TEST(WeakInstanceTest, LeavesAreLchFree) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  const WeakInstance& weak = inst.weak();
  EXPECT_TRUE(weak.IsLeaf(*weak.dict().FindObject("T1")));
  EXPECT_FALSE(weak.IsLeaf(*weak.dict().FindObject("A1")));
}

TEST(WeakInstanceTest, WeakInstanceGraphHasLchEdges) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  auto graph = WeakInstanceGraph(inst.weak());
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_objects(), 11u);
  EXPECT_EQ(graph->num_edges(), 15u);
  EXPECT_TRUE(IsAcyclic(*graph));
}

TEST(WeakInstanceTest, CardMaxZeroDropsGraphEdges) {
  WeakInstance weak;
  ObjectId r = weak.AddObject("r");
  ObjectId x = weak.AddObject("x");
  LabelId l = weak.dict().InternLabel("l");
  ASSERT_TRUE(weak.SetRoot(r).ok());
  ASSERT_TRUE(weak.AddPotentialChild(r, l, x).ok());
  ASSERT_TRUE(weak.SetCard(r, l, IntInterval(0, 0)).ok());
  auto graph = WeakInstanceGraph(weak);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_edges(), 0u);
}

TEST(WeakInstanceTest, AcyclicityCheck) {
  WeakInstance weak;
  ObjectId a = weak.AddObject("a");
  ObjectId b = weak.AddObject("b");
  LabelId l = weak.dict().InternLabel("l");
  ASSERT_TRUE(weak.SetRoot(a).ok());
  ASSERT_TRUE(weak.AddPotentialChild(a, l, b).ok());
  EXPECT_TRUE(CheckAcyclic(weak).ok());
  ASSERT_TRUE(weak.AddPotentialChild(b, l, a).ok());
  EXPECT_FALSE(CheckAcyclic(weak).ok());
}

TEST(WeakInstanceTest, TreeCheck) {
  ProbabilisticInstance bib = MakeBibliographicInstance();
  EXPECT_FALSE(CheckWeakTree(bib.weak()).ok());  // A1/A2 share I1 etc.
  ProbabilisticInstance small = testing::MakeSmallTreeInstance();
  EXPECT_TRUE(CheckWeakTree(small.weak()).ok());
}

// CheckWeakTree walks lch/card directly; CheckTree over the materialized
// G_W is its oracle. Both must agree on ok() and on the status code.
void ExpectTreeCheckMatchesGraph(const WeakInstance& weak,
                                 const std::string& what) {
  Status direct = CheckWeakTree(weak);
  Status oracle = Status::Ok();
  if (!weak.HasRoot()) {
    oracle = Status::NotATree("weak instance has no root");
  } else {
    Result<SemistructuredInstance> graph = WeakInstanceGraph(weak);
    oracle = graph.ok() ? CheckTree(*graph) : graph.status();
  }
  EXPECT_EQ(direct.ok(), oracle.ok())
      << what << ": direct " << direct << ", graph " << oracle;
  EXPECT_EQ(direct.code(), oracle.code())
      << what << ": direct " << direct << ", graph " << oracle;
}

TEST(WeakTreeCheckTest, AgreesWithGraphOnPaperInstances) {
  ProbabilisticInstance bib = MakeBibliographicInstance();
  EXPECT_EQ(CheckWeakTree(bib.weak()).code(), StatusCode::kNotATree);
  ExpectTreeCheckMatchesGraph(bib.weak(), "figure 2");
  ExpectTreeCheckMatchesGraph(
      testing::MakeFullyTypedBibliographicInstance().weak(),
      "fully typed figure 2");
  ExpectTreeCheckMatchesGraph(testing::MakeSmallTreeInstance().weak(),
                              "small tree");
  ExpectTreeCheckMatchesGraph(testing::MakeChainInstance().weak(), "chain");
  ExpectTreeCheckMatchesGraph(
      testing::MakeTreeBibliographicInstance().weak(), "tree bibliography");
  for (bool typed : {false, true}) {
    Result<ProbabilisticInstance> fig2 = MakeFigure2Instance(typed);
    ASSERT_TRUE(fig2.ok()) << fig2.status();
    EXPECT_FALSE(CheckWeakTree(fig2->weak()).ok());
    ExpectTreeCheckMatchesGraph(fig2->weak(), "MakeFigure2Instance");
  }
}

TEST(WeakTreeCheckTest, AgreesWithGraphOnGeneratedInstances) {
  for (LabelingScheme scheme :
       {LabelingScheme::kSameLabels, LabelingScheme::kFullyRandom}) {
    for (OpfStyle style : {OpfStyle::kExplicitTable, OpfStyle::kIndependent,
                           OpfStyle::kPerLabelProduct}) {
      for (std::uint32_t depth : {0u, 1u, 3u, 5u}) {
        GeneratorConfig config;
        config.depth = depth;
        config.branching = 3;
        config.labeling = scheme;
        config.opf_style = style;
        config.with_leaf_values = true;
        config.seed = 7 + depth;
        Result<ProbabilisticInstance> inst = GenerateBalancedTree(config);
        ASSERT_TRUE(inst.ok()) << inst.status();
        EXPECT_TRUE(CheckWeakTree(inst->weak()).ok());
        ExpectTreeCheckMatchesGraph(inst->weak(), "balanced tree");
      }
    }
  }
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    DagConfig config;
    config.num_objects = 4 + seed % 6;
    config.seed = seed;
    Result<ProbabilisticInstance> dag = GenerateRandomDag(config);
    ASSERT_TRUE(dag.ok()) << dag.status();
    ExpectTreeCheckMatchesGraph(dag->weak(), "random dag");
  }
}

/// r -a-> {x, y}, x -b-> {z}: a tree, which each malformed case below
/// edits.
struct TreeShape {
  WeakInstance weak;
  ObjectId r, x, y, z;
  LabelId a, b;

  TreeShape() {
    r = weak.AddObject("r");
    x = weak.AddObject("x");
    y = weak.AddObject("y");
    z = weak.AddObject("z");
    a = weak.dict().InternLabel("a");
    b = weak.dict().InternLabel("b");
    EXPECT_TRUE(weak.SetRoot(r).ok());
    EXPECT_TRUE(weak.AddPotentialChild(r, a, x).ok());
    EXPECT_TRUE(weak.AddPotentialChild(r, a, y).ok());
    EXPECT_TRUE(weak.AddPotentialChild(x, b, z).ok());
  }
};

TEST(WeakTreeCheckTest, AgreesWithGraphOnMalformedShapes) {
  {
    TreeShape t;
    EXPECT_TRUE(CheckWeakTree(t.weak).ok());
    ExpectTreeCheckMatchesGraph(t.weak, "well-formed tree");
  }
  {
    WeakInstance weak;
    weak.AddObject("r");
    EXPECT_EQ(CheckWeakTree(weak).code(), StatusCode::kNotATree);
    ExpectTreeCheckMatchesGraph(weak, "no root");
  }
  {
    TreeShape t;
    ASSERT_TRUE(t.weak.AddPotentialChild(t.y, t.b, t.z).ok());
    EXPECT_EQ(CheckWeakTree(t.weak).code(), StatusCode::kNotATree);
    ExpectTreeCheckMatchesGraph(t.weak, "second potential parent");
  }
  {
    TreeShape t;
    ASSERT_TRUE(t.weak.AddPotentialChild(t.z, t.a, t.r).ok());
    EXPECT_EQ(CheckWeakTree(t.weak).code(), StatusCode::kNotATree);
    ExpectTreeCheckMatchesGraph(t.weak, "parent of the root");
  }
  {
    TreeShape t;
    ASSERT_TRUE(t.weak.AddPotentialChild(t.z, t.a, t.z).ok());
    EXPECT_EQ(CheckWeakTree(t.weak).code(), StatusCode::kNotATree);
    ExpectTreeCheckMatchesGraph(t.weak, "self-loop");
  }
  {
    TreeShape t;
    t.weak.AddObject("w");
    EXPECT_EQ(CheckWeakTree(t.weak).code(), StatusCode::kNotATree);
    ExpectTreeCheckMatchesGraph(t.weak, "unreachable object");
  }
  {
    // u and v are each other's only parent: every object but the root
    // has one parent, yet neither is reachable.
    TreeShape t;
    ObjectId u = t.weak.AddObject("u");
    ObjectId v = t.weak.AddObject("v");
    ASSERT_TRUE(t.weak.AddPotentialChild(u, t.a, v).ok());
    ASSERT_TRUE(t.weak.AddPotentialChild(v, t.a, u).ok());
    EXPECT_EQ(CheckWeakTree(t.weak).code(), StatusCode::kNotATree);
    ExpectTreeCheckMatchesGraph(t.weak, "detached cycle");
  }
  {
    // card.max == 0 removes x's only edge to z.
    TreeShape t;
    ASSERT_TRUE(t.weak.SetCard(t.x, t.b, IntInterval(0, 0)).ok());
    EXPECT_EQ(CheckWeakTree(t.weak).code(), StatusCode::kNotATree);
    ExpectTreeCheckMatchesGraph(t.weak, "card.max == 0");
  }
  {
    // ...and removing y's edge to z leaves a tree.
    TreeShape t;
    ASSERT_TRUE(t.weak.AddPotentialChild(t.y, t.b, t.z).ok());
    ASSERT_TRUE(t.weak.SetCard(t.y, t.b, IntInterval(0, 0)).ok());
    EXPECT_TRUE(CheckWeakTree(t.weak).ok());
    ExpectTreeCheckMatchesGraph(t.weak, "card.max == 0 on a second parent");
  }
  {
    // card.min > |lch| empties PC(r): r has no edges at all.
    TreeShape t;
    ASSERT_TRUE(t.weak.SetCard(t.r, t.a, IntInterval(3, 4)).ok());
    EXPECT_EQ(CheckWeakTree(t.weak).code(), StatusCode::kNotATree);
    ExpectTreeCheckMatchesGraph(t.weak, "card.min > |lch|");
  }
  {
    // An unsatisfiable family silences the object's other families too,
    // which here removes z's second parent.
    TreeShape t;
    ObjectId w = t.weak.AddObject("w");
    ASSERT_TRUE(t.weak.AddPotentialChild(t.y, t.a, w).ok());
    ASSERT_TRUE(t.weak.AddPotentialChild(t.y, t.b, t.z).ok());
    ASSERT_TRUE(t.weak.SetCard(t.y, t.a, IntInterval(2, 2)).ok());
    EXPECT_EQ(CheckWeakTree(t.weak).code(), StatusCode::kNotATree);
    ExpectTreeCheckMatchesGraph(t.weak, "card.min > |lch| on one family");
    ASSERT_TRUE(t.weak.AddPotentialChild(t.x, t.a, w).ok());
    EXPECT_TRUE(CheckWeakTree(t.weak).ok());
    ExpectTreeCheckMatchesGraph(t.weak, "card.min > |lch| drops a parent");
  }
  {
    // One child under two labels of one parent: G_W cannot be built.
    TreeShape t;
    ASSERT_TRUE(t.weak.AddPotentialChild(t.x, t.a, t.z).ok());
    EXPECT_EQ(CheckWeakTree(t.weak).code(), StatusCode::kFailedPrecondition);
    ExpectTreeCheckMatchesGraph(t.weak, "child under two labels");
  }
  {
    // A dictionary that no longer names every object.
    TreeShape t;
    Dictionary small;
    small.InternObject("r");
    small.InternLabel("a");
    t.weak.SetDictionary(small);
    EXPECT_EQ(CheckWeakTree(t.weak).code(), StatusCode::kNotFound);
    ExpectTreeCheckMatchesGraph(t.weak, "objects outside the dictionary");
  }
  {
    // A dictionary that names every object but not label b.
    TreeShape t;
    Dictionary small;
    for (const char* name : {"r", "x", "y", "z"}) small.InternObject(name);
    small.InternLabel("a");
    t.weak.SetDictionary(small);
    EXPECT_EQ(CheckWeakTree(t.weak).code(), StatusCode::kNotFound);
    ExpectTreeCheckMatchesGraph(t.weak, "labels outside the dictionary");
  }
}

TEST(WeakInstanceTest, WeakPathLayers) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  const WeakInstance& weak = inst.weak();
  const Dictionary& dict = weak.dict();
  PathExpression p;
  p.start = weak.root();
  p.labels = {*dict.FindLabel("book"), *dict.FindLabel("title")};
  auto layers = PrunedWeakPathLayers(weak, p);
  ASSERT_TRUE(layers.ok());
  // Only B1 and B3 can have titles.
  EXPECT_EQ((*layers)[1].size(), 2u);
  EXPECT_FALSE((*layers)[1].Contains(*dict.FindObject("B2")));
  EXPECT_EQ((*layers)[2].size(), 2u);
}

// ------------------------------------------------------- PotentialChildren

TEST(PotentialChildrenTest, PLRespectsCardinality) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  const WeakInstance& weak = inst.weak();
  const Dictionary& dict = weak.dict();
  ObjectId b1 = *dict.FindObject("B1");
  LabelId author = *dict.FindLabel("author");
  // card(B1, author) = [1,2], lch = {A1, A2}: PL = {{A1},{A2},{A1,A2}}
  auto pl = PotentialLabelChildSets(weak, b1, author);
  ASSERT_TRUE(pl.ok());
  EXPECT_EQ(pl->size(), 3u);
}

TEST(PotentialChildrenTest, PCIsCrossProductOfLabels) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  const WeakInstance& weak = inst.weak();
  const Dictionary& dict = weak.dict();
  ObjectId b1 = *dict.FindObject("B1");
  // authors: 3 choices x titles: {} or {T1} = 6 sets (Figure 2's PC(B1)).
  auto pc = PotentialChildSets(weak, b1);
  ASSERT_TRUE(pc.ok());
  EXPECT_EQ(pc->size(), 6u);
  for (const IdSet& c : *pc) {
    EXPECT_TRUE(IsPotentialChildSet(weak, b1, c));
  }
  auto count = CountPotentialChildSets(weak, b1);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 6u);
}

TEST(PotentialChildrenTest, RootPCMatchesFigure2) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  const WeakInstance& weak = inst.weak();
  ObjectId r = weak.root();
  // card(R, book) = [2,3] over 3 books: C(3,2)+C(3,3) = 4 sets.
  auto pc = PotentialChildSets(weak, r);
  ASSERT_TRUE(pc.ok());
  EXPECT_EQ(pc->size(), 4u);
}

TEST(PotentialChildrenTest, MembershipRejectsForeignAndOversized) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  const WeakInstance& weak = inst.weak();
  const Dictionary& dict = weak.dict();
  ObjectId r = weak.root();
  ObjectId b1 = *dict.FindObject("B1");
  ObjectId t1 = *dict.FindObject("T1");
  EXPECT_FALSE(IsPotentialChildSet(weak, r, IdSet{b1}));       // card.min=2
  EXPECT_FALSE(IsPotentialChildSet(weak, r, IdSet{b1, t1}));   // T1 foreign
  EXPECT_FALSE(IsPotentialChildSet(weak, b1, IdSet{t1}));      // 0 authors
}

TEST(PotentialChildrenTest, EmptyPLWhenMinExceedsLch) {
  WeakInstance weak;
  ObjectId r = weak.AddObject("r");
  ObjectId x = weak.AddObject("x");
  LabelId l = weak.dict().InternLabel("l");
  ASSERT_TRUE(weak.SetRoot(r).ok());
  ASSERT_TRUE(weak.AddPotentialChild(r, l, x).ok());
  ASSERT_TRUE(weak.SetCard(r, l, IntInterval(2, 3)).ok());
  auto pl = PotentialLabelChildSets(weak, r, l);
  ASSERT_TRUE(pl.ok());
  EXPECT_TRUE(pl->empty());
  auto pc = PotentialChildSets(weak, r);
  ASSERT_TRUE(pc.ok());
  EXPECT_TRUE(pc->empty());
}

TEST(PotentialChildrenTest, LeafHasSingletonEmptyPC) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  auto pc = PotentialChildSets(inst.weak(),
                               *inst.dict().FindObject("T1"));
  ASSERT_TRUE(pc.ok());
  ASSERT_EQ(pc->size(), 1u);
  EXPECT_TRUE((*pc)[0].empty());
}

// --------------------------------------------------------------- Instance

TEST(ProbabilisticInstanceTest, CopyIsCopyOnWriteOverLocalInterpretation) {
  ProbabilisticInstance a = MakeBibliographicInstance();
  ProbabilisticInstance b = a;
  ObjectId r = a.weak().root();
  // The copy aliases every OPF/VPF (cheap snapshot for MVCC publishing)…
  EXPECT_EQ(a.GetOpf(r), b.GetOpf(r));
  EXPECT_EQ(a.TotalOpfEntries(), b.TotalOpfEntries());
  // …but replacing a function on the copy never reaches back into the
  // original: SetOpf swaps the shared pointer, it does not mutate the
  // shared immutable object.
  const Opf* original_root_opf = a.GetOpf(r);
  auto replacement = std::make_unique<ExplicitOpf>(
      dynamic_cast<const ExplicitOpf&>(*b.GetOpf(r)));
  ASSERT_TRUE(b.SetOpf(r, std::move(replacement)).ok());
  EXPECT_EQ(a.GetOpf(r), original_root_opf);
  EXPECT_NE(a.GetOpf(r), b.GetOpf(r));
  EXPECT_EQ(a.GetOpf(r)->NumEntries(), b.GetOpf(r)->NumEntries());
}

TEST(ProbabilisticInstanceTest, TotalOpfEntriesCounts) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  // 4 + 6 + 3 + 1 + 2 + 2 + 1 = 19 rows across the seven OPFs.
  EXPECT_EQ(inst.TotalOpfEntries(), 19u);
}

TEST(ProbabilisticInstanceTest, SetOpfRejectsUnknownObject) {
  ProbabilisticInstance inst;
  EXPECT_FALSE(inst.SetOpf(3, std::make_unique<ExplicitOpf>()).ok());
}

// ------------------------------------------------------------- Validation

TEST(ValidationTest, Figure2InstanceIsValid) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  EXPECT_TRUE(ValidateProbabilisticInstance(inst).ok());
  EXPECT_TRUE(ValidateWeakInstance(inst.weak()).ok());
}

TEST(ValidationTest, FullyTypedInstanceIsValid) {
  EXPECT_TRUE(ValidateProbabilisticInstance(
                  testing::MakeFullyTypedBibliographicInstance())
                  .ok());
}

TEST(ValidationTest, DetectsOpfMassOffByOne) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  auto opf = std::make_unique<ExplicitOpf>();
  ObjectId b3 = *inst.dict().FindObject("B3");
  ObjectId a3 = *inst.dict().FindObject("A3");
  ObjectId t2 = *inst.dict().FindObject("T2");
  opf->Set(IdSet{a3, t2}, 0.9);  // should be 1.0
  ASSERT_TRUE(inst.SetOpf(b3, std::move(opf)).ok());
  EXPECT_FALSE(ValidateProbabilisticInstance(inst).ok());
}

TEST(ValidationTest, DetectsSupportOutsidePC) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  ObjectId b3 = *inst.dict().FindObject("B3");
  ObjectId a3 = *inst.dict().FindObject("A3");
  auto opf = std::make_unique<ExplicitOpf>();
  // Missing the mandatory title child (card [1,1]).
  opf->Set(IdSet{a3}, 1.0);
  ASSERT_TRUE(inst.SetOpf(b3, std::move(opf)).ok());
  Status s = ValidateProbabilisticInstance(inst);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(ValidationTest, DetectsMissingOpf) {
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.weak();
  ObjectId r = weak.AddObject("r");
  ObjectId x = weak.AddObject("x");
  LabelId l = weak.dict().InternLabel("l");
  ASSERT_TRUE(weak.SetRoot(r).ok());
  ASSERT_TRUE(weak.AddPotentialChild(r, l, x).ok());
  EXPECT_FALSE(ValidateProbabilisticInstance(inst).ok());
  ValidationOptions lax;
  lax.require_complete_interpretation = false;
  EXPECT_TRUE(ValidateProbabilisticInstance(inst, lax).ok());
}

TEST(ValidationTest, DetectsOverlappingLchFamilies) {
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.weak();
  ObjectId r = weak.AddObject("r");
  ObjectId x = weak.AddObject("x");
  LabelId a = weak.dict().InternLabel("a");
  LabelId b = weak.dict().InternLabel("b");
  ASSERT_TRUE(weak.SetRoot(r).ok());
  ASSERT_TRUE(weak.AddPotentialChild(r, a, x).ok());
  ASSERT_TRUE(weak.AddPotentialChild(r, b, x).ok());
  EXPECT_FALSE(ValidateWeakInstance(weak).ok());
}

TEST(ValidationTest, DetectsUnsatisfiableCard) {
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.weak();
  ObjectId r = weak.AddObject("r");
  ObjectId x = weak.AddObject("x");
  LabelId l = weak.dict().InternLabel("l");
  ASSERT_TRUE(weak.SetRoot(r).ok());
  ASSERT_TRUE(weak.AddPotentialChild(r, l, x).ok());
  ASSERT_TRUE(weak.SetCard(r, l, IntInterval(5, 9)).ok());
  EXPECT_FALSE(ValidateWeakInstance(weak).ok());
}

TEST(ValidationTest, DetectsCycle) {
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.weak();
  ObjectId a = weak.AddObject("a");
  ObjectId b = weak.AddObject("b");
  LabelId l = weak.dict().InternLabel("l");
  ASSERT_TRUE(weak.SetRoot(a).ok());
  ASSERT_TRUE(weak.AddPotentialChild(a, l, b).ok());
  ASSERT_TRUE(weak.AddPotentialChild(b, l, a).ok());
  EXPECT_FALSE(ValidateWeakInstance(weak).ok());
}


// ------------------------------------------------- change-version stamps

/// The stamps NoteLocalChange has always produced: a stack walk from o
/// over every potential parent, guarded by the new version.
void ReferenceStamp(const WeakInstance& weak, ObjectId o, std::uint64_t version,
                    std::vector<std::uint64_t>* stamps) {
  std::vector<ObjectId> stack{o};
  while (!stack.empty()) {
    const ObjectId x = stack.back();
    stack.pop_back();
    if ((*stamps)[x] == version) continue;
    (*stamps)[x] = version;
    for (ObjectId p : weak.PotentialParents(x)) stack.push_back(p);
  }
}

/// Parses `source`'s serialization, copies the parsed structure into a
/// fresh instance, and replays the parsed OPFs and VPFs onto it in a
/// shuffled order, checking version() and every SubtreeChangeVersion
/// against the reference walk after each call. Counts the objects with
/// more than one potential parent into `*shared`.
void ExpectStampsMatchReference(const ProbabilisticInstance& source,
                                std::uint64_t seed, std::size_t* shared) {
  auto parsed = ParsePxml(SerializePxml(source));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ProbabilisticInstance replay;
  replay.weak() = parsed->weak();
  const WeakInstance& weak = std::as_const(replay).weak();
  const std::size_t n = weak.dict().num_objects();
  std::vector<std::uint64_t> expected(n);
  for (ObjectId o = 0; o < n; ++o) {
    expected[o] = replay.SubtreeChangeVersion(o);
    if (weak.PotentialParents(o).size() > 1) ++*shared;
  }
  std::vector<ObjectId> order(n);
  for (ObjectId o = 0; o < n; ++o) order[o] = o;
  Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  std::uint64_t version = replay.version();
  std::size_t calls = 0;
  for (ObjectId o : order) {
    for (int kind = 0; kind < 2; ++kind) {
      if (kind == 0) {
        const Opf* opf = parsed->GetOpf(o);
        if (opf == nullptr) continue;
        ASSERT_TRUE(replay.SetOpf(o, opf->Clone()).ok());
      } else {
        const Vpf* vpf = parsed->GetVpf(o);
        if (vpf == nullptr) continue;
        ASSERT_TRUE(replay.SetVpf(o, *vpf).ok());
      }
      ++calls;
      ReferenceStamp(weak, o, ++version, &expected);
      ASSERT_EQ(replay.version(), version);
      for (ObjectId x = 0; x < n; ++x) {
        ASSERT_EQ(replay.SubtreeChangeVersion(x), expected[x])
            << "object " << weak.dict().ObjectName(x) << " after setting "
            << weak.dict().ObjectName(o);
      }
    }
  }
  EXPECT_GT(calls, 0u);
}

TEST(ChangeVersionTest, TreeWalkStampsMatchTheReference) {
  std::size_t shared = 0;
  ExpectStampsMatchReference(testing::MakeTreeBibliographicInstance(), 1,
                             &shared);
  GeneratorConfig config;
  config.depth = 4;
  config.branching = 3;
  config.with_leaf_values = true;
  auto tree = GenerateBalancedTree(config);
  ASSERT_TRUE(tree.ok()) << tree.status();
  ExpectStampsMatchReference(*tree, 2, &shared);
  EXPECT_EQ(shared, 0u);
}

TEST(ChangeVersionTest, DagStampsMatchTheReference) {
  // The Figure 2 instance: B1 and B2 share author A1.
  std::size_t shared = 0;
  ExpectStampsMatchReference(MakeBibliographicInstance(), 3, &shared);
  EXPECT_GT(shared, 0u);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    DagConfig config;
    config.num_objects = 14;
    config.edge_density = 0.45;
    config.with_leaf_values = true;
    config.seed = seed;
    auto dag = GenerateRandomDag(config);
    ASSERT_TRUE(dag.ok()) << dag.status();
    ExpectStampsMatchReference(*dag, 100 + seed, &shared);
  }
}

}  // namespace
}  // namespace pxml
