#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "graph/algorithms.h"
#include "graph/instance.h"
#include "graph/path.h"
#include "graph/symbols.h"

namespace pxml {
namespace {

SemistructuredInstance MakeFigure1() {
  // The deterministic bibliographic instance of the paper's Figure 1.
  SemistructuredInstance s;
  Dictionary& dict = s.dict();
  ObjectId r = s.AddObject("R");
  ObjectId b1 = s.AddObject("B1");
  ObjectId b2 = s.AddObject("B2");
  ObjectId b3 = s.AddObject("B3");
  ObjectId t1 = s.AddObject("T1");
  ObjectId t2 = s.AddObject("T2");
  ObjectId a1 = s.AddObject("A1");
  ObjectId a2 = s.AddObject("A2");
  ObjectId a3 = s.AddObject("A3");
  ObjectId i1 = s.AddObject("I1");
  ObjectId i2 = s.AddObject("I2");
  EXPECT_TRUE(s.SetRoot(r).ok());
  LabelId book = dict.InternLabel("book");
  LabelId title = dict.InternLabel("title");
  LabelId author = dict.InternLabel("author");
  LabelId institution = dict.InternLabel("institution");
  EXPECT_TRUE(s.AddEdge(r, book, b1).ok());
  EXPECT_TRUE(s.AddEdge(r, book, b2).ok());
  EXPECT_TRUE(s.AddEdge(r, book, b3).ok());
  EXPECT_TRUE(s.AddEdge(b1, title, t1).ok());
  EXPECT_TRUE(s.AddEdge(b1, author, a1).ok());
  EXPECT_TRUE(s.AddEdge(b2, author, a1).ok());
  EXPECT_TRUE(s.AddEdge(b2, author, a2).ok());
  EXPECT_TRUE(s.AddEdge(b3, title, t2).ok());
  EXPECT_TRUE(s.AddEdge(b3, author, a3).ok());
  EXPECT_TRUE(s.AddEdge(a1, institution, i1).ok());
  EXPECT_TRUE(s.AddEdge(a2, institution, i1).ok());
  EXPECT_TRUE(s.AddEdge(a3, institution, i2).ok());
  return s;
}

// ------------------------------------------------------------- Dictionary

TEST(DictionaryTest, InterningIsIdempotent) {
  Dictionary d;
  ObjectId a = d.InternObject("A");
  EXPECT_EQ(d.InternObject("A"), a);
  EXPECT_EQ(d.ObjectName(a), "A");
  EXPECT_EQ(d.FindObject("A"), a);
  EXPECT_FALSE(d.FindObject("B").has_value());
}

TEST(DictionaryTest, TypesCarryDomains) {
  Dictionary d;
  auto t = d.DefineType("bit", {Value("0"), Value("1")});
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(d.DomainContains(*t, Value("0")));
  EXPECT_FALSE(d.DomainContains(*t, Value("2")));
  EXPECT_EQ(d.TypeDomain(*t).size(), 2u);
}

TEST(DictionaryTest, RejectsEmptyOrDuplicateDomains) {
  Dictionary d;
  EXPECT_FALSE(d.DefineType("empty", {}).ok());
  EXPECT_FALSE(d.DefineType("dup", {Value("x"), Value("x")}).ok());
}

// Copies share one symbol store until one of them adds a new name.

Dictionary MakeSharedDictionary() {
  Dictionary d;
  d.InternObject("R");
  d.InternObject("A");
  d.InternLabel("book");
  EXPECT_TRUE(d.DefineType("bit", {Value("0"), Value("1")}).ok());
  return d;
}

void ExpectOriginalContents(const Dictionary& d) {
  EXPECT_EQ(d.num_objects(), 2u);
  EXPECT_EQ(d.num_labels(), 1u);
  EXPECT_EQ(d.num_types(), 1u);
  EXPECT_EQ(d.FindObject("R"), 0u);
  EXPECT_EQ(d.FindObject("A"), 1u);
  EXPECT_EQ(d.FindLabel("book"), 0u);
  EXPECT_EQ(d.FindType("bit"), 0u);
  EXPECT_FALSE(d.FindObject("B").has_value());
  EXPECT_FALSE(d.FindLabel("author").has_value());
  EXPECT_FALSE(d.FindType("word").has_value());
  EXPECT_EQ(d.ObjectName(1), "A");
  EXPECT_EQ(d.LabelName(0), "book");
  EXPECT_EQ(d.TypeName(0), "bit");
  EXPECT_EQ(d.TypeDomain(0).size(), 2u);
  EXPECT_TRUE(d.DomainContains(0, Value("1")));
}

TEST(DictionaryTest, NewNamesOnACopyLeaveTheOriginalUnchanged) {
  const Dictionary original = MakeSharedDictionary();
  Dictionary copy = original;
  EXPECT_EQ(copy.InternObject("B"), 2u);
  EXPECT_EQ(copy.InternLabel("author"), 1u);
  ASSERT_TRUE(copy.DefineType("word", {Value("x")}).ok());
  ExpectOriginalContents(original);
  EXPECT_EQ(copy.num_objects(), 3u);
  EXPECT_EQ(copy.FindObject("B"), 2u);
  EXPECT_EQ(copy.FindLabel("author"), 1u);
  EXPECT_EQ(copy.FindType("word"), 1u);
  EXPECT_EQ(copy.ObjectName(1), "A");
}

TEST(DictionaryTest, NewNamesOnTheOriginalLeaveACopyUnchanged) {
  Dictionary original = MakeSharedDictionary();
  const Dictionary copy = original;
  original.InternObject("B");
  original.InternLabel("author");
  ASSERT_TRUE(original.DefineType("word", {Value("x")}).ok());
  ExpectOriginalContents(copy);
  EXPECT_EQ(original.num_objects(), 3u);
  EXPECT_EQ(original.num_types(), 2u);
}

TEST(DictionaryTest, RedefiningATypeOnACopyLeavesTheOriginalDomain) {
  const Dictionary original = MakeSharedDictionary();
  Dictionary copy = original;
  auto t = copy.DefineType("bit", {Value("0"), Value("1"), Value("2")});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 0u);
  EXPECT_EQ(copy.TypeDomain(0).size(), 3u);
  ExpectOriginalContents(original);
}

TEST(DictionaryTest, ReinterningOnASharedCopyReturnsTheSameIds) {
  const Dictionary original = MakeSharedDictionary();
  Dictionary copy = original;
  EXPECT_EQ(copy.InternObject("A"), 1u);
  EXPECT_EQ(copy.InternLabel("book"), 0u);
  auto t = copy.DefineType("bit", {Value("0"), Value("1")});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 0u);
  // Still one store: the names are the very same strings.
  EXPECT_EQ(&copy.ObjectName(1), &original.ObjectName(1));
  EXPECT_EQ(&copy.TypeDomain(0), &original.TypeDomain(0));
  ExpectOriginalContents(copy);
}

TEST(DictionaryTest, SelfAssignmentAndMoveKeepTheContents) {
  Dictionary d = MakeSharedDictionary();
  const Dictionary& alias = d;
  d = alias;
  ExpectOriginalContents(d);
  Dictionary moved = std::move(d);
  ExpectOriginalContents(moved);
  Dictionary assigned;
  assigned = std::move(moved);
  ExpectOriginalContents(assigned);
  Dictionary& self = assigned;
  assigned = std::move(self);
  ExpectOriginalContents(assigned);
  // A moved-from dictionary is empty and usable.
  EXPECT_EQ(d.num_objects(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(d.InternObject("Z"), 0u);
}

TEST(DictionaryTest, ConcurrentCopiesAndReadsBesideAnInterningCopy) {
  const Dictionary shared = MakeSharedDictionary();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&shared] {
      for (int i = 0; i < 2000; ++i) {
        Dictionary copy = shared;
        if (copy.FindObject("A") != 1u || copy.ObjectName(0) != "R" ||
            copy.num_objects() != 2u || copy.InternLabel("book") != 0u) {
          ADD_FAILURE() << "shared dictionary changed under a reader";
          return;
        }
      }
    });
  }
  threads.emplace_back([&shared] {
    for (int i = 0; i < 200; ++i) {
      Dictionary copy = shared;
      for (int k = 0; k < 5; ++k) {
        copy.InternObject("new" + std::to_string(k));
      }
      if (copy.num_objects() != 7u) {
        ADD_FAILURE() << "interning copy has " << copy.num_objects();
        return;
      }
    }
  });
  for (std::thread& t : threads) t.join();
  ExpectOriginalContents(shared);
}

// --------------------------------------------------------------- Instance

TEST(InstanceTest, BuildsFigure1) {
  SemistructuredInstance s = MakeFigure1();
  EXPECT_EQ(s.num_objects(), 11u);
  EXPECT_EQ(s.num_edges(), 12u);
  ObjectId b2 = *s.dict().FindObject("B2");
  LabelId author = *s.dict().FindLabel("author");
  EXPECT_EQ(s.LabeledChildren(b2, author).size(), 2u);
  ObjectId i1 = *s.dict().FindObject("I1");
  EXPECT_EQ(s.Parents(i1).size(), 2u);  // a DAG: A1 and A2 share I1
  EXPECT_TRUE(s.IsLeaf(i1));
  EXPECT_FALSE(s.IsLeaf(b2));
}

TEST(InstanceTest, RejectsDuplicateEdge) {
  SemistructuredInstance s;
  ObjectId a = s.AddObject("a");
  ObjectId b = s.AddObject("b");
  LabelId l = s.dict().InternLabel("l");
  EXPECT_TRUE(s.AddEdge(a, l, b).ok());
  Status dup = s.AddEdge(a, l, b);
  EXPECT_EQ(dup.code(), StatusCode::kFailedPrecondition);
}

TEST(InstanceTest, RemoveObjectDetachesEdges) {
  SemistructuredInstance s = MakeFigure1();
  ObjectId a1 = *s.dict().FindObject("A1");
  ObjectId i1 = *s.dict().FindObject("I1");
  std::size_t edges = s.num_edges();
  EXPECT_TRUE(s.RemoveObject(a1).ok());
  EXPECT_FALSE(s.Present(a1));
  EXPECT_EQ(s.Parents(i1).size(), 1u);
  EXPECT_EQ(s.num_edges(), edges - 3);  // B1->A1, B2->A1, A1->I1
}

TEST(InstanceTest, LeafValuesValidateAgainstDomain) {
  SemistructuredInstance s;
  ObjectId t = s.AddObject("T1");
  auto type = s.dict().DefineType("title", {Value("VQDB"), Value("Lore")});
  ASSERT_TRUE(type.ok());
  EXPECT_TRUE(s.SetLeafValue(t, *type, Value("VQDB")).ok());
  EXPECT_EQ(*s.ValueOf(t), Value("VQDB"));
  EXPECT_FALSE(s.SetLeafValue(t, *type, Value("XML")).ok());
}

TEST(InstanceTest, FingerprintDetectsDifferences) {
  SemistructuredInstance a = MakeFigure1();
  SemistructuredInstance b = MakeFigure1();
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_TRUE(
      b.RemoveEdge(*b.dict().FindObject("A2"), *b.dict().FindObject("I1"))
          .ok());
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

// ------------------------------------------------------------------- Path

TEST(PathTest, EvaluatesFigure1Example) {
  SemistructuredInstance s = MakeFigure1();
  PathExpression p;
  p.start = s.root();
  p.labels = {*s.dict().FindLabel("book"), *s.dict().FindLabel("author")};
  auto result = EvaluatePath(s, p);
  ASSERT_TRUE(result.ok());
  // R.book.author = {A1, A2, A3} (the paper's Section 5 example).
  EXPECT_EQ(result->size(), 3u);
  EXPECT_TRUE(result->Contains(*s.dict().FindObject("A1")));
  EXPECT_TRUE(result->Contains(*s.dict().FindObject("A2")));
  EXPECT_TRUE(result->Contains(*s.dict().FindObject("A3")));
}

TEST(PathTest, EmptyPathDenotesStart) {
  SemistructuredInstance s = MakeFigure1();
  PathExpression p;
  p.start = s.root();
  auto result = EvaluatePath(s, p);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, IdSet{s.root()});
}

TEST(PathTest, PrunedLayersDropDeadBranches) {
  SemistructuredInstance s = MakeFigure1();
  // R.book.title matches only via B1 and B3; B2 has no title edge.
  PathExpression p;
  p.start = s.root();
  p.labels = {*s.dict().FindLabel("book"), *s.dict().FindLabel("title")};
  auto layers = PrunedPathLayers(s, p);
  ASSERT_TRUE(layers.ok());
  EXPECT_EQ((*layers)[1].size(), 2u);
  EXPECT_FALSE((*layers)[1].Contains(*s.dict().FindObject("B2")));
  EXPECT_EQ((*layers)[2].size(), 2u);
}

TEST(PathTest, UnmatchedPathYieldsEmptyFinalLayer) {
  SemistructuredInstance s = MakeFigure1();
  PathExpression p;
  p.start = s.root();
  p.labels = {*s.dict().FindLabel("title")};
  auto result = EvaluatePath(s, p);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(PathTest, MissingStartFails) {
  SemistructuredInstance s = MakeFigure1();
  PathExpression p;
  p.start = 999;
  EXPECT_FALSE(EvaluatePath(s, p).ok());
}

// ------------------------------------------------------------- Algorithms

TEST(AlgorithmsTest, TopologicalOrderRespectsEdges) {
  SemistructuredInstance s = MakeFigure1();
  auto order = TopologicalOrder(s);
  ASSERT_TRUE(order.ok());
  ASSERT_EQ(order->size(), 11u);
  std::vector<std::size_t> position(s.dict().num_objects());
  for (std::size_t i = 0; i < order->size(); ++i) position[(*order)[i]] = i;
  for (ObjectId o : s.Objects()) {
    for (const Edge& e : s.Children(o)) {
      EXPECT_LT(position[o], position[e.child]);
    }
  }
}

TEST(AlgorithmsTest, CycleDetected) {
  SemistructuredInstance s;
  ObjectId a = s.AddObject("a");
  ObjectId b = s.AddObject("b");
  LabelId l = s.dict().InternLabel("l");
  EXPECT_TRUE(s.AddEdge(a, l, b).ok());
  EXPECT_TRUE(s.AddEdge(b, l, a).ok());
  EXPECT_FALSE(IsAcyclic(s));
  EXPECT_FALSE(TopologicalOrder(s).ok());
}

TEST(AlgorithmsTest, DescendantsAndNonDescendants) {
  SemistructuredInstance s = MakeFigure1();
  ObjectId b1 = *s.dict().FindObject("B1");
  IdSet des = DescendantsOf(s, b1);
  EXPECT_EQ(des.size(), 3u);  // T1, A1, I1
  IdSet nondes = NonDescendantsOf(s, b1);
  EXPECT_EQ(nondes.size(), 11u - 3u - 1u);
  EXPECT_FALSE(nondes.Contains(b1));
}

TEST(AlgorithmsTest, Figure1IsNotATree) {
  SemistructuredInstance s = MakeFigure1();
  EXPECT_FALSE(CheckTree(s).ok());  // I1 has two parents
}

TEST(AlgorithmsTest, TreeDepths) {
  SemistructuredInstance s;
  ObjectId r = s.AddObject("r");
  ObjectId x = s.AddObject("x");
  ObjectId y = s.AddObject("y");
  LabelId l = s.dict().InternLabel("l");
  EXPECT_TRUE(s.SetRoot(r).ok());
  EXPECT_TRUE(s.AddEdge(r, l, x).ok());
  EXPECT_TRUE(s.AddEdge(x, l, y).ok());
  EXPECT_TRUE(CheckTree(s).ok());
  auto depths = TreeDepths(s);
  ASSERT_TRUE(depths.ok());
  EXPECT_EQ((*depths)[r], 0u);
  EXPECT_EQ((*depths)[x], 1u);
  EXPECT_EQ((*depths)[y], 2u);
}

}  // namespace
}  // namespace pxml
