#include <gtest/gtest.h>

#include <cmath>

#include "algebra/projection.h"
#include "algebra/projection_global.h"
#include "core/semantics.h"
#include "query/point_queries.h"
#include "core/validation.h"
#include "fixtures.h"
#include "obs/metrics.h"
#include "world_testing.h"

namespace pxml {
namespace {

using testing::ExpectInstanceMatchesWorlds;
using testing::MakeBibliographicInstance;
using testing::MakeChainInstance;
using testing::MakeSmallTreeInstance;
using testing::MakeTreeBibliographicInstance;

PathExpression MakePath(const Dictionary& dict, ObjectId start,
                        std::initializer_list<const char*> labels) {
  PathExpression p;
  p.start = start;
  for (const char* l : labels) p.labels.push_back(*dict.FindLabel(l));
  return p;
}

// ------------------------------------------ instance-level (Def 5.2, Fig 4)

TEST(AncestorProjectInstanceTest, ReproducesFigure4) {
  // Figure 1's deterministic instance, projected on R.book.author, keeps
  // R, B1..B3 and A1..A3 with only book/author edges (Figure 4).
  SemistructuredInstance s;
  Dictionary& dict = s.dict();
  ObjectId r = s.AddObject("R");
  ObjectId b1 = s.AddObject("B1");
  ObjectId b2 = s.AddObject("B2");
  ObjectId b3 = s.AddObject("B3");
  ObjectId t1 = s.AddObject("T1");
  ObjectId a1 = s.AddObject("A1");
  ObjectId a2 = s.AddObject("A2");
  ObjectId a3 = s.AddObject("A3");
  ObjectId i1 = s.AddObject("I1");
  ASSERT_TRUE(s.SetRoot(r).ok());
  LabelId book = dict.InternLabel("book");
  LabelId title = dict.InternLabel("title");
  LabelId author = dict.InternLabel("author");
  LabelId institution = dict.InternLabel("institution");
  ASSERT_TRUE(s.AddEdge(r, book, b1).ok());
  ASSERT_TRUE(s.AddEdge(r, book, b2).ok());
  ASSERT_TRUE(s.AddEdge(r, book, b3).ok());
  ASSERT_TRUE(s.AddEdge(b1, title, t1).ok());
  ASSERT_TRUE(s.AddEdge(b1, author, a1).ok());
  ASSERT_TRUE(s.AddEdge(b2, author, a1).ok());
  ASSERT_TRUE(s.AddEdge(b2, author, a2).ok());
  ASSERT_TRUE(s.AddEdge(b3, author, a3).ok());
  ASSERT_TRUE(s.AddEdge(a1, institution, i1).ok());

  auto result = AncestorProjectInstance(s, MakePath(dict, r, {"book",
                                                              "author"}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_objects(), 7u);  // R, B1..B3, A1..A3
  EXPECT_FALSE(result->Present(t1));
  EXPECT_FALSE(result->Present(i1));
  EXPECT_EQ(result->num_edges(), 7u);  // 3 book + 4 author edges
  EXPECT_TRUE(result->IsLeaf(a1));
  EXPECT_EQ(result->root(), r);
}

TEST(AncestorProjectInstanceTest, DeadBranchesPruned) {
  // B2 has no title; projecting on R.book.title must drop B2 entirely.
  SemistructuredInstance s;
  Dictionary& dict = s.dict();
  ObjectId r = s.AddObject("R");
  ObjectId b1 = s.AddObject("B1");
  ObjectId b2 = s.AddObject("B2");
  ObjectId t1 = s.AddObject("T1");
  ASSERT_TRUE(s.SetRoot(r).ok());
  LabelId book = dict.InternLabel("book");
  LabelId title = dict.InternLabel("title");
  ASSERT_TRUE(s.AddEdge(r, book, b1).ok());
  ASSERT_TRUE(s.AddEdge(r, book, b2).ok());
  ASSERT_TRUE(s.AddEdge(b1, title, t1).ok());
  auto result =
      AncestorProjectInstance(s, MakePath(dict, r, {"book", "title"}));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->Present(b1));
  EXPECT_FALSE(result->Present(b2));
  EXPECT_EQ(result->num_objects(), 3u);
}

TEST(AncestorProjectInstanceTest, NoMatchKeepsOnlyRoot) {
  SemistructuredInstance s;
  ObjectId r = s.AddObject("R");
  ObjectId b = s.AddObject("B");
  LabelId book = s.dict().InternLabel("book");
  s.dict().InternLabel("title");
  ASSERT_TRUE(s.SetRoot(r).ok());
  ASSERT_TRUE(s.AddEdge(r, book, b).ok());
  auto result = AncestorProjectInstance(s, MakePath(s.dict(), r, {"title"}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_objects(), 1u);
  EXPECT_EQ(result->num_edges(), 0u);
}

TEST(AncestorProjectInstanceTest, TargetLeavesKeepValues) {
  ProbabilisticInstance chain = MakeChainInstance();
  auto worlds = EnumerateWorlds(chain);
  ASSERT_TRUE(worlds.ok());
  const Dictionary& dict = chain.dict();
  PathExpression p = MakePath(dict, chain.weak().root(), {"a", "b"});
  for (const World& w : *worlds) {
    if (!w.instance.Present(*dict.FindObject("y"))) continue;
    auto projected = AncestorProjectInstance(w.instance, p);
    ASSERT_TRUE(projected.ok());
    EXPECT_TRUE(projected->ValueOf(*dict.FindObject("y")).has_value());
  }
}

// -------------------------------------------- probabilistic: oracle parity

TEST(AncestorProjectTest, MatchesOracleOnSmallTree) {
  ProbabilisticInstance inst = MakeSmallTreeInstance();
  PathExpression p = MakePath(inst.dict(), inst.weak().root(), {"a", "b"});
  auto worlds = EnumerateWorlds(inst);
  ASSERT_TRUE(worlds.ok());
  auto oracle = ProjectWorlds(*worlds, p);
  ASSERT_TRUE(oracle.ok());

  ProjectionStats stats;
  auto efficient = AncestorProject(inst, p, &stats);
  ASSERT_TRUE(efficient.ok()) << efficient.status();
  ExpectInstanceMatchesWorlds(*efficient, *oracle);
  EXPECT_GT(stats.processed_entries, 0u);
  EXPECT_EQ(stats.kept_objects, efficient->weak().num_objects());
}

TEST(AncestorProjectTest, FillsEveryPhaseTimeAndHistogram) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  PathExpression p =
      MakePath(inst.dict(), inst.weak().root(), {"book", "author"});
  auto& registry = obs::Registry::Global();
  std::uint64_t checks0 =
      registry.GetHistogram("pxml.projection.check_ns").count();
  std::uint64_t locates0 =
      registry.GetHistogram("pxml.projection.locate_ns").count();
  ProjectionStats stats;
  stats.check_seconds = stats.locate_seconds = stats.update_seconds =
      stats.structure_seconds = -1.0;
  ASSERT_TRUE(AncestorProject(inst, p, &stats).ok());
  EXPECT_GE(stats.check_seconds, 0.0);
  EXPECT_GE(stats.locate_seconds, 0.0);
  EXPECT_GE(stats.update_seconds, 0.0);
  EXPECT_GE(stats.structure_seconds, 0.0);
  EXPECT_EQ(registry.GetHistogram("pxml.projection.check_ns").count(),
            checks0 + 1);
  EXPECT_EQ(registry.GetHistogram("pxml.projection.locate_ns").count(),
            locates0 + 1);

  ProjectionStats single;
  single.check_seconds = single.locate_seconds = -1.0;
  ASSERT_TRUE(SingleProject(inst, p, &single).ok());
  EXPECT_GE(single.check_seconds, 0.0);
  EXPECT_GE(single.locate_seconds, 0.0);
}

TEST(AncestorProjectTest, MatchesOracleOnTreeBibliography) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  for (auto labels : std::vector<std::vector<const char*>>{
           {"book"},
           {"book", "author"},
           {"book", "title"},
           {"book", "author", "institution"}}) {
    PathExpression p;
    p.start = inst.weak().root();
    for (const char* l : labels) {
      p.labels.push_back(*inst.dict().FindLabel(l));
    }
    auto worlds = EnumerateWorlds(inst);
    ASSERT_TRUE(worlds.ok());
    auto oracle = ProjectWorlds(*worlds, p);
    ASSERT_TRUE(oracle.ok());
    auto efficient = AncestorProject(inst, p);
    ASSERT_TRUE(efficient.ok())
        << efficient.status() << " path length " << labels.size();
    ExpectInstanceMatchesWorlds(*efficient, *oracle);
  }
}

TEST(AncestorProjectTest, RootOpfKeepsNoMatchMass) {
  // On the chain, projecting r.a.b leaves ℘'(r)({}) = P(no y in the
  // world) = 1 - 0.6*0.5 = 0.7.
  ProbabilisticInstance inst = MakeChainInstance();
  PathExpression p = MakePath(inst.dict(), inst.weak().root(), {"a", "b"});
  auto result = AncestorProject(inst, p);
  ASSERT_TRUE(result.ok());
  const Opf* root_opf = result->GetOpf(result->weak().root());
  ASSERT_NE(root_opf, nullptr);
  EXPECT_NEAR(root_opf->Prob(IdSet()), 0.7, 1e-12);
  // And the x-OPF is conditioned on y surviving: ℘'(x)({y}) = 1.
  const Opf* x_opf = result->GetOpf(*result->dict().FindObject("x"));
  ASSERT_NE(x_opf, nullptr);
  EXPECT_NEAR(x_opf->Prob(IdSet{*result->dict().FindObject("y")}), 1.0,
              1e-12);
}

TEST(AncestorProjectTest, ResultIsValidInstance) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  PathExpression p =
      MakePath(inst.dict(), inst.weak().root(), {"book", "author"});
  auto result = AncestorProject(inst, p);
  ASSERT_TRUE(result.ok());
  ValidationOptions options;
  options.require_complete_interpretation = false;  // root OPF may hold {}
  EXPECT_TRUE(ValidateProbabilisticInstance(*result, options).ok());
}

TEST(AncestorProjectTest, CardTightenedToSupport) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  PathExpression p = MakePath(inst.dict(), inst.weak().root(), {"book"});
  auto result = AncestorProject(inst, p);
  ASSERT_TRUE(result.ok());
  IntInterval card = result->weak().Card(result->weak().root(),
                                         *result->dict().FindLabel("book"));
  EXPECT_EQ(card.min(), 1u);
  EXPECT_EQ(card.max(), 2u);
}

TEST(AncestorProjectTest, EmptyPathProjectsToRoot) {
  ProbabilisticInstance inst = MakeSmallTreeInstance();
  PathExpression p;
  p.start = inst.weak().root();
  auto result = AncestorProject(inst, p);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->weak().num_objects(), 1u);
}

TEST(AncestorProjectTest, UnmatchedPathProjectsToRoot) {
  ProbabilisticInstance inst = MakeSmallTreeInstance();
  PathExpression p = MakePath(inst.dict(), inst.weak().root(), {"b"});
  auto result = AncestorProject(inst, p);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->weak().num_objects(), 1u);
  // Globally: every world maps to the bare root with probability 1.
  auto worlds = EnumerateWorlds(*result);
  ASSERT_TRUE(worlds.ok());
  ASSERT_EQ(worlds->size(), 1u);
  EXPECT_NEAR((*worlds)[0].prob, 1.0, 1e-12);
}

TEST(AncestorProjectTest, RejectsDagInstances) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  PathExpression p =
      MakePath(inst.dict(), inst.weak().root(), {"book", "author"});
  Status s = AncestorProject(inst, p).status();
  EXPECT_EQ(s.code(), StatusCode::kNotATree);
}

TEST(AncestorProjectTest, OracleStillWorksOnDags) {
  // The global (worlds) route covers the DAG case the efficient
  // algorithm rejects.
  ProbabilisticInstance inst = MakeBibliographicInstance();
  PathExpression p =
      MakePath(inst.dict(), inst.weak().root(), {"book", "author"});
  auto worlds = EnumerateWorlds(inst);
  ASSERT_TRUE(worlds.ok());
  auto projected = ProjectWorlds(*worlds, p);
  ASSERT_TRUE(projected.ok());
  double sum = 0;
  for (const World& w : *projected) sum += w.prob;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_LT(projected->size(), worlds->size());
}

// ---------------------------------------------------- descendant and single

TEST(DescendantProjectTest, MatchesOracleOnTreeBibliography) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  PathExpression p = MakePath(inst.dict(), inst.weak().root(), {"book"});
  auto worlds = EnumerateWorlds(inst);
  ASSERT_TRUE(worlds.ok());
  auto oracle = ProjectWorlds(*worlds, p, ProjectionKind::kDescendant);
  ASSERT_TRUE(oracle.ok());
  auto efficient = DescendantProject(inst, p);
  ASSERT_TRUE(efficient.ok()) << efficient.status();
  ExpectInstanceMatchesWorlds(*efficient, *oracle);
}

TEST(DescendantProjectTest, KeepsSubtreesBelowTargets) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  PathExpression p = MakePath(inst.dict(), inst.weak().root(), {"book"});
  auto result = DescendantProject(inst, p);
  ASSERT_TRUE(result.ok());
  // Authors and institutions below the books remain.
  EXPECT_TRUE(result->weak().Present(*result->dict().FindObject("I1")));
  EXPECT_NE(result->GetOpf(*result->dict().FindObject("B1")), nullptr);
}

TEST(SingleProjectTest, MatchesOracleOnTreeBibliography) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  for (auto labels : std::vector<std::vector<const char*>>{
           {"book"},
           {"book", "author"},
           {"book", "title"},
           {"book", "author", "institution"}}) {
    PathExpression p;
    p.start = inst.weak().root();
    for (const char* l : labels) {
      p.labels.push_back(*inst.dict().FindLabel(l));
    }
    auto worlds = EnumerateWorlds(inst);
    ASSERT_TRUE(worlds.ok());
    auto oracle = ProjectWorlds(*worlds, p, ProjectionKind::kSingle);
    ASSERT_TRUE(oracle.ok());
    ProjectionStats stats;
    auto efficient = SingleProject(inst, p, &stats);
    ASSERT_TRUE(efficient.ok()) << efficient.status();
    ExpectInstanceMatchesWorlds(*efficient, *oracle);
    EXPECT_GT(stats.processed_entries, 0u);
  }
}

TEST(SingleProjectTest, JointCapturesTargetCorrelation) {
  // B1's authors A1 and A2 are correlated through B1's OPF; the root
  // joint must reflect that, not a product of marginals.
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  PathExpression p =
      MakePath(dict, inst.weak().root(), {"book", "author"});
  auto result = SingleProject(inst, p);
  ASSERT_TRUE(result.ok());
  const Opf* joint = result->GetOpf(result->weak().root());
  ASSERT_NE(joint, nullptr);
  ObjectId a1 = *dict.FindObject("A1");
  ObjectId a2 = *dict.FindObject("A2");
  double p_both = 0.0;
  double p_a1 = 0.0;
  double p_a2 = 0.0;
  for (const OpfEntry& e : joint->Entries()) {
    if (e.child_set.Contains(a1) && e.child_set.Contains(a2)) {
      p_both += e.prob;
    }
    if (e.child_set.Contains(a1)) p_a1 += e.prob;
    if (e.child_set.Contains(a2)) p_a2 += e.prob;
  }
  EXPECT_GT(std::abs(p_both - p_a1 * p_a2), 1e-3);
  // And the marginal equals the point query.
  auto point = PointQuery(inst, p, a1);
  ASSERT_TRUE(point.ok());
  EXPECT_NEAR(p_a1, *point, 1e-9);
}

TEST(SingleProjectTest, CapAndDegenerateCases) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  PathExpression p = MakePath(dict, inst.weak().root(), {"book"});
  EXPECT_EQ(SingleProject(inst, p, nullptr, /*max_targets=*/1)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Unmatched path -> bare root.
  PathExpression none = MakePath(dict, inst.weak().root(), {"institution"});
  auto result = SingleProject(inst, none);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->weak().num_objects(), 1u);
}

TEST(SingleProjectInstanceTest, AttachesTargetsToRoot) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  auto worlds = EnumerateWorlds(inst);
  ASSERT_TRUE(worlds.ok());
  PathExpression p =
      MakePath(inst.dict(), inst.weak().root(), {"book", "author"});
  auto projected = ProjectWorlds(*worlds, p, ProjectionKind::kSingle);
  ASSERT_TRUE(projected.ok());
  for (const World& w : *projected) {
    for (ObjectId o : w.instance.Objects()) {
      if (o == w.instance.root()) continue;
      ASSERT_EQ(w.instance.Parents(o).size(), 1u);
      EXPECT_EQ(w.instance.Parents(o)[0], w.instance.root());
    }
  }
}

}  // namespace
}  // namespace pxml
