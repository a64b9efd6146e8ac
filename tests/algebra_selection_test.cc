#include <gtest/gtest.h>

#include "algebra/selection.h"
#include "algebra/selection_global.h"
#include "core/semantics.h"
#include "core/validation.h"
#include "fixtures.h"
#include "obs/metrics.h"
#include "query/point_queries.h"
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

// -------------------------------------------------------- world-level (Def 5.6)

TEST(SelectWorldsTest, FiltersAndRenormalizes) {
  ProbabilisticInstance inst = MakeSmallTreeInstance();
  auto worlds = EnumerateWorlds(inst);
  ASSERT_TRUE(worlds.ok());
  const Dictionary& dict = inst.dict();
  SelectionCondition cond = SelectionCondition::ObjectEquals(
      MakePath(dict, inst.weak().root(), {"a"}), *dict.FindObject("x1"));
  auto selected = SelectWorlds(*worlds, cond);
  ASSERT_TRUE(selected.ok());
  double sum = 0;
  for (const World& w : *selected) {
    EXPECT_TRUE(w.instance.Present(*dict.FindObject("x1")));
    sum += w.prob;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // P(x1) = 0.3 + 0.5 = 0.8; selected worlds carry prob / 0.8.
  EXPECT_LT(selected->size(), worlds->size());
}

TEST(SelectWorldsTest, ZeroMassConditionFails) {
  ProbabilisticInstance inst = MakeSmallTreeInstance();
  auto worlds = EnumerateWorlds(inst);
  ASSERT_TRUE(worlds.ok());
  const Dictionary& dict = inst.dict();
  // y1 is never an a-child of the root.
  SelectionCondition cond = SelectionCondition::ObjectEquals(
      MakePath(dict, inst.weak().root(), {"a"}), *dict.FindObject("y1"));
  EXPECT_FALSE(SelectWorlds(*worlds, cond).ok());
}

TEST(SelectWorldsTest, ValueConditionMatchesSomeLeaf) {
  ProbabilisticInstance inst = MakeChainInstance();
  auto worlds = EnumerateWorlds(inst);
  ASSERT_TRUE(worlds.ok());
  SelectionCondition cond = SelectionCondition::ValueEquals(
      MakePath(inst.dict(), inst.weak().root(), {"a", "b"}), Value("hit"));
  auto selected = SelectWorlds(*worlds, cond);
  ASSERT_TRUE(selected.ok());
  // Only the single world r->x->y(hit) satisfies; it gets probability 1.
  ASSERT_EQ(selected->size(), 1u);
  EXPECT_NEAR((*selected)[0].prob, 1.0, 1e-12);
}

// ----------------------------------------------------- efficient (Section 6)

TEST(SelectTest, ObjectConditionMatchesOracle) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  SelectionCondition cond = SelectionCondition::ObjectEquals(
      MakePath(dict, inst.weak().root(), {"book"}), *dict.FindObject("B1"));
  auto worlds = EnumerateWorlds(inst);
  ASSERT_TRUE(worlds.ok());
  auto oracle = SelectWorlds(*worlds, cond);
  ASSERT_TRUE(oracle.ok());
  SelectionStats stats;
  auto efficient = Select(inst, cond, &stats);
  ASSERT_TRUE(efficient.ok()) << efficient.status();
  ExpectInstanceMatchesWorlds(*efficient, *oracle);
  // P(B1) = 0.3 + 0.5.
  EXPECT_NEAR(stats.condition_prob, 0.8, 1e-12);
  EXPECT_EQ(stats.updated_objects, 1u);
}

TEST(SelectTest, FillsEveryPhaseTimeAndHistogram) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  SelectionCondition cond = SelectionCondition::ObjectEquals(
      MakePath(dict, inst.weak().root(), {"book"}), *dict.FindObject("B1"));
  auto& registry = obs::Registry::Global();
  const char* const kHistograms[] = {
      "pxml.selection.check_ns", "pxml.selection.locate_ns",
      "pxml.selection.copy_ns", "pxml.selection.update_ns"};
  std::vector<std::uint64_t> before;
  for (const char* name : kHistograms) {
    before.push_back(registry.GetHistogram(name).count());
  }
  SelectionStats stats;
  stats.check_seconds = stats.locate_seconds = stats.copy_seconds =
      stats.update_seconds = -1.0;
  ASSERT_TRUE(Select(inst, cond, &stats).ok());
  EXPECT_GE(stats.check_seconds, 0.0);
  EXPECT_GE(stats.locate_seconds, 0.0);
  EXPECT_GE(stats.copy_seconds, 0.0);
  EXPECT_GE(stats.update_seconds, 0.0);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(registry.GetHistogram(kHistograms[i]).count(), before[i] + 1)
        << kHistograms[i];
  }
}

TEST(SelectTest, DeepObjectConditionMatchesOracle) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  SelectionCondition cond = SelectionCondition::ObjectEquals(
      MakePath(dict, inst.weak().root(), {"book", "author", "institution"}),
      *dict.FindObject("I1"));
  auto worlds = EnumerateWorlds(inst);
  ASSERT_TRUE(worlds.ok());
  auto oracle = SelectWorlds(*worlds, cond);
  ASSERT_TRUE(oracle.ok());
  SelectionStats stats;
  auto efficient = Select(inst, cond, &stats);
  ASSERT_TRUE(efficient.ok()) << efficient.status();
  ExpectInstanceMatchesWorlds(*efficient, *oracle);
  EXPECT_EQ(stats.updated_objects, 3u);  // chain length = depth
}

TEST(SelectTest, ConditionProbEqualsPointQuery) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  PathExpression p = MakePath(dict, inst.weak().root(),
                              {"book", "author", "institution"});
  ObjectId i1 = *dict.FindObject("I1");
  SelectionStats stats;
  auto selected =
      Select(inst, SelectionCondition::ObjectEquals(p, i1), &stats);
  ASSERT_TRUE(selected.ok());
  auto point = PointQuery(inst, p, i1);
  ASSERT_TRUE(point.ok());
  EXPECT_NEAR(stats.condition_prob, *point, 1e-12);
}

TEST(SelectTest, SelectionIsIdempotent) {
  // Selecting the same certain fact twice changes nothing more.
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  SelectionCondition cond = SelectionCondition::ObjectEquals(
      MakePath(dict, inst.weak().root(), {"book"}), *dict.FindObject("B1"));
  auto once = Select(inst, cond);
  ASSERT_TRUE(once.ok());
  SelectionStats stats;
  auto twice = Select(*once, cond, &stats);
  ASSERT_TRUE(twice.ok());
  EXPECT_NEAR(stats.condition_prob, 1.0, 1e-12);
  auto w1 = EnumerateWorlds(*once);
  ASSERT_TRUE(w1.ok());
  ExpectInstanceMatchesWorlds(*twice, *w1);
}

TEST(SelectTest, ValueConditionCollapsesVpf) {
  ProbabilisticInstance inst = MakeChainInstance();
  const Dictionary& dict = inst.dict();
  SelectionCondition cond = SelectionCondition::ValueEquals(
      MakePath(dict, inst.weak().root(), {"a", "b"}), Value("hit"));
  auto worlds = EnumerateWorlds(inst);
  ASSERT_TRUE(worlds.ok());
  auto oracle = SelectWorlds(*worlds, cond);
  ASSERT_TRUE(oracle.ok());
  SelectionStats stats;
  auto efficient = Select(inst, cond, &stats);
  ASSERT_TRUE(efficient.ok()) << efficient.status();
  ExpectInstanceMatchesWorlds(*efficient, *oracle);
  // P = 0.6 * 0.5 * 0.25.
  EXPECT_NEAR(stats.condition_prob, 0.075, 1e-12);
  const Vpf* vpf = efficient->GetVpf(*dict.FindObject("y"));
  ASSERT_NE(vpf, nullptr);
  EXPECT_NEAR(vpf->Prob(Value("hit")), 1.0, 1e-12);
}

TEST(SelectTest, ValueConditionWithManyTargetsUnimplemented) {
  ProbabilisticInstance inst = MakeSmallTreeInstance();
  SelectionCondition cond = SelectionCondition::ValueEquals(
      MakePath(inst.dict(), inst.weak().root(), {"a", "b"}), Value("1"));
  Status s = Select(inst, cond).status();
  EXPECT_EQ(s.code(), StatusCode::kUnimplemented);
}

TEST(SelectTest, ImpossibleConditionFails) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  // T1 is not reachable by R.book.author.
  SelectionCondition cond = SelectionCondition::ObjectEquals(
      MakePath(dict, inst.weak().root(), {"book", "author"}),
      *dict.FindObject("T1"));
  Status s = Select(inst, cond).status();
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(SelectTest, ZeroProbabilityValueFails) {
  ProbabilisticInstance inst = MakeChainInstance();
  ObjectId y = *inst.dict().FindObject("y");
  Vpf vpf;
  vpf.Set(Value("hit"), 0.0);
  vpf.Set(Value("miss"), 1.0);
  ASSERT_TRUE(inst.SetVpf(y, std::move(vpf)).ok());
  SelectionCondition cond = SelectionCondition::ValueEquals(
      MakePath(inst.dict(), inst.weak().root(), {"a", "b"}), Value("hit"));
  Status s = Select(inst, cond).status();
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(SelectTest, RejectsDagInstances) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  SelectionCondition cond = SelectionCondition::ObjectEquals(
      MakePath(dict, inst.weak().root(), {"book"}), *dict.FindObject("B1"));
  EXPECT_FALSE(Select(inst, cond).ok());
  // But the oracle handles the DAG fine (the paper's "book B1 surely
  // exists" scenario from Section 2).
  auto worlds = EnumerateWorlds(inst);
  ASSERT_TRUE(worlds.ok());
  auto selected = SelectWorlds(*worlds, cond);
  ASSERT_TRUE(selected.ok());
  double sum = 0;
  for (const World& w : *selected) sum += w.prob;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(SelectTest, ResultIsValidInstance) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  SelectionCondition cond = SelectionCondition::ObjectEquals(
      MakePath(dict, inst.weak().root(), {"book"}), *dict.FindObject("B2"));
  auto result = Select(inst, cond);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(ValidateProbabilisticInstance(*result).ok());
}

TEST(SelectTest, OnlyChainOpfsChange) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  SelectionCondition cond = SelectionCondition::ObjectEquals(
      MakePath(dict, inst.weak().root(), {"book"}), *dict.FindObject("B1"));
  auto result = Select(inst, cond);
  ASSERT_TRUE(result.ok());
  // The root's OPF is conditioned...
  const Opf* root_opf = result->GetOpf(inst.weak().root());
  EXPECT_NEAR(root_opf->Prob(IdSet{*dict.FindObject("B2")}), 0.0, 1e-12);
  EXPECT_NEAR(root_opf->MarginalChildProb(*dict.FindObject("B1")), 1.0,
              1e-12);
  // ...while off-chain OPFs are untouched.
  const Opf* b1_opf = result->GetOpf(*dict.FindObject("B1"));
  const Opf* b1_orig = inst.GetOpf(*dict.FindObject("B1"));
  for (const OpfEntry& e : b1_orig->Entries()) {
    EXPECT_NEAR(b1_opf->Prob(e.child_set), e.prob, 1e-12);
  }
}

}  // namespace
}  // namespace pxml
