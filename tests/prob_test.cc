#include <gtest/gtest.h>

#include "prob/cardinality.h"
#include "prob/distribution.h"
#include "prob/opf.h"
#include "prob/value.h"
#include "prob/vpf.h"

namespace pxml {
namespace {

// ------------------------------------------------------------------ Value

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_EQ(Value("x").kind(), Value::Kind::kString);
  EXPECT_EQ(Value(std::int64_t{4}).AsInt(), 4);
  EXPECT_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_TRUE(Value(true).AsBool());
}

TEST(ValueTest, EqualityIsKindAware) {
  EXPECT_NE(Value("1"), Value(std::int64_t{1}));
  EXPECT_EQ(Value("a"), Value("a"));
  EXPECT_NE(Value(1.0), Value(std::int64_t{1}));
}

TEST(ValueTest, HashMatchesEquality) {
  EXPECT_EQ(Value("a").Hash(), Value("a").Hash());
  EXPECT_NE(Value("a").Hash(), Value("b").Hash());
  EXPECT_NE(Value("1").Hash(), Value(std::int64_t{1}).Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value("abc").ToString(), "abc");
  EXPECT_EQ(Value(std::int64_t{-3}).ToString(), "-3");
  EXPECT_EQ(Value(false).ToString(), "false");
}

// ----------------------------------------------------------- Distribution

TEST(DistributionTest, ValidatesMass) {
  EXPECT_TRUE(ValidateProbabilityVector({0.5, 0.5}).ok());
  EXPECT_TRUE(ValidateProbabilityVector({1.0}).ok());
  EXPECT_FALSE(ValidateProbabilityVector({0.5, 0.4}).ok());
  EXPECT_FALSE(ValidateProbabilityVector({1.5, -0.5}).ok());
}

TEST(DistributionTest, NormalizeRescales) {
  std::vector<double> v{1.0, 3.0};
  ASSERT_TRUE(NormalizeInPlace(v).ok());
  EXPECT_NEAR(v[0], 0.25, 1e-12);
  EXPECT_NEAR(v[1], 0.75, 1e-12);
  std::vector<double> zero{0.0, 0.0};
  EXPECT_FALSE(NormalizeInPlace(zero).ok());
}

TEST(DistributionTest, KahanSumHandlesManyTerms) {
  std::vector<double> v(1000000, 1e-6);
  EXPECT_NEAR(SumProbs(v), 1.0, 1e-9);
}

// ------------------------------------------------------------ Cardinality

TEST(CardinalityTest, DefaultsToUnconstrained) {
  CardinalityMap card;
  EXPECT_TRUE(card.Get(3, 7).IsUnconstrained());
  EXPECT_FALSE(card.HasEntry(3, 7));
}

TEST(CardinalityTest, SetAndOverwrite) {
  CardinalityMap card;
  card.Set(1, 2, IntInterval(1, 4));
  EXPECT_EQ(card.Get(1, 2), IntInterval(1, 4));
  card.Set(1, 2, IntInterval(2, 2));
  EXPECT_EQ(card.Get(1, 2), IntInterval(2, 2));
  EXPECT_EQ(card.size(), 1u);
}

TEST(CardinalityTest, EntriesAreSortedAndIndependent) {
  CardinalityMap card;
  card.Set(2, 0, IntInterval(0, 1));
  card.Set(1, 5, IntInterval(1, 1));
  card.Set(1, 2, IntInterval(2, 3));
  auto entries = card.Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].object, 1u);
  EXPECT_EQ(entries[0].label, 2u);
  EXPECT_EQ(entries[2].object, 2u);
  EXPECT_TRUE(card.Get(9, 9).IsUnconstrained());
}

// -------------------------------------------------------------- Explicit

TEST(ExplicitOpfTest, SetAndLookup) {
  ExplicitOpf opf;
  opf.Set(IdSet{1, 2}, 0.6);
  opf.Set(IdSet{1}, 0.4);
  EXPECT_DOUBLE_EQ(opf.Prob(IdSet{1, 2}), 0.6);
  EXPECT_DOUBLE_EQ(opf.Prob(IdSet{2}), 0.0);
  EXPECT_EQ(opf.NumEntries(), 2u);
  EXPECT_TRUE(opf.Validate().ok());
}

TEST(ExplicitOpfTest, EntriesAreCanonicallyOrdered) {
  ExplicitOpf opf;
  opf.Set(IdSet{3}, 0.5);
  opf.Set(IdSet{1}, 0.25);
  opf.Set(IdSet{1, 3}, 0.25);
  auto entries = opf.Entries();
  EXPECT_EQ(entries[0].child_set, IdSet{1});
  EXPECT_EQ(entries[1].child_set, (IdSet{1, 3}));
  EXPECT_EQ(entries[2].child_set, IdSet{3});
}

TEST(ExplicitOpfTest, ValidateRejectsBadMass) {
  ExplicitOpf opf;
  opf.Set(IdSet{1}, 0.7);
  EXPECT_FALSE(opf.Validate().ok());
  opf.Set(IdSet{2}, 0.3);
  EXPECT_TRUE(opf.Validate().ok());
}

TEST(ExplicitOpfTest, MarginalChildProb) {
  ExplicitOpf opf;
  opf.Set(IdSet{1}, 0.3);
  opf.Set(IdSet{1, 2}, 0.2);
  opf.Set(IdSet{2}, 0.5);
  EXPECT_NEAR(opf.MarginalChildProb(1), 0.5, 1e-12);
  EXPECT_NEAR(opf.MarginalChildProb(2), 0.7, 1e-12);
  EXPECT_DOUBLE_EQ(opf.MarginalChildProb(9), 0.0);
}

TEST(ExplicitOpfTest, NormalizeAndPrune) {
  ExplicitOpf opf;
  opf.Set(IdSet{1}, 2.0);
  opf.Set(IdSet{2}, 6.0);
  opf.Set(IdSet{3}, 0.0);
  ASSERT_TRUE(opf.Normalize().ok());
  EXPECT_NEAR(opf.Prob(IdSet{2}), 0.75, 1e-12);
  opf.PruneZeroRows();
  EXPECT_EQ(opf.NumEntries(), 2u);
}

TEST(ExplicitOpfTest, RemapRewritesIds) {
  ExplicitOpf opf;
  opf.Set(IdSet{0, 1}, 1.0);
  std::vector<ObjectId> mapping{10, 20};
  auto remapped = opf.Remap(mapping);
  EXPECT_DOUBLE_EQ(remapped->Prob(IdSet{10, 20}), 1.0);
}

// ------------------------------------------------------------ Independent

TEST(IndependentOpfTest, ProductSemantics) {
  IndependentOpf opf;
  ASSERT_TRUE(opf.AddChild(1, 0.5).ok());
  ASSERT_TRUE(opf.AddChild(2, 0.25).ok());
  EXPECT_NEAR(opf.Prob(IdSet()), 0.5 * 0.75, 1e-12);
  EXPECT_NEAR(opf.Prob(IdSet{1}), 0.5 * 0.75, 1e-12);
  EXPECT_NEAR(opf.Prob(IdSet{1, 2}), 0.5 * 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(opf.Prob(IdSet{3}), 0.0);  // outside the universe
  EXPECT_EQ(opf.NumEntries(), 4u);
}

TEST(IndependentOpfTest, EntriesMatchDirectProbs) {
  IndependentOpf opf;
  ASSERT_TRUE(opf.AddChild(1, 0.1).ok());
  ASSERT_TRUE(opf.AddChild(5, 0.9).ok());
  ASSERT_TRUE(opf.AddChild(9, 0.5).ok());
  double sum = 0;
  for (const OpfEntry& e : opf.Entries()) {
    EXPECT_NEAR(e.prob, opf.Prob(e.child_set), 1e-12);
    sum += e.prob;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_TRUE(opf.Validate().ok());
}

TEST(IndependentOpfTest, RejectsDuplicatesAndBadProbs) {
  IndependentOpf opf;
  ASSERT_TRUE(opf.AddChild(1, 0.5).ok());
  EXPECT_FALSE(opf.AddChild(1, 0.3).ok());
  EXPECT_FALSE(opf.AddChild(2, 1.5).ok());
}

TEST(IndependentOpfTest, MarginalIsTheChildProb) {
  IndependentOpf opf;
  ASSERT_TRUE(opf.AddChild(4, 0.37).ok());
  EXPECT_DOUBLE_EQ(opf.MarginalChildProb(4), 0.37);
}

// --------------------------------------------------------- PerLabelProduct

TEST(PerLabelOpfTest, FactorsMultiply) {
  // Label A over {1}, label B over {2}.
  ExplicitOpf fa;
  fa.Set(IdSet{1}, 0.6);
  fa.Set(IdSet(), 0.4);
  ExplicitOpf fb;
  fb.Set(IdSet{2}, 0.9);
  fb.Set(IdSet(), 0.1);
  PerLabelProductOpf opf;
  ASSERT_TRUE(opf.AddLabelFactor(0, fa).ok());
  ASSERT_TRUE(opf.AddLabelFactor(1, fb).ok());
  EXPECT_NEAR(opf.Prob(IdSet{1, 2}), 0.54, 1e-12);
  EXPECT_NEAR(opf.Prob(IdSet{1}), 0.06, 1e-12);
  EXPECT_NEAR(opf.Prob(IdSet()), 0.04, 1e-12);
  EXPECT_EQ(opf.NumEntries(), 4u);
  EXPECT_TRUE(opf.Validate().ok());
}

TEST(PerLabelOpfTest, EntriesSumToOne) {
  ExplicitOpf fa;
  fa.Set(IdSet{1, 2}, 0.5);
  fa.Set(IdSet{1}, 0.5);
  ExplicitOpf fb;
  fb.Set(IdSet{3}, 1.0);
  PerLabelProductOpf opf;
  ASSERT_TRUE(opf.AddLabelFactor(0, fa).ok());
  ASSERT_TRUE(opf.AddLabelFactor(1, fb).ok());
  double sum = 0;
  for (const OpfEntry& e : opf.Entries()) sum += e.prob;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_NEAR(opf.MarginalChildProb(1), 1.0, 1e-12);
  EXPECT_NEAR(opf.MarginalChildProb(2), 0.5, 1e-12);
}

TEST(PerLabelOpfTest, RejectsOverlappingUniverses) {
  ExplicitOpf fa;
  fa.Set(IdSet{1}, 1.0);
  ExplicitOpf fb;
  fb.Set(IdSet{1}, 1.0);
  PerLabelProductOpf opf;
  ASSERT_TRUE(opf.AddLabelFactor(0, fa).ok());
  EXPECT_FALSE(opf.AddLabelFactor(1, fb).ok());
  EXPECT_FALSE(opf.AddLabelFactor(0, fb).ok());  // duplicate label
}

/// P(|C ∩ set| ∈ range) by the definition, over the canonical Entries().
double CountInRangeByDefinition(const Opf& opf, const IdSet& set,
                                const IntInterval& range) {
  double p = 0.0;
  for (const OpfEntry& e : opf.Entries()) {
    if (range.Contains(static_cast<std::uint32_t>(
            e.child_set.Intersect(set).size()))) {
      p += e.prob;
    }
  }
  return p;
}

TEST(CountInRangeTest, PerLabelReadsOneFactorWithinToleranceOfTheStream) {
  // Label 0 over {1, 2, 3}, label 1 over {4, 5}, label 2 over {6}.
  ExplicitOpf f0;
  f0.Set(IdSet(), 0.1);
  f0.Set(IdSet{1}, 0.2);
  f0.Set(IdSet{1, 2}, 0.3);
  f0.Set(IdSet{1, 2, 3}, 0.4);
  ExplicitOpf f1;
  f1.Set(IdSet{4}, 0.25);
  f1.Set(IdSet{4, 5}, 0.75);
  // Unnormalized (mass 0.95), so the other-factor masses show.
  ExplicitOpf f2;
  f2.Set(IdSet(), 0.45);
  f2.Set(IdSet{6}, 0.5);
  PerLabelProductOpf opf;
  ASSERT_TRUE(opf.AddLabelFactor(0, f0).ok());
  ASSERT_TRUE(opf.AddLabelFactor(1, f1).ok());
  ASSERT_TRUE(opf.AddLabelFactor(2, f2).ok());

  const IdSet sets[] = {IdSet{1, 2, 3}, IdSet{4, 5}, IdSet{6}, IdSet{},
                        IdSet{2, 3}, IdSet{9}};
  const IntInterval ranges[] = {{0, 0}, {1, 1}, {0, 2}, {2, 3},
                                {0, IntInterval::kUnbounded}};
  for (const IdSet& set : sets) {
    for (const IntInterval& range : ranges) {
      auto fast = opf.CountInRangeProb(set, range, nullptr);
      auto stream = opf.Opf::CountInRangeProb(set, range, nullptr);
      ASSERT_TRUE(fast.ok()) << fast.status();
      ASSERT_TRUE(stream.ok()) << stream.status();
      EXPECT_NEAR(*fast, *stream, 1e-12) << range;
      EXPECT_NEAR(*fast, CountInRangeByDefinition(opf, set, range), 1e-12)
          << range;
    }
  }
  // A set meeting two factors falls back to the stream: same bits.
  const IdSet across{3, 4};
  for (const IntInterval& range : ranges) {
    auto fast = opf.CountInRangeProb(across, range, nullptr);
    auto stream = opf.Opf::CountInRangeProb(across, range, nullptr);
    ASSERT_TRUE(fast.ok() && stream.ok());
    EXPECT_EQ(*fast, *stream) << range;
  }
}

TEST(CountInRangeTest, ExplicitAndIndependentKeepTheStream) {
  ExplicitOpf ex;
  ex.Set(IdSet(), 0.15);
  ex.Set(IdSet{1}, 0.35);
  ex.Set(IdSet{1, 2}, 0.5);
  IndependentOpf ind;
  ASSERT_TRUE(ind.AddChild(1, 0.3).ok());
  ASSERT_TRUE(ind.AddChild(2, 0.6).ok());
  ASSERT_TRUE(ind.AddChild(3, 0.9).ok());
  for (const Opf* opf : {static_cast<const Opf*>(&ex),
                         static_cast<const Opf*>(&ind)}) {
    for (const IntInterval& range :
         {IntInterval(0, 0), IntInterval(1, 1), IntInterval(0, 2)}) {
      // The stream, summed by hand in ForEachEntry order: same bits.
      double want = 0.0;
      opf->ForEachEntry([&](const OpfEntry& e) {
        if (range.Contains(static_cast<std::uint32_t>(
                e.child_set.Intersect(IdSet{1, 2}).size()))) {
          want += e.prob;
        }
      });
      auto got = opf->CountInRangeProb(IdSet{1, 2}, range, nullptr);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*got, want) << opf->RepresentationName() << " " << range;
    }
  }
}

// -------------------------------------------------------------------- Vpf

TEST(VpfTest, SetLookupValidate) {
  Vpf vpf;
  vpf.Set(Value("VQDB"), 0.4);
  vpf.Set(Value("Lore"), 0.6);
  EXPECT_DOUBLE_EQ(vpf.Prob(Value("VQDB")), 0.4);
  EXPECT_DOUBLE_EQ(vpf.Prob(Value("XML")), 0.0);

  Dictionary dict;
  auto type = dict.DefineType("title", {Value("VQDB"), Value("Lore")});
  ASSERT_TRUE(type.ok());
  EXPECT_TRUE(vpf.Validate(dict, *type).ok());
  vpf.Set(Value("XML"), 0.0);
  EXPECT_FALSE(vpf.Validate(dict, *type).ok());  // value outside domain
}

TEST(VpfTest, NormalizeRescales) {
  Vpf vpf;
  vpf.Set(Value("a"), 2.0);
  vpf.Set(Value("b"), 2.0);
  ASSERT_TRUE(vpf.Normalize().ok());
  EXPECT_DOUBLE_EQ(vpf.Prob(Value("a")), 0.5);
}

TEST(VpfTest, ValidateRejectsBadMass) {
  Dictionary dict;
  auto type = dict.DefineType("bit", {Value("0"), Value("1")});
  ASSERT_TRUE(type.ok());
  Vpf vpf;
  vpf.Set(Value("0"), 0.9);
  EXPECT_FALSE(vpf.Validate(dict, *type).ok());
}

}  // namespace
}  // namespace pxml
