// Mutation harness for the PXML/IPXML readers and the query parser.
//
// Writer-made documents (explicit, independent and per-label OPFs, typed
// leaves with VPFs and witnesses, cardinality bounds, names that need
// escaping, IPXML) are mutated by a seeded, deterministic mutator:
// truncation, byte flips, duplicated, dropped and moved elements and
// attributes, odd numbers (NaN, infinities, negative and > 1
// probabilities, hex, signs, spaces), bad and partial entities, and
// nesting. Every mutant must either fail with an error Status or give an
// instance that validation can inspect; it must never crash, hang or
// trip a sanitizer.
//
// The mutants are also read by the recursive DOM reader the library used
// before its zero-copy reader (tests/xml_dom_oracle.h). Both must agree
// on ok-ness and StatusCode, and on the serialized bytes when ok. Their
// one known divergence, nesting deeper than kMaxElementDepth, is pinned
// by its own tests below and kept out of the differential mutants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/validation.h"
#include "fixtures.h"
#include "interval/interval_model.h"
#include "query/parser.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "xml/interval_io.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xml/xml_reader.h"
#include "xml_dom_oracle.h"

namespace pxml {
namespace {

using xml_internal::kMaxElementDepth;

constexpr std::uint64_t kSeed = 0x5EED'F00D;
/// Mutants per PXML base document; the one IPXML base gets twice this.
constexpr int kMutantsPerDocument = 1500;
/// Nesting one mutation may add. Up to three stacked mutations (each
/// insertion adds at most this, each move at most doubles the depth) on a
/// document of five levels stay below kMaxElementDepth, and so inside the
/// oracle's stack and outside the readers' one divergence.
constexpr std::size_t kMaxInsertedDepth = 40;
/// Failures reported per test before the rest are only counted.
constexpr int kMaxReportedFailures = 5;

// ------------------------------------------------------- base documents

ProbabilisticInstance Generated(OpfStyle style, std::uint64_t seed) {
  GeneratorConfig config;
  config.depth = 2;
  config.branching = 3;
  config.opf_style = style;
  config.labeling = LabelingScheme::kFullyRandom;
  config.labels_per_level = 2;
  config.seed = seed;
  config.with_leaf_values = true;
  auto generated = GenerateBalancedTree(config);
  EXPECT_TRUE(generated.ok()) << generated.status();
  return std::move(generated).ValueOrDie();
}

/// Every value kind (s/i/d/b) as type domains, witnesses and VPFs, a
/// cardinality bound, and names and values that need escaping.
ProbabilisticInstance TypedInstance() {
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.weak();
  Dictionary& dict = weak.dict();
  const ObjectId root = weak.AddObject("R&<\"1\">");
  EXPECT_TRUE(weak.SetRoot(root).ok());
  const LabelId x = dict.InternLabel("x");
  const LabelId y = dict.InternLabel("y&");
  const std::vector<std::vector<Value>> domains = {
      {Value("v <&> \"q\""), Value("&amp;"), Value("")},
      {Value(std::int64_t{-7}), Value(std::int64_t{42})},
      {Value(0.1), Value(-0.0), Value(5e-324)},
      {Value(true), Value(false)}};
  const char* type_names[] = {"str", "int", "dbl", "bool"};
  ExplicitOpf rows;
  std::vector<ObjectId> leaves;
  for (std::size_t t = 0; t < domains.size(); ++t) {
    auto type = dict.DefineType(type_names[t], domains[t]);
    EXPECT_TRUE(type.ok()) << type.status();
    const ObjectId leaf = weak.AddObject("L" + std::to_string(t) + "&q");
    EXPECT_TRUE(weak.AddPotentialChild(root, t < 2 ? x : y, leaf).ok());
    if (t % 2 == 0) {
      EXPECT_TRUE(weak.SetLeafValue(leaf, *type, domains[t][0]).ok());
    } else {
      EXPECT_TRUE(weak.SetLeafType(leaf, *type).ok());
    }
    Vpf vpf;
    for (std::size_t v = 0; v < domains[t].size(); ++v) {
      vpf.Set(domains[t][v], 1.0 / static_cast<double>(domains[t].size()));
    }
    EXPECT_TRUE(inst.SetVpf(leaf, vpf).ok());
    leaves.push_back(leaf);
  }
  EXPECT_TRUE(weak.SetCard(root, x, IntInterval(1, 2)).ok());
  EXPECT_TRUE(weak.SetCard(root, y, IntInterval(0, 2)).ok());
  rows.Set(IdSet({leaves[0]}), 0.25);
  rows.Set(IdSet({leaves[0], leaves[1], leaves[2]}), 0.5);
  rows.Set(IdSet({leaves[1], leaves[3]}), 0.25);
  EXPECT_TRUE(inst.SetOpf(root, std::make_unique<ExplicitOpf>(rows)).ok());
  return inst;
}

std::vector<std::string> PxmlBases() {
  return {SerializePxml(Generated(OpfStyle::kExplicitTable, 3)),
          SerializePxml(Generated(OpfStyle::kIndependent, 4)),
          SerializePxml(Generated(OpfStyle::kPerLabelProduct, 5)),
          SerializePxml(TypedInstance()),
          SerializePxml(testing::MakeFullyTypedBibliographicInstance())};
}

std::string IpxmlBase() {
  auto widened =
      IntervalInstance::Widen(Generated(OpfStyle::kExplicitTable, 6), 0.05);
  EXPECT_TRUE(widened.ok()) << widened.status();
  return SerializeIntervalPxml(*widened);
}

// -------------------------------------------------------------- mutator

bool IsNameByte(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '-' || c == '_' || c == ':';
}

struct Span {
  std::size_t begin;
  std::size_t end;
};

/// Element spans (start tag to end tag, inclusive) of a well-formed
/// writer-made document, found by counting tags.
std::vector<Span> ElementSpans(std::string_view doc) {
  std::vector<Span> spans;
  std::vector<std::size_t> open;
  for (std::size_t i = doc.find('<'); i != std::string_view::npos;
       i = doc.find('<', i + 1)) {
    const std::size_t close = doc.find('>', i);
    if (close == std::string_view::npos) break;
    if (doc[i + 1] == '/') {
      if (open.empty()) break;
      spans.push_back({open.back(), close + 1});
      open.pop_back();
    } else if (doc[close - 1] == '/') {
      spans.push_back({i, close + 1});
    } else {
      open.push_back(i);
    }
  }
  return spans;
}

/// `name="value"` spans (with the leading space) of every attribute.
std::vector<Span> AttributeSpans(std::string_view doc) {
  std::vector<Span> spans;
  for (std::size_t eq = doc.find("=\""); eq != std::string_view::npos;
       eq = doc.find("=\"", eq + 1)) {
    std::size_t begin = eq;
    while (begin > 0 && IsNameByte(doc[begin - 1])) --begin;
    if (begin == 0 || doc[begin - 1] != ' ') continue;
    const std::size_t quote = doc.find('"', eq + 2);
    if (quote == std::string_view::npos) break;
    spans.push_back({begin - 1, quote + 1});
  }
  return spans;
}

const char* const kNumbers[] = {
    "nan",   "NaN",    "-nan",     "nan(12)",  "inf",      "-inf",
    "infinity", "-0.5", "1.5",     "2",        "-0",       "1e400",
    "-1e400", "1e-400", "0x1p-1",  "0X.8",     "+0.5",     " 0.5",
    "\t1",   "0.5abc", "",         "1e",       ".",        "-",
    "+",     "e5",     "4.9e-324", "1e-320",   "0.1000000000000000055511",
    "-1",    "99999999999999999999", "18446744073709551616", "abc", "1 2"};

const char* const kEntities[] = {"&amp;", "&lt;",  "&gt;",   "&quot;",
                                 "&",     "&am",   "&amp",   "&#38;",
                                 "&bogus;", "&&lt;", "&lt;&gt;"};

const char* const kNames[] = {"row", "child", "factor", "opf", "vpf",
                              "val", "lch",   "object", "types", "type",
                              "witness", "pxml", "ipxml", "iopf", "ivpf", "x"};

const char* const kKinds[] = {"s", "i", "d", "b", "", "ss", "q"};

const char* const kReps[] = {"explicit", "independent", "per-label", "",
                             "bogus"};

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string Mutate(const std::string& base) {
    std::string doc = base;
    // Usually one mutation, sometimes a few stacked.
    const int rounds = 1 + static_cast<int>(Pick(4) == 0) * 2;
    for (int r = 0; r < rounds; ++r) MutateOnce(doc);
    return doc;
  }

 private:
  std::size_t Pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.NextBounded(n));
  }

  void MutateOnce(std::string& doc) {
    if (doc.empty()) return;
    const std::vector<Span> elements = ElementSpans(doc);
    const std::vector<Span> attrs = AttributeSpans(doc);
    switch (Pick(14)) {
      case 0:  // truncation
        doc.resize(Pick(doc.size()));
        return;
      case 1: {  // byte flip
        const char interesting[] = "<>/\"= &;\n\0xk";
        char c = Pick(2) == 0 ? interesting[Pick(sizeof(interesting) - 1)]
                              : static_cast<char>(Pick(256));
        doc[Pick(doc.size())] = c;
        return;
      }
      case 2:  // duplicated element
        if (!elements.empty()) {
          const Span s = elements[Pick(elements.size())];
          doc.insert(s.end, doc.substr(s.begin, s.end - s.begin));
        }
        return;
      case 3:  // dropped element
        if (!elements.empty()) {
          const Span s = elements[Pick(elements.size())];
          doc.erase(s.begin, s.end - s.begin);
        }
        return;
      case 4:  // moved element (reorders sections, rows, parts)
        if (elements.size() >= 2) {
          const Span s = elements[Pick(elements.size())];
          const Span to = elements[Pick(elements.size())];
          if (to.begin >= s.begin && to.begin < s.end) return;
          const std::string moved = doc.substr(s.begin, s.end - s.begin);
          if (to.begin < s.begin) {
            doc.erase(s.begin, s.end - s.begin);
            doc.insert(to.begin, moved);
          } else {
            doc.insert(to.begin, moved);
            doc.erase(s.begin, s.end - s.begin);
          }
        }
        return;
      case 5:  // duplicated attribute, same or other value
        if (!attrs.empty()) {
          const Span s = attrs[Pick(attrs.size())];
          std::string copy = doc.substr(s.begin, s.end - s.begin);
          if (Pick(2) == 0) {
            const std::size_t q = copy.find('"');
            copy = copy.substr(0, q + 1) + kNumbers[Pick(std::size(kNumbers))] +
                   "\"";
          }
          doc.insert(Pick(2) == 0 ? s.end : s.begin, copy);
        }
        return;
      case 6:  // dropped attribute
        if (!attrs.empty()) {
          const Span s = attrs[Pick(attrs.size())];
          doc.erase(s.begin, s.end - s.begin);
        }
        return;
      case 7:  // odd number in an attribute value (p, lo, hi, min, max)
      case 8:
        if (!attrs.empty()) {
          const Span s = attrs[Pick(attrs.size())];
          const std::size_t q = doc.find('"', s.begin);
          const std::string_view name =
              std::string_view(doc).substr(s.begin + 1, q - s.begin - 2);
          const char* value = kNumbers[Pick(std::size(kNumbers))];
          if (name == "k") value = kKinds[Pick(std::size(kKinds))];
          if (name == "rep") value = kReps[Pick(std::size(kReps))];
          doc.replace(q + 1, s.end - q - 2, value);
        }
        return;
      case 9: {  // entity, whole or partial, anywhere
        const char* entity = kEntities[Pick(std::size(kEntities))];
        doc.insert(Pick(doc.size() + 1), entity);
        return;
      }
      case 10:  // renamed element (both tags when it has two)
        if (!elements.empty()) {
          const Span s = elements[Pick(elements.size())];
          std::size_t name_end = s.begin + 1;
          while (name_end < doc.size() && IsNameByte(doc[name_end])) {
            ++name_end;
          }
          const std::string old_name =
              doc.substr(s.begin + 1, name_end - s.begin - 1);
          const std::string name = kNames[Pick(std::size(kNames))];
          const std::string end_tag = "</" + old_name + ">";
          if (s.end - s.begin >= end_tag.size() + old_name.size() + 2 &&
              doc.compare(s.end - end_tag.size(), end_tag.size(), end_tag) ==
                  0 &&
              Pick(4) != 0) {
            doc.replace(s.end - end_tag.size(), end_tag.size(),
                        "</" + name + ">");
          }
          doc.replace(s.begin + 1, old_name.size(), name);
        }
        return;
      case 11: {  // a child element splitting a text run or an entity
        const char* const children[] = {"<n/>", "<n></n>", "<n>x</n>",
                                        "<n>&amp;</n>", "<n a=\"1\"/>"};
        std::size_t at = Pick(doc.size() + 1);
        const std::size_t amp = doc.find('&', at);
        if (Pick(2) == 0 && amp != std::string::npos) {
          at = std::min(doc.size(), amp + 1 + Pick(4));
        }
        doc.insert(at, children[Pick(std::size(children))]);
        return;
      }
      case 12: {  // whitespace beside a markup character
        std::size_t at = Pick(doc.size());
        while (at < doc.size() &&
               std::string_view("<>/=\"").find(doc[at]) ==
                   std::string_view::npos) {
          ++at;
        }
        const char* const spaces[] = {" ", "\t", "\n", "\r", "  "};
        doc.insert(at + Pick(2), spaces[Pick(std::size(spaces))]);
        return;
      }
      default: {  // nesting: balanced (usually) inside some element
        const std::size_t depth = 1 + Pick(kMaxInsertedDepth);
        std::string nest;
        for (std::size_t i = 0; i < depth; ++i) nest += "<n>";
        if (Pick(3) == 0) nest += "text&amp;";
        const std::size_t closes = Pick(8) == 0 ? Pick(depth + 1) : depth;
        for (std::size_t i = 0; i < closes; ++i) nest += "</n>";
        // After a start tag's '>' keeps the nesting inside an element.
        const std::size_t gt = doc.find('>', Pick(doc.size()));
        doc.insert(gt == std::string::npos ? doc.size() : gt + 1, nest);
        return;
      }
    }
  }

  Rng rng_;
};

// ------------------------------------------------------------- checking

std::string Excerpt(const std::string& doc) {
  constexpr std::size_t kMax = 400;
  return doc.size() <= kMax ? doc : doc.substr(0, kMax) + "...";
}

struct Tally {
  int mutants = 0;
  int accepted = 0;
  int failures = 0;
};

template <typename Instance, typename Validate, typename Serialize>
void Compare(const std::string& mutant, const Result<Instance>& fresh,
             const Result<Instance>& oracle, Validate validate,
             Serialize serialize, Tally* tally) {
  ++tally->mutants;
  std::string problem;
  if (fresh.ok() != oracle.ok()) {
    problem = "reader " + std::string(fresh.ok() ? "accepts" : "rejects") +
              " what the oracle " + (oracle.ok() ? "accepts" : "rejects") +
              ": " + (fresh.ok() ? oracle.status() : fresh.status()).ToString();
  } else if (!fresh.ok()) {
    if (fresh.status().code() != oracle.status().code()) {
      problem = "status " + fresh.status().ToString() + " vs oracle " +
                oracle.status().ToString();
    }
  } else {
    ++tally->accepted;
    // The contract on accepted input: validation runs to a verdict.
    (void)validate(*fresh);
    if (serialize(*fresh) != serialize(*oracle)) {
      problem = "accepted instances serialize differently";
    }
  }
  if (problem.empty()) return;
  if (++tally->failures <= kMaxReportedFailures) {
    ADD_FAILURE() << problem << "\nmutant: " << Excerpt(mutant);
  }
}

// ---------------------------------------------------------------- tests

TEST(XmlMutationTest, PxmlMutantsMatchTheDomOracle) {
  Mutator mutator(kSeed);
  Tally tally;
  for (const std::string& base : PxmlBases()) {
    for (int i = 0; i < kMutantsPerDocument; ++i) {
      const std::string mutant = mutator.Mutate(base);
      Compare(
          mutant, ParsePxml(mutant), xml_oracle::ParsePxml(mutant),
          [](const ProbabilisticInstance& inst) {
            return ValidateProbabilisticInstance(inst);
          },
          [](const ProbabilisticInstance& inst) {
            return SerializePxml(inst);
          },
          &tally);
    }
  }
  EXPECT_EQ(tally.failures, 0);
  EXPECT_GE(tally.mutants, 7500);
  // The mutator must leave enough documents readable for the
  // accepted-instance comparison to mean something.
  EXPECT_GE(tally.accepted, tally.mutants / 10);
  RecordProperty("mutants", tally.mutants);
  RecordProperty("accepted", tally.accepted);
}

TEST(XmlMutationTest, IpxmlMutantsMatchTheDomOracle) {
  Mutator mutator(kSeed + 1);
  Tally tally;
  const std::string base = IpxmlBase();
  for (int i = 0; i < 2 * kMutantsPerDocument; ++i) {
    const std::string mutant = mutator.Mutate(base);
    Compare(
        mutant, ParseIntervalPxml(mutant), xml_oracle::ParseIntervalPxml(mutant),
        [](const IntervalInstance& inst) {
          return ValidateIntervalInstance(inst);
        },
        [](const IntervalInstance& inst) {
          return SerializeIntervalPxml(inst);
        },
        &tally);
  }
  EXPECT_EQ(tally.failures, 0);
  EXPECT_GE(tally.mutants, 3000);
  EXPECT_GE(tally.accepted, tally.mutants / 10);
}

TEST(XmlMutationTest, QueryMutantsParseOrFail) {
  const ProbabilisticInstance inst = testing::MakeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  const std::vector<std::string> bases = {
      "project R.book.author",
      "project descendant R.book",
      "project single R.book.author",
      "select R.book = B1",
      "select val(R.book.title) = \"VQDB\"",
      "select count(R.book, author) = 1",
      "prob R.book.author = A1",
      "prob exists R.book.title",
      "prob val(R.book.title) != \"Lore\"",
      "prob count(R.book, author) in [1,2]",
      "prob count(R.book, author) >= 1",
      "dist R.book.author"};
  Rng rng(kSeed + 2);
  const char pieces[] = "()[],.=!<>\" \t0123456789-+eE";
  int mutants = 0;
  int accepted = 0;
  for (int i = 0; i < 4000; ++i) {
    std::string q = bases[rng.NextBounded(bases.size())];
    const int rounds = 1 + static_cast<int>(rng.NextBounded(3));
    for (int r = 0; r < rounds && !q.empty(); ++r) {
      const std::size_t at = rng.NextBounded(q.size());
      switch (rng.NextBounded(5)) {
        case 0:
          q.resize(at);
          break;
        case 1:
          q[at] = pieces[rng.NextBounded(sizeof(pieces) - 1)];
          break;
        case 2:
          q[at] = static_cast<char>(rng.NextBounded(256));
          break;
        case 3:
          q.insert(at, q.substr(at, rng.NextBounded(q.size() - at) + 1));
          break;
        default:
          q.erase(at, rng.NextBounded(q.size() - at) + 1);
          break;
      }
    }
    ++mutants;
    auto parsed = ParseQuery(dict, q);
    if (parsed.ok()) {
      ++accepted;
      EXPECT_FALSE(parsed->ToString(dict).empty()) << q;
    }
  }
  EXPECT_GE(mutants, 4000);
  EXPECT_GT(accepted, 0);
}

// ------------------------------------- nesting depth (the divergence)

/// A valid document whose `depth` nested <n> elements sit in a section
/// both readers skip, so the document nests depth + 1 levels.
std::string NestedDocument(const std::string& element, std::size_t depth) {
  std::string doc = "<" + element + " root=\"r\"><object id=\"r\"/>";
  doc.reserve(doc.size() + 7 * depth + element.size() + 3);
  for (std::size_t i = 0; i < depth; ++i) doc += "<n>";
  for (std::size_t i = 0; i < depth; ++i) doc += "</n>";
  doc += "</" + element + ">";
  return doc;
}

TEST(XmlDepthTest, AcceptsNestingUpToTheBound) {
  const std::string pxml = NestedDocument("pxml", kMaxElementDepth - 1);
  auto parsed = ParsePxml(pxml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto oracle = xml_oracle::ParsePxml(pxml);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_EQ(SerializePxml(*parsed), SerializePxml(*oracle));
  auto interval =
      ParseIntervalPxml(NestedDocument("ipxml", kMaxElementDepth - 1));
  EXPECT_TRUE(interval.ok()) << interval.status();
}

// The one divergence from the old DOM reader: it accepted any nesting its
// stack survived, where the reader now stops at kMaxElementDepth.
TEST(XmlDepthTest, OneLevelPastTheBoundIsAParseErrorTheOracleAccepted) {
  const std::string pxml = NestedDocument("pxml", kMaxElementDepth);
  EXPECT_EQ(ParsePxml(pxml).status().code(), StatusCode::kParseError);
  EXPECT_TRUE(xml_oracle::ParsePxml(pxml).ok());
  const std::string ipxml = NestedDocument("ipxml", kMaxElementDepth);
  EXPECT_EQ(ParseIntervalPxml(ipxml).status().code(),
            StatusCode::kParseError);
  EXPECT_TRUE(xml_oracle::ParseIntervalPxml(ipxml).ok());
}

// The old reader recursed once per level and overflowed the stack here.
TEST(XmlDepthTest, HundredThousandLevelsAreAParseError) {
  constexpr std::size_t kDepth = 100'000;
  EXPECT_EQ(ParsePxml(NestedDocument("pxml", kDepth)).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseIntervalPxml(NestedDocument("ipxml", kDepth)).status().code(),
            StatusCode::kParseError);
}

TEST(XmlDepthTest, MillionLevelsAreAParseError) {
  constexpr std::size_t kDepth = 1'000'000;
  EXPECT_EQ(ParsePxml(NestedDocument("pxml", kDepth)).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseIntervalPxml(NestedDocument("ipxml", kDepth)).status().code(),
            StatusCode::kParseError);
  // Unclosed, too.
  std::string unclosed;
  unclosed.reserve(3 * kDepth);
  for (std::size_t i = 0; i < kDepth; ++i) unclosed += "<n>";
  EXPECT_EQ(ParsePxml(unclosed).status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseIntervalPxml(unclosed).status().code(),
            StatusCode::kParseError);
}

}  // namespace
}  // namespace pxml
