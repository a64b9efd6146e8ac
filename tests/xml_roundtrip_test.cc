// XML round-trip *property* tests: random instances -> SerializePxml ->
// ParsePxml -> structurally identical instance with bit-identical ℘.
// xml_test.cc checks round-trips through the possible-worlds distribution
// (semantic equality up to tolerance); this suite checks the stronger
// syntactic contract the writer/parser documents — probabilities and
// double values are written in shortest round-trip form (`std::to_chars`)
// and reparse to the *same double bits*, compact OPFs come back in their
// native representation (not re-expanded tables), ids round-trip because
// objects serialize in id order, and serialization is a byte-for-byte
// fixed point of parsing. Covers the per-label and interval (IPXML)
// representations the distribution-based tests skip, names that need
// escaping, and the file writers' and readers' error paths.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "interval/interval_model.h"
#include "workload/generator.h"
#include "xml/interval_io.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace pxml {
namespace {

std::uint64_t Bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

void ExpectBitEqual(double a, double b, const std::string& what) {
  EXPECT_EQ(Bits(a), Bits(b)) << what << ": " << a << " vs " << b;
}

/// Resolves `a`-side label `l` into `b`'s dictionary by name. Label *ids*
/// deliberately do not round-trip: the format mentions labels only where
/// they are used, so labels interned but never attached to an edge vanish
/// and the survivors may renumber. Names are the identity.
LabelId MappedLabel(const WeakInstance& a, const WeakInstance& b, LabelId l) {
  std::optional<LabelId> bl = b.dict().FindLabel(a.dict().LabelName(l));
  EXPECT_TRUE(bl.has_value()) << "label '" << a.dict().LabelName(l)
                              << "' missing after round trip";
  return bl.value_or(static_cast<LabelId>(-1));
}

/// Structure: same objects (by id *and* name — objects serialize in id
/// order, so ids do round-trip), same labeled edges (labels matched by
/// name), same cardinalities, same leaf types/witnesses.
void ExpectSameStructure(const WeakInstance& a, const WeakInstance& b) {
  ASSERT_EQ(a.num_objects(), b.num_objects());
  EXPECT_EQ(a.root(), b.root());
  ASSERT_EQ(a.dict().num_types(), b.dict().num_types());
  for (TypeId t = 0; t < a.dict().num_types(); ++t) {
    EXPECT_EQ(a.dict().TypeName(t), b.dict().TypeName(t));
    EXPECT_EQ(a.dict().TypeDomain(t), b.dict().TypeDomain(t));
  }
  for (ObjectId o : a.Objects()) {
    ASSERT_TRUE(b.Present(o)) << "object " << o;
    EXPECT_EQ(a.dict().ObjectName(o), b.dict().ObjectName(o));
    const std::vector<LabelId> la = a.LabelsOf(o);
    ASSERT_EQ(la.size(), b.LabelsOf(o).size()) << "labels of " << o;
    for (LabelId l : la) {
      const LabelId bl = MappedLabel(a, b, l);
      EXPECT_EQ(a.Lch(o, l), b.Lch(o, bl))
          << "lch(" << o << ", " << a.dict().LabelName(l) << ")";
      EXPECT_EQ(a.Card(o, l).min(), b.Card(o, bl).min());
      EXPECT_EQ(a.Card(o, l).max(), b.Card(o, bl).max());
    }
    EXPECT_EQ(a.TypeOf(o), b.TypeOf(o)) << "type of " << o;
    EXPECT_EQ(a.ValueOf(o), b.ValueOf(o)) << "witness of " << o;
  }
}

/// ℘: same representation per object and bit-identical stored numbers,
/// compared through the representation-specific (non-materializing) API.
void ExpectSameInterpretation(const ProbabilisticInstance& a,
                              const ProbabilisticInstance& b) {
  for (ObjectId o : a.weak().Objects()) {
    const Opf* oa = a.GetOpf(o);
    const Opf* ob = b.GetOpf(o);
    ASSERT_EQ(oa == nullptr, ob == nullptr) << "opf presence at " << o;
    if (oa != nullptr) {
      ASSERT_EQ(oa->RepresentationName(), ob->RepresentationName())
          << "representation at " << o;
      if (const auto* ea = dynamic_cast<const ExplicitOpf*>(oa)) {
        const auto* eb = dynamic_cast<const ExplicitOpf*>(ob);
        ASSERT_EQ(ea->rows().size(), eb->rows().size());
        for (std::size_t r = 0; r < ea->rows().size(); ++r) {
          EXPECT_EQ(ea->rows()[r].child_set, eb->rows()[r].child_set);
          ExpectBitEqual(ea->rows()[r].prob, eb->rows()[r].prob,
                         "explicit row at object " + std::to_string(o));
        }
      } else if (const auto* ia = dynamic_cast<const IndependentOpf*>(oa)) {
        const auto* ib = dynamic_cast<const IndependentOpf*>(ob);
        ASSERT_EQ(ia->children().size(), ib->children().size());
        for (std::size_t r = 0; r < ia->children().size(); ++r) {
          EXPECT_EQ(ia->children()[r].first, ib->children()[r].first);
          ExpectBitEqual(ia->children()[r].second, ib->children()[r].second,
                         "independent child at object " + std::to_string(o));
        }
      } else if (const auto* pa =
                     dynamic_cast<const PerLabelProductOpf*>(oa)) {
        const auto* pb = dynamic_cast<const PerLabelProductOpf*>(ob);
        const auto fa = pa->factor_views();
        const auto fb = pb->factor_views();
        ASSERT_EQ(fa.size(), fb.size());
        for (std::size_t f = 0; f < fa.size(); ++f) {
          EXPECT_EQ(MappedLabel(a.weak(), b.weak(), fa[f].first), fb[f].first)
              << "factor label at " << o;
          ASSERT_EQ(fa[f].second->rows().size(), fb[f].second->rows().size());
          for (std::size_t r = 0; r < fa[f].second->rows().size(); ++r) {
            EXPECT_EQ(fa[f].second->rows()[r].child_set,
                      fb[f].second->rows()[r].child_set);
            ExpectBitEqual(fa[f].second->rows()[r].prob,
                           fb[f].second->rows()[r].prob,
                           "per-label row at object " + std::to_string(o));
          }
        }
      } else {
        ADD_FAILURE() << "unknown OPF representation at " << o;
      }
    }
    const Vpf* va = a.GetVpf(o);
    const Vpf* vb = b.GetVpf(o);
    ASSERT_EQ(va == nullptr, vb == nullptr) << "vpf presence at " << o;
    if (va != nullptr) {
      ASSERT_EQ(va->Entries().size(), vb->Entries().size());
      for (std::size_t r = 0; r < va->Entries().size(); ++r) {
        EXPECT_EQ(va->Entries()[r].value, vb->Entries()[r].value);
        ExpectBitEqual(va->Entries()[r].prob, vb->Entries()[r].prob,
                       "vpf row at object " + std::to_string(o));
      }
    }
  }
}

void ExpectRoundTrips(const ProbabilisticInstance& inst) {
  const std::string xml = SerializePxml(inst);
  auto parsed = ParsePxml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << xml;
  ExpectSameStructure(inst.weak(), parsed->weak());
  ExpectSameInterpretation(inst, *parsed);
  // One round trip canonicalizes label numbering (unused labels drop,
  // survivors renumber in document order); after that, serialization is
  // a fixed point — reparse and reserialize changes nothing.
  const std::string xml2 = SerializePxml(*parsed);
  auto reparsed = ParsePxml(xml2);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(SerializePxml(*reparsed), xml2);
}

// ---------------------------------------------------------------------------
// Random balanced trees across every OPF representation

TEST(XmlRoundTripPropertyTest, ExplicitTablesRoundTripBitExactly) {
  for (std::uint64_t seed : {1u, 17u, 5309u}) {
    GeneratorConfig config;
    config.depth = 3;
    config.branching = 3;
    config.opf_style = OpfStyle::kExplicitTable;
    config.labeling = LabelingScheme::kFullyRandom;
    config.labels_per_level = 3;
    config.seed = seed;
    config.with_leaf_values = true;
    config.leaf_domain_size = 3;
    auto generated = GenerateBalancedTree(config);
    ASSERT_TRUE(generated.ok()) << generated.status();
    ExpectRoundTrips(*generated);
  }
}

TEST(XmlRoundTripPropertyTest, IndependentOpfsRoundTripNatively) {
  for (std::uint64_t seed : {2u, 23u, 8086u}) {
    GeneratorConfig config;
    config.depth = 4;
    config.branching = 2;
    config.opf_style = OpfStyle::kIndependent;
    config.seed = seed;
    config.with_leaf_values = true;
    auto generated = GenerateBalancedTree(config);
    ASSERT_TRUE(generated.ok()) << generated.status();
    ExpectRoundTrips(*generated);
  }
}

TEST(XmlRoundTripPropertyTest, PerLabelProductsRoundTripNatively) {
  // The representation xml_test's distribution checks largely skip:
  // factors must come back as factors with the same label partition.
  for (std::uint64_t seed : {3u, 29u, 31337u}) {
    GeneratorConfig config;
    config.depth = 3;
    config.branching = 4;
    config.opf_style = OpfStyle::kPerLabelProduct;
    config.labels_per_level = 2;
    config.seed = seed;
    config.with_leaf_values = true;
    auto generated = GenerateBalancedTree(config);
    ASSERT_TRUE(generated.ok()) << generated.status();
    ExpectRoundTrips(*generated);
  }
}

TEST(XmlRoundTripPropertyTest, RandomDagsRoundTrip) {
  // DAG-shaped weak instances: shared children, cardinality intervals.
  for (std::uint64_t seed : {4u, 37u, 424242u}) {
    DagConfig config;
    config.num_objects = 12;
    config.num_labels = 3;
    config.edge_density = 0.4;
    config.seed = seed;
    config.with_leaf_values = true;
    auto generated = GenerateRandomDag(config);
    ASSERT_TRUE(generated.ok()) << generated.status();
    ExpectRoundTrips(*generated);
  }
}

// ---------------------------------------------------------------------------
// Interval (IPXML) round-trips

void ExpectIntervalRoundTrips(const IntervalInstance& inst) {
  const std::string xml = SerializeIntervalPxml(inst);
  auto parsed = ParseIntervalPxml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << xml;
  ExpectSameStructure(inst.weak(), parsed->weak());
  for (ObjectId o : inst.weak().Objects()) {
    const IntervalOpf* oa = inst.GetOpf(o);
    const IntervalOpf* ob = parsed->GetOpf(o);
    ASSERT_EQ(oa == nullptr, ob == nullptr) << "iopf presence at " << o;
    if (oa != nullptr) {
      ASSERT_EQ(oa->Entries().size(), ob->Entries().size());
      for (std::size_t r = 0; r < oa->Entries().size(); ++r) {
        EXPECT_EQ(oa->Entries()[r].child_set, ob->Entries()[r].child_set);
        ExpectBitEqual(oa->Entries()[r].prob.lo(), ob->Entries()[r].prob.lo(),
                       "iopf lo at object " + std::to_string(o));
        ExpectBitEqual(oa->Entries()[r].prob.hi(), ob->Entries()[r].prob.hi(),
                       "iopf hi at object " + std::to_string(o));
      }
    }
    const IntervalVpf* va = inst.GetVpf(o);
    const IntervalVpf* vb = parsed->GetVpf(o);
    ASSERT_EQ(va == nullptr, vb == nullptr) << "ivpf presence at " << o;
    if (va != nullptr) {
      ASSERT_EQ(va->Entries().size(), vb->Entries().size());
      for (std::size_t r = 0; r < va->Entries().size(); ++r) {
        EXPECT_EQ(va->Entries()[r].value, vb->Entries()[r].value);
        ExpectBitEqual(va->Entries()[r].prob.lo(), vb->Entries()[r].prob.lo(),
                       "ivpf lo at object " + std::to_string(o));
        ExpectBitEqual(va->Entries()[r].prob.hi(), vb->Entries()[r].prob.hi(),
                       "ivpf hi at object " + std::to_string(o));
      }
    }
  }
  const std::string xml2 = SerializeIntervalPxml(*parsed);
  auto reparsed = ParseIntervalPxml(xml2);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(SerializeIntervalPxml(*reparsed), xml2);
}

TEST(XmlRoundTripPropertyTest, WidenedIntervalInstancesRoundTrip) {
  for (std::uint64_t seed : {5u, 41u, 90210u}) {
    GeneratorConfig config;
    config.depth = 3;
    config.branching = 2;
    config.seed = seed;
    config.with_leaf_values = true;
    auto point = GenerateBalancedTree(config);
    ASSERT_TRUE(point.ok()) << point.status();
    auto widened = IntervalInstance::Widen(*point, 0.05);
    ASSERT_TRUE(widened.ok()) << widened.status();
    ExpectIntervalRoundTrips(*widened);
  }
}

TEST(XmlRoundTripPropertyTest, DegenerateIntervalInstancesRoundTrip) {
  GeneratorConfig config;
  config.depth = 2;
  config.branching = 3;
  config.opf_style = OpfStyle::kExplicitTable;
  config.seed = 6;
  config.with_leaf_values = true;
  auto point = GenerateBalancedTree(config);
  ASSERT_TRUE(point.ok()) << point.status();
  auto degenerate = IntervalInstance::FromPoint(*point);
  ASSERT_TRUE(degenerate.ok()) << degenerate.status();
  ExpectIntervalRoundTrips(*degenerate);
}

// ---------------------------------------------------------------------------
// Adversarial numbers, names that need escaping, fixed point, files

/// Doubles whose decimal forms are easy to get wrong: the smallest
/// subnormal, the smallest normal, the largest double below 1, a value
/// with no exact binary form, negative zero, a huge value, and one whose
/// shortest round-trip form needs all 17 significant digits.
const double kAdversarial[] = {5e-324,  DBL_MIN, 1.0 - 0x1p-53,
                               0.1,     -0.0,    1e300,
                               0.30000000000000004};

TEST(XmlWriterTest, AdversarialDoublesReparseToTheSameBits) {
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.weak();
  Dictionary& dict = weak.dict();
  const ObjectId root = weak.AddObject("R");
  ASSERT_TRUE(weak.SetRoot(root).ok());
  const LabelId x = dict.InternLabel("x");
  const LabelId y = dict.InternLabel("y");
  std::vector<Value> domain;
  for (double d : kAdversarial) domain.emplace_back(d);
  auto num = dict.DefineType("num", domain);
  ASSERT_TRUE(num.ok()) << num.status();

  // Explicit OPF rows at the root: one row per adversarial value.
  ExplicitOpf rows;
  std::vector<ObjectId> xs;
  for (std::size_t i = 0; i < std::size(kAdversarial); ++i) {
    xs.push_back(weak.AddObject("X" + std::to_string(i)));
    ASSERT_TRUE(weak.AddPotentialChild(root, x, xs.back()).ok());
    rows.Set(IdSet({xs.back()}), kAdversarial[i]);
  }
  ASSERT_TRUE(inst.SetOpf(root, std::make_unique<ExplicitOpf>(rows)).ok());

  // Independent children under X0: every adversarial value in [0,1].
  auto independent = std::make_unique<IndependentOpf>();
  std::vector<ObjectId> ys;
  for (double d : kAdversarial) {
    if (!(d >= 0.0 && d <= 1.0)) continue;
    ys.push_back(weak.AddObject("Y" + std::to_string(ys.size())));
    ASSERT_TRUE(weak.AddPotentialChild(xs[0], y, ys.back()).ok());
    ASSERT_TRUE(independent->AddChild(ys.back(), d).ok());
  }
  ASSERT_TRUE(inst.SetOpf(xs[0], std::move(independent)).ok());

  // k="d" witnesses and VPF entries whose values and probabilities are
  // both adversarial.
  for (std::size_t i = 0; i < ys.size(); ++i) {
    ASSERT_TRUE(weak.SetLeafValue(ys[i], *num, domain[i]).ok());
  }
  Vpf vpf;
  for (std::size_t i = 0; i < domain.size(); ++i) {
    vpf.Set(domain[i], kAdversarial[domain.size() - 1 - i]);
  }
  ASSERT_TRUE(inst.SetVpf(ys[0], vpf).ok());

  ExpectRoundTrips(inst);
  auto parsed = ParsePxml(SerializePxml(inst));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const Dictionary& pdict = parsed->weak().dict();
  ASSERT_EQ(pdict.TypeDomain(*num).size(), domain.size());
  for (std::size_t i = 0; i < domain.size(); ++i) {
    ExpectBitEqual(pdict.TypeDomain(*num)[i].AsDouble(), domain[i].AsDouble(),
                   "type domain value " + std::to_string(i));
  }
  for (std::size_t i = 0; i < ys.size(); ++i) {
    auto witness = parsed->weak().ValueOf(ys[i]);
    ASSERT_TRUE(witness.has_value());
    ExpectBitEqual(witness->AsDouble(), domain[i].AsDouble(),
                   "witness of Y" + std::to_string(i));
  }
  const Vpf* pvpf = parsed->GetVpf(ys[0]);
  ASSERT_NE(pvpf, nullptr);
  ASSERT_EQ(pvpf->Entries().size(), vpf.Entries().size());
  for (std::size_t i = 0; i < vpf.Entries().size(); ++i) {
    ExpectBitEqual(pvpf->Entries()[i].value.AsDouble(),
                   vpf.Entries()[i].value.AsDouble(),
                   "vpf value " + std::to_string(i));
  }
}

TEST(XmlWriterTest, NamesAndStringValuesWithMarkupRoundTrip) {
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.weak();
  Dictionary& dict = weak.dict();
  const ObjectId root = weak.AddObject("R&<\"1\">");
  ASSERT_TRUE(weak.SetRoot(root).ok());
  const LabelId label = dict.InternLabel("l&<>\"");
  const std::vector<Value> domain = {Value("v <&> \"q\""), Value("&amp;"),
                                     Value("")};
  auto type = dict.DefineType("t\"&<>", domain);
  ASSERT_TRUE(type.ok()) << type.status();
  const ObjectId a = weak.AddObject("a<b>");
  const ObjectId b = weak.AddObject("q\"&x\"");
  ASSERT_TRUE(weak.AddPotentialChild(root, label, a).ok());
  ASSERT_TRUE(weak.AddPotentialChild(root, label, b).ok());
  ASSERT_TRUE(weak.SetCard(root, label, IntInterval(1, 2)).ok());
  ExplicitOpf rows;
  rows.Set(IdSet({a}), 0.25);
  rows.Set(IdSet({a, b}), 0.75);
  ASSERT_TRUE(inst.SetOpf(root, std::make_unique<ExplicitOpf>(rows)).ok());
  auto per_label = std::make_unique<PerLabelProductOpf>();
  ASSERT_TRUE(per_label->AddLabelFactor(label, rows).ok());
  ASSERT_TRUE(weak.SetLeafValue(a, *type, domain[0]).ok());
  ASSERT_TRUE(weak.SetLeafType(b, *type).ok());
  Vpf vpf;
  vpf.Set(domain[0], 0.5);
  vpf.Set(domain[1], 0.5);
  ASSERT_TRUE(inst.SetVpf(b, vpf).ok());

  ExpectRoundTrips(inst);
  // The same names as a per-label factor's label attribute.
  ASSERT_TRUE(inst.SetOpf(root, std::move(per_label)).ok());
  ExpectRoundTrips(inst);
}

TEST(XmlWriterTest, SerializationIsAFixedPointOfParsing) {
  for (OpfStyle style : {OpfStyle::kExplicitTable, OpfStyle::kIndependent,
                         OpfStyle::kPerLabelProduct}) {
    GeneratorConfig config;
    config.depth = 3;
    config.branching = 3;
    config.opf_style = style;
    config.labeling = LabelingScheme::kFullyRandom;
    config.labels_per_level = 2;
    config.seed = 11;
    config.with_leaf_values = true;
    auto generated = GenerateBalancedTree(config);
    ASSERT_TRUE(generated.ok()) << generated.status();
    const std::string xml = SerializePxml(*generated);
    auto parsed = ParsePxml(xml);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(SerializePxml(*parsed), xml)
        << "style " << static_cast<int>(style);
  }
}

/// An OPF representation the writer does not know: an explicit table
/// behind another class.
class WrappedOpf final : public Opf {
 public:
  explicit WrappedOpf(ExplicitOpf table) : table_(std::move(table)) {}
  double Prob(const IdSet& c) const override { return table_.Prob(c); }
  std::vector<OpfEntry> Entries() const override { return table_.Entries(); }
  std::size_t NumEntries() const override { return table_.NumEntries(); }
  IdSet ChildUniverse() const override { return table_.ChildUniverse(); }
  std::unique_ptr<Opf> Clone() const override {
    return std::make_unique<WrappedOpf>(*this);
  }
  std::unique_ptr<Opf> Remap(
      const std::vector<ObjectId>& mapping,
      const std::vector<LabelId>* label_mapping) const override {
    return table_.Remap(mapping, label_mapping);
  }
  std::string RepresentationName() const override { return "wrapped"; }

 private:
  ExplicitOpf table_;
};

TEST(XmlWriterTest, UnknownRepresentationWritesItsExplicitTable) {
  GeneratorConfig config;
  config.depth = 2;
  config.branching = 3;
  config.opf_style = OpfStyle::kExplicitTable;
  config.seed = 12;
  auto generated = GenerateBalancedTree(config);
  ASSERT_TRUE(generated.ok()) << generated.status();
  ProbabilisticInstance wrapped = *generated;
  const ObjectId root = wrapped.weak().root();
  const auto* table = dynamic_cast<const ExplicitOpf*>(wrapped.GetOpf(root));
  ASSERT_NE(table, nullptr);
  ASSERT_TRUE(
      wrapped.SetOpf(root, std::make_unique<WrappedOpf>(*table)).ok());

  const std::string xml = SerializePxml(wrapped);
  EXPECT_EQ(xml, SerializePxml(*generated));
  auto parsed = ParsePxml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectSameInterpretation(*generated, *parsed);
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(XmlWriterTest, WrittenFilesHoldTheSerializedBytes) {
  GeneratorConfig config;
  config.depth = 3;
  config.branching = 3;
  config.seed = 13;
  config.with_leaf_values = true;
  auto generated = GenerateBalancedTree(config);
  ASSERT_TRUE(generated.ok()) << generated.status();
  const std::string path = ::testing::TempDir() + "xml_roundtrip_test.pxml";
  ASSERT_TRUE(WritePxmlFile(*generated, path).ok());
  const std::string bytes = FileBytes(path);
  EXPECT_EQ(bytes, SerializePxml(*generated));
  auto back = ReadPxmlFile(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(SerializePxml(*back), bytes);

  auto interval = IntervalInstance::Widen(*generated, 0.05);
  ASSERT_TRUE(interval.ok()) << interval.status();
  ASSERT_TRUE(WriteIntervalPxmlFile(*interval, path).ok());
  const std::string ibytes = FileBytes(path);
  EXPECT_EQ(ibytes, SerializeIntervalPxml(*interval));
  auto iback = ReadIntervalPxmlFile(path);
  ASSERT_TRUE(iback.ok()) << iback.status();
  EXPECT_EQ(SerializeIntervalPxml(*iback), ibytes);
  std::remove(path.c_str());
}

TEST(XmlWriterTest, OverwritesTruncateTheFileInPlace) {
  namespace fs = std::filesystem;
  GeneratorConfig config;
  config.depth = 2;
  config.seed = 14;
  auto generated = GenerateBalancedTree(config);
  ASSERT_TRUE(generated.ok()) << generated.status();
  const std::string expected = SerializePxml(*generated);
  const fs::path dir = fs::path(::testing::TempDir()) / "xml_roundtrip_links";
  fs::remove_all(dir);
  ASSERT_TRUE(fs::create_directories(dir));
  const fs::path target = dir / "target.pxml";
  const fs::path symlink = dir / "symlink.pxml";
  const fs::path hardlink = dir / "hardlink.pxml";
  std::ofstream(target) << "stale contents, longer than nothing";

  // The file keeps its mode (no umask default would give this one): it
  // is truncated and rewritten, not replaced by a new file.
  const fs::perms mode =
      fs::perms::owner_read | fs::perms::owner_write | fs::perms::others_read;
  fs::permissions(target, mode);
  ASSERT_TRUE(WritePxmlFile(*generated, target.string()).ok());
  EXPECT_EQ(FileBytes(target.string()), expected);
  EXPECT_EQ(fs::status(target).permissions(), mode);

  // A symlink stays a symlink; the file it names gets the document.
  std::ofstream(target, std::ios::trunc) << "stale";
  fs::create_symlink(target, symlink);
  ASSERT_TRUE(WritePxmlFile(*generated, symlink.string()).ok());
  EXPECT_TRUE(fs::is_symlink(symlink));
  EXPECT_EQ(FileBytes(target.string()), expected);

  // Every name of a hard-linked file sees the document.
  std::ofstream(target, std::ios::trunc) << "stale";
  fs::create_hard_link(target, hardlink);
  ASSERT_TRUE(WritePxmlFile(*generated, hardlink.string()).ok());
  EXPECT_EQ(FileBytes(target.string()), expected);
  EXPECT_EQ(FileBytes(hardlink.string()), expected);
  fs::remove_all(dir);
}

TEST(XmlWriterTest, ReadsFromAPipe) {
  GeneratorConfig config;
  config.depth = 3;
  config.seed = 15;
  auto generated = GenerateBalancedTree(config);
  ASSERT_TRUE(generated.ok()) << generated.status();
  const std::string expected = SerializePxml(*generated);
  const std::string fifo = ::testing::TempDir() + "xml_roundtrip_test.fifo";
  std::remove(fifo.c_str());
  ASSERT_EQ(mkfifo(fifo.c_str(), 0600), 0);
  // A pipe cannot be sized up front; the reader takes it to its end.
  std::thread writer(
      [&] { std::ofstream(fifo, std::ios::binary) << expected; });
  auto back = ReadPxmlFile(fifo);
  writer.join();
  std::remove(fifo.c_str());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(SerializePxml(*back), expected);
}

TEST(XmlWriterTest, FileErrorsAreIoErrors) {
  GeneratorConfig config;
  config.depth = 2;
  auto generated = GenerateBalancedTree(config);
  ASSERT_TRUE(generated.ok()) << generated.status();
  auto interval = IntervalInstance::FromPoint(*generated);
  ASSERT_TRUE(interval.ok()) << interval.status();
  const std::string missing =
      ::testing::TempDir() + "xml_roundtrip_no_such_dir/out.pxml";
  EXPECT_EQ(WritePxmlFile(*generated, missing).code(), StatusCode::kIoError);
  EXPECT_EQ(WriteIntervalPxmlFile(*interval, missing).code(),
            StatusCode::kIoError);
  EXPECT_EQ(ReadPxmlFile(missing).status().code(), StatusCode::kIoError);
  EXPECT_EQ(ReadIntervalPxmlFile(missing).status().code(),
            StatusCode::kIoError);
  // A directory opens but is not a readable document.
  EXPECT_EQ(ReadPxmlFile(::testing::TempDir()).status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(ReadIntervalPxmlFile(::testing::TempDir()).status().code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace pxml
