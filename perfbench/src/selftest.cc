// The benchmark's own tests: quantiles and the samples-beyond rule, the
// self-time reducer, request-list determinism, and that every correctness
// gate fails when one answer is corrupted.
//
//   pxbench_test [--out-dir DIR]     (exit 0 = all pass)

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "algebra/projection.h"
#include "algebra/selection.h"
#include "gates.h"
#include "prob/opf.h"
#include "spans.h"
#include "stats.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/query_generator.h"
#include "workloads.h"
#include "xml/writer.h"

namespace pxbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

template <typename T>
T Must(pxml::Result<T> r) {
  if (!r.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).ValueOrDie();
}

void TestQuantiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  EXPECT(Quantile(v, 0.5) == 50.0);
  EXPECT(Quantile(v, 0.9) == 90.0);
  EXPECT(Quantile(v, 0.99) == 99.0);
  EXPECT(Quantile(v, 1.0) == 100.0);
  EXPECT(Quantile(v, 0.0) == 1.0);
  EXPECT(Quantile({7.0}, 0.9) == 7.0);
  EXPECT(Quantile({}, 0.5) == 0.0);
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(Median({4.0, 1.0, 3.0, 2.0}) == 2.0);  // lower median
  // Samples strictly above the quantile's rank.
  EXPECT(SamplesBeyond(100, 0.9) == 10);
  EXPECT(EnoughSamplesBeyond(100, 0.9));
  EXPECT(!EnoughSamplesBeyond(99, 0.9));
  EXPECT(SamplesBeyond(1000, 0.99) == 10);
  EXPECT(EnoughSamplesBeyond(1000, 0.99));
  EXPECT(!EnoughSamplesBeyond(999, 0.99));
  EXPECT(SamplesBeyond(20, 0.5) == 10);
  EXPECT(!EnoughSamplesBeyond(19, 0.5));
  EXPECT(SamplesBeyond(0, 0.5) == 0);
  EXPECT(Mean({1.0, 2.0, 6.0}) == 3.0);
}

Span MakeSpan(const char* name, std::int64_t a, std::int64_t b,
              std::int32_t parent) {
  Span s;
  s.name = name;
  s.start_ns = a;
  s.end_ns = b;
  s.parent = parent;
  return s;
}

void TestSelfTime() {
  // root [0,100): children [10,40) and [30,60) overlap (union 50),
  // child [90,120) is clipped to [90,100) (10); the grandchild does not
  // count against the root.
  std::vector<Span> spans = {
      MakeSpan("root", 0, 100, kNoParent),   // 0
      MakeSpan("a", 10, 40, 0),              // 1
      MakeSpan("b", 30, 60, 0),              // 2
      MakeSpan("c", 90, 120, 0),             // 3
      MakeSpan("a.x", 15, 35, 1),            // 4
      MakeSpan("lone", 200, 210, kNoParent)  // 5
  };
  const std::vector<std::int64_t> self = SelfTimes(spans);
  EXPECT(self[0] == 100 - 50 - 10);
  EXPECT(self[1] == 30 - 20);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 20);
  EXPECT(self[5] == 10);
  // Nested children inside one another: the union, not the sum.
  std::vector<Span> nested = {MakeSpan("p", 0, 10, kNoParent),
                              MakeSpan("q", 2, 8, 0), MakeSpan("r", 3, 5, 0)};
  EXPECT(SelfTimes(nested)[0] == 4);
  const auto by_name = GroupByName(spans);
  EXPECT(by_name.at("root").self_ns.at(0) == 40.0);
  EXPECT(by_name.at("root").total_ns.at(0) == 100.0);

  // The recorder nests by open order and records nothing when disabled.
  SpanRecorder on(true);
  {
    ScopedSpan outer(&on, "outer", 7);
    ScopedSpan inner(&on, "inner", 7);
  }
  EXPECT(on.spans().size() == 2);
  EXPECT(on.spans()[1].parent == 0);
  EXPECT(on.spans()[0].request == 7);
  EXPECT(on.spans()[0].end_ns >= on.spans()[1].end_ns);
  SpanRecorder off(false);
  { ScopedSpan s(&off, "x", 1); }
  EXPECT(off.spans().empty());
}

void TestDeterminism() {
  auto fig7 = Must(pxml::GenerateBalancedTree(Fig7Config(11)));
  const std::string a = Fingerprint(Must(MakePipelineRequests(fig7, 11, 8)));
  const std::string b = Fingerprint(Must(MakePipelineRequests(fig7, 11, 8)));
  const std::string c = Fingerprint(Must(MakePipelineRequests(fig7, 12, 8)));
  EXPECT(a == b);
  EXPECT(a != c);
  auto fig7_other = Must(pxml::GenerateBalancedTree(Fig7Config(12)));
  EXPECT(fig7.ToString() != fig7_other.ToString());

  pxml::GeneratorConfig small = EngineConfig(5);
  small.depth = 4;
  auto inst = Must(pxml::GenerateBalancedTree(small));
  auto pool_a = Must(MakeQuestionPool(inst, 5));
  auto pool_b = Must(MakeQuestionPool(inst, 5));
  auto pool_c = Must(MakeQuestionPool(inst, 6));
  const std::string ea = Fingerprint(pool_a, MakeBatches(5, 20),
                                     MakeCommits(inst, 5, 6));
  const std::string eb = Fingerprint(pool_b, MakeBatches(5, 20),
                                     MakeCommits(inst, 5, 6));
  const std::string ec = Fingerprint(pool_c, MakeBatches(6, 20),
                                     MakeCommits(inst, 6, 6));
  EXPECT(ea == eb);
  EXPECT(ea != ec);
  EXPECT(Fingerprint(pool_a, MakeBatches(5, 20), {}) !=
         Fingerprint(pool_a, MakeBatches(6, 20), {}));
  // A fixed 3:1 mix, and a fixed per-slot kind in every batch.
  const auto reqs = Must(MakePipelineRequests(fig7, 3, 5));
  EXPECT(reqs.size() == 5 * kRequestsPerRound);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT((reqs[i].kind == PipelineRequest::Kind::kSelect) ==
           (i % kRequestsPerRound == kProjectsPerRound));
  }
  for (const Batch& batch : MakeBatches(9, 10)) {
    for (std::size_t s = 0; s < kBatchSize; ++s) {
      EXPECT(batch[s] / kPoolPerKind == s % kKinds);
    }
  }
  // Zipf(1) skew: the warm-up plus list repeats most questions.
  const double share = RepeatShare(MakeBatches(9, 16), MakeBatches(10, 400));
  EXPECT(share > 0.5 && share < 1.0);
}

void TestOracleGate() {
  // The gate passes on the library as it is.
  const Tally clean = OracleGate(3);
  EXPECT(clean.attempted > 20);
  EXPECT(clean.failed == 0);

  pxml::GeneratorConfig config;
  config.labeling = pxml::LabelingScheme::kFullyRandom;
  config.branching = 2;
  config.depth = 3;
  config.with_leaf_values = true;
  config.seed = 4;
  auto inst = Must(pxml::GenerateBalancedTree(config));
  pxml::Rng rng(4);
  auto path = Must(pxml::GenerateAcceptedPath(inst, rng));
  auto sel = Must(pxml::GenerateObjectSelection(inst, rng));

  // Projection: correct result passes, a perturbed root OPF fails.
  auto projected = Must(pxml::AncestorProject(inst, path));
  EXPECT(ProjectionMatchesWorlds(inst, path, projected));
  {
    const pxml::ObjectId root = projected.weak().root();
    auto rows = projected.GetOpf(root)->Entries();
    EXPECT(rows.size() >= 2);
    rows[0].prob += 1e-3;
    rows[1].prob -= 1e-3;
    auto bad = std::make_unique<pxml::ExplicitOpf>(
        pxml::ExplicitOpf::FromEntries(rows));
    EXPECT(projected.SetOpf(root, std::move(bad)).ok());
    EXPECT(!ProjectionMatchesWorlds(inst, path, projected));
  }
  // Selection: the input itself is not the conditioned distribution.
  auto selected = Must(pxml::Select(inst, sel));
  EXPECT(SelectionMatchesWorlds(inst, sel, selected));
  EXPECT(!SelectionMatchesWorlds(inst, sel, inst));
  // Query answers: exact passes, off by 1e-6 fails.
  const pxml::BatchQuery q = pxml::BatchQuery::Exists(path);
  const double exact = Must(pxml::ExistsQueryViaWorlds(inst, path));
  EXPECT(AnswerMatchesWorlds(inst, q, exact));
  EXPECT(!AnswerMatchesWorlds(inst, q, exact + 1e-6));
}

void TestAnswerGates() {
  pxml::GeneratorConfig small = EngineConfig(8);
  small.depth = 4;
  auto inst = Must(pxml::GenerateBalancedTree(small));
  auto pool = Must(MakeQuestionPool(inst, 8));
  const Batch batch = MakeBatches(8, 1)[0];
  std::vector<pxml::BatchQuery> queries;
  for (std::uint32_t i : batch) queries.push_back(pool.questions[i]);

  // Reference gate: the default engine against the plain reference.
  auto engine_answers = Must(ReferenceAnswers(inst, queries, false));
  auto reference = Must(ReferenceAnswers(inst, queries, true));
  std::vector<Answer> got;
  for (double p : engine_answers) got.push_back({true, p});
  EXPECT(CompareAnswers(got, reference).failed == 0);
  EXPECT(CompareAnswers(got, reference).attempted == kBatchSize + 1);
  std::vector<Answer> corrupt = got;
  corrupt[5].probability += 1e-9;
  EXPECT(CompareAnswers(corrupt, reference).failed == 1);
  corrupt = got;
  corrupt[0].ok = false;
  EXPECT(CompareAnswers(corrupt, reference).failed == 1);
  corrupt.pop_back();
  EXPECT(CompareAnswers(corrupt, reference).failed >= 1);

  // Replay gate: answers after two commits agree with a replay of both,
  // and a replay that misses a commit (or a corrupted answer) is caught.
  pxml::GeneratorConfig donor_config = small;
  donor_config.seed = 9;
  auto donor = Must(pxml::GenerateBalancedTree(donor_config));
  const std::vector<Commit> commits = MakeCommits(inst, 8, 2);
  pxml::QueryEngine engine(inst, pxml::BatchOptions{});
  for (const Commit& c : commits) {
    auto guard = engine.BeginMutations();
    for (pxml::ObjectId o : c.leaves) {
      EXPECT(guard.UpdateVpf(o, *donor.GetVpf(o)).ok());
    }
    for (pxml::ObjectId o : c.interiors) {
      EXPECT(guard.UpdateOpf(o, donor.GetOpf(o)->Clone()).ok());
    }
  }
  auto after = Must(engine.Run(queries));
  std::vector<Answer> mixed;
  for (const auto& a : after) mixed.push_back({a.status.ok(), a.probability});
  pxml::ProbabilisticInstance full = inst;
  pxml::ProbabilisticInstance partial = inst;
  EXPECT(ApplyCommit(full, donor, commits[0]).ok());
  EXPECT(ApplyCommit(full, donor, commits[1]).ok());
  EXPECT(ApplyCommit(partial, donor, commits[0]).ok());
  const auto want_full = Must(ReferenceAnswers(full, queries, false));
  const auto want_partial = Must(ReferenceAnswers(partial, queries, false));
  EXPECT(CompareAnswers(mixed, want_full).failed == 0);
  EXPECT(CompareAnswers(mixed, want_partial).failed > 0);
  mixed[31].probability = 1.0 - mixed[31].probability + 1e-6;
  EXPECT(CompareAnswers(mixed, want_full).failed == 1);
}

void TestOutputGate(const std::string& dir) {
  auto inst = Must(pxml::GenerateBalancedTree(Fig7Config(2)));
  pxml::Rng rng(2);
  auto path = Must(pxml::GenerateAcceptedPath(inst, rng));
  pxml::ProjectionStats stats;
  auto projected = Must(pxml::AncestorProject(inst, path, &stats));
  const std::string file = dir + "/selftest_output.pxml";
  EXPECT(pxml::WritePxmlFile(projected, file).ok());
  EXPECT(OutputMatches(file, stats.kept_objects));
  EXPECT(!OutputMatches(file, stats.kept_objects + 1));
  // A truncated document is caught too.
  std::filesystem::resize_file(file, std::filesystem::file_size(file) / 2);
  EXPECT(!OutputMatches(file, stats.kept_objects));
  std::filesystem::remove(file);
  EXPECT(!OutputMatches(file, stats.kept_objects));
}

}  // namespace
}  // namespace pxbench

int main(int argc, char** argv) {
  std::string dir = ".bench_build/out";
  if (argc == 3 && std::string(argv[1]) == "--out-dir") dir = argv[2];
  std::filesystem::create_directories(dir);
  pxbench::TestQuantiles();
  pxbench::TestSelfTime();
  pxbench::TestDeterminism();
  pxbench::TestOracleGate();
  pxbench::TestAnswerGates();
  pxbench::TestOutputGate(dir);
  if (pxbench::g_failures != 0) {
    std::fprintf(stderr, "pxbench_test: %d failure(s)\n", pxbench::g_failures);
    return 1;
  }
  std::printf("pxbench_test: all checks passed\n");
  return 0;
}
