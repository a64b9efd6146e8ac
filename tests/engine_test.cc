// QueryEngine facade tests: ε-memo cache correctness (cached answers are
// bit-identical to uncached ones and to the possible-worlds oracle across
// randomized mutate/query interleavings), precise invalidation (a local
// update recomputes only the dirty spine — asserted on the operation
// counter, not wall clock), the mutation API (UpdateOpf / UpdateVpf /
// ReplaceSubtree, kStale on racing queries), and the LRU bound. The whole
// binary is expected to be clean under TSAN (-DPXML_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "query/engine.h"
#include "query/epsilon.h"
#include "query/point_queries.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/query_generator.h"

namespace pxml {
namespace {

PathExpression MakePath(const Dictionary& dict, ObjectId start,
                        std::initializer_list<const char*> labels) {
  PathExpression p;
  p.start = start;
  for (const char* l : labels) p.labels.push_back(*dict.FindLabel(l));
  return p;
}

/// A uniform balanced tree: every edge labeled "c", every non-leaf an
/// IndependentOpf with seeded per-child probabilities, every leaf typed
/// over {v0, v1} with a seeded VPF. Construction order is a function of
/// (depth, branching) only, so two trees of the same shape assign the
/// same names *and the same ObjectIds* — which the ReplaceSubtree tests
/// exploit.
ProbabilisticInstance MakeUniformTree(std::uint32_t depth,
                                      std::uint32_t branching,
                                      std::uint64_t seed) {
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.weak();
  const LabelId c = weak.dict().InternLabel("c");
  auto type = weak.dict().DefineType("t", {Value("v0"), Value("v1")});
  EXPECT_TRUE(type.ok());
  Rng rng(seed);

  struct Node {
    ObjectId id;
    std::uint32_t level;
  };
  ObjectId next_name = 0;
  auto add_object = [&](void) {
    return weak.AddObject("n" + std::to_string(next_name++));
  };
  const ObjectId root = add_object();
  EXPECT_TRUE(weak.SetRoot(root).ok());
  std::vector<Node> queue{{root, 0}};
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const Node n = queue[i];
    if (n.level == depth) {
      const double p = 0.1 + 0.8 * rng.NextDouble();
      Vpf vpf;
      vpf.Set(Value("v0"), p);
      vpf.Set(Value("v1"), 1.0 - p);
      EXPECT_TRUE(weak.SetLeafType(n.id, *type).ok());
      EXPECT_TRUE(inst.SetVpf(n.id, std::move(vpf)).ok());
      continue;
    }
    auto opf = std::make_unique<IndependentOpf>();
    for (std::uint32_t b = 0; b < branching; ++b) {
      const ObjectId child = add_object();
      EXPECT_TRUE(weak.AddPotentialChild(n.id, c, child).ok());
      EXPECT_TRUE(
          opf->AddChild(child, 0.3 + 0.6 * rng.NextDouble()).ok());
      queue.push_back({child, n.level + 1});
    }
    EXPECT_TRUE(inst.SetOpf(n.id, std::move(opf)).ok());
  }
  return inst;
}

/// A fresh random IndependentOpf over o's existing potential children.
std::unique_ptr<Opf> RandomOpfFor(const ProbabilisticInstance& inst,
                                  ObjectId o, Rng& rng) {
  auto opf = std::make_unique<IndependentOpf>();
  for (ObjectId child : inst.weak().AllPotentialChildren(o)) {
    EXPECT_TRUE(opf->AddChild(child, 0.05 + 0.9 * rng.NextDouble()).ok());
  }
  return opf;
}

Vpf RandomVpf(Rng& rng) {
  const double p = 0.05 + 0.9 * rng.NextDouble();
  Vpf vpf;
  vpf.Set(Value("v0"), p);
  vpf.Set(Value("v1"), 1.0 - p);
  return vpf;
}

/// The full-depth path root.c.c...c of a uniform tree.
PathExpression FullDepthPath(const ProbabilisticInstance& inst,
                             std::uint32_t depth) {
  PathExpression p;
  p.start = inst.weak().root();
  const LabelId c = *inst.weak().dict().FindLabel("c");
  p.labels.assign(depth, c);
  return p;
}

void ExpectBitEqual(double a, double b, const char* what) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
      << what << ": " << a << " != " << b;
}

/// Stateless reference configuration (what the retired BatchQueryEngine
/// wrapper forced): no Îµ-memo cache, no frozen kernels â bit-exact
/// generic evaluation on every run.
BatchOptions Uncached(BatchOptions options) {
  options.cache = false;
  options.frozen = false;
  return options;
}

/// The RunOne spelling of the deprecated ExistsProbability convenience.
Result<double> ExistsP(const QueryEngine& engine, const PathExpression& path,
                       RunOptions options = {}) {
  QueryRequest request;
  request.require_latest = options.require_latest;
  BatchAnswer answer = engine.RunOne(BatchQuery::Exists(path), request);
  if (!answer.status.ok()) return answer.status;
  return answer.probability;
}

// ---------------------------------------------------------------------------
// Cached vs uncached differential

TEST(QueryEngineTest, CachedAnswersBitIdenticalToUncachedAcrossThreads) {
  GeneratorConfig config;
  config.depth = 5;
  config.branching = 3;
  config.labeling = LabelingScheme::kSameLabels;
  config.seed = 20260806;
  config.with_leaf_values = true;
  auto generated = GenerateBalancedTree(config);
  ASSERT_TRUE(generated.ok()) << generated.status();
  const ProbabilisticInstance inst = *generated;

  std::vector<BatchQuery> queries;
  Rng rng(0xE1);
  while (queries.size() < 200) {
    auto cond = GenerateObjectSelection(inst, rng);
    ASSERT_TRUE(cond.ok());
    switch (queries.size() % 3) {
      case 0:
        queries.push_back(BatchQuery::Point(cond->path, cond->object));
        break;
      case 1:
        queries.push_back(BatchQuery::Exists(cond->path));
        break;
      case 2:
        queries.push_back(BatchQuery::ValueEquals(
            cond->path, Value(queries.size() % 2 == 0 ? "v0" : "v1")));
        break;
    }
  }

  BatchOptions uncached_opts;
  uncached_opts.threads = 1;
  QueryEngine uncached(&inst, Uncached(uncached_opts));
  auto expected = uncached.Run(queries);
  ASSERT_TRUE(expected.ok()) << expected.status();

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    BatchOptions opts;
    opts.threads = threads;
    opts.min_parallel_width = 1;
    opts.cache = true;
    QueryEngine engine(inst, opts);  // owning copy, cache on
    // Run the batch twice: cold pass fills the cache, warm pass is
    // served from it. Both must match the uncached serial answers.
    for (int pass = 0; pass < 2; ++pass) {
      BatchStats stats;
      auto answers = engine.Run(queries, &stats);
      ASSERT_TRUE(answers.ok()) << answers.status();
      ASSERT_EQ(answers->size(), expected->size());
      for (std::size_t i = 0; i < answers->size(); ++i) {
        ASSERT_TRUE((*answers)[i].status.ok()) << (*answers)[i].status;
        ExpectBitEqual((*answers)[i].probability, (*expected)[i].probability,
                       "query probability");
      }
      EXPECT_GT(stats.cache_lookups, 0u);
      if (pass == 1) {
        EXPECT_GT(stats.cache_hits, 0u);
      }
    }
  }
}

TEST(QueryEngineTest, RepeatBatchServedEntirelyFromCache) {
  const ProbabilisticInstance inst = MakeUniformTree(4, 3, 0xAB);
  QueryEngine engine(inst, BatchOptions{.threads = 1, .cache = true});
  const PathExpression path = FullDepthPath(inst, 4);
  const std::vector<BatchQuery> queries = {
      BatchQuery::Exists(path), BatchQuery::ValueEquals(path, Value("v0"))};

  BatchStats cold;
  ASSERT_TRUE(engine.Run(queries, &cold).ok());
  EXPECT_GT(cold.epsilon_recomputed, 0u);
  EXPECT_EQ(cold.cache_hits, 0u);

  BatchStats warm;
  ASSERT_TRUE(engine.Run(queries, &warm).ok());
  // Identical batch, unchanged instance: every per-object ε is memoized.
  EXPECT_EQ(warm.epsilon_recomputed, 0u);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(warm.cache_hits, warm.cache_lookups);
  EXPECT_EQ(warm.cache_hits, cold.cache_lookups);
}

// ---------------------------------------------------------------------------
// Precise invalidation (asserted on the ε-recompute counter)

TEST(QueryEngineTest, LocalUpdateRecomputesOnlyDirtySpine) {
  // The paper's balanced-tree workload shape: depth 6, branching 3 —
  // 364 internal objects on the full-depth path.
  const std::uint32_t depth = 6;
  const ProbabilisticInstance inst = MakeUniformTree(depth, 3, 0x7EE);
  QueryEngine engine(inst, BatchOptions{.threads = 1, .cache = true});
  const std::vector<BatchQuery> queries = {
      BatchQuery::Exists(FullDepthPath(inst, depth))};

  BatchStats cold;
  ASSERT_TRUE(engine.Run(queries, &cold).ok());
  ASSERT_GT(cold.epsilon_recomputed, 100u);

  // One local OPF update at a leaf-parent (deepest internal level): the
  // last internal object added is one.
  ObjectId leaf_parent = kInvalidId;
  for (ObjectId o : inst.weak().Objects()) {
    if (!inst.weak().IsLeaf(o) &&
        (leaf_parent == kInvalidId || o > leaf_parent)) {
      leaf_parent = o;
    }
  }
  ASSERT_NE(leaf_parent, kInvalidId);
  Rng rng(0xD1);
  ASSERT_TRUE(
      engine.UpdateOpf(leaf_parent, RandomOpfFor(engine.instance(),
                                                 leaf_parent, rng))
          .ok());

  BatchStats warm;
  auto warm_answers = engine.Run(queries, &warm);
  ASSERT_TRUE(warm_answers.ok());
  // Only the updated object's ancestor spine recomputes: O(depth), and
  // >= 10x fewer ε evaluations than the cold pass (the acceptance bar).
  EXPECT_GE(warm.epsilon_recomputed, 1u);
  EXPECT_LE(warm.epsilon_recomputed, depth);
  EXPECT_GE(cold.epsilon_recomputed, 10 * warm.epsilon_recomputed);
  EXPECT_GT(warm.cache_invalidated, 0u);

  // And the cached warm answer equals a from-scratch uncached pass over
  // the mutated instance, bit for bit.
  QueryEngine uncached(&engine.instance(),
                       Uncached(BatchOptions{.threads = 1}));
  auto fresh = uncached.Run(queries);
  ASSERT_TRUE(fresh.ok());
  ExpectBitEqual((*warm_answers)[0].probability, (*fresh)[0].probability,
                 "post-update exists probability");
}

TEST(QueryEngineTest, UpdateAtRootInvalidatesOnlyRootEntry) {
  const ProbabilisticInstance inst = MakeUniformTree(5, 3, 0x300);
  QueryEngine engine(inst, BatchOptions{.threads = 1, .cache = true});
  const std::vector<BatchQuery> queries = {
      BatchQuery::Exists(FullDepthPath(inst, 5))};
  BatchStats cold;
  ASSERT_TRUE(engine.Run(queries, &cold).ok());

  // The root has no ancestors, so a root update dirties exactly one
  // subtree-change stamp — its own.
  Rng rng(0xD2);
  const ObjectId root = engine.instance().weak().root();
  ASSERT_TRUE(
      engine.UpdateOpf(root, RandomOpfFor(engine.instance(), root, rng)).ok());

  BatchStats warm;
  auto answers = engine.Run(queries, &warm);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(warm.epsilon_recomputed, 1u);

  QueryEngine uncached(&engine.instance(),
                       Uncached(BatchOptions{.threads = 1}));
  auto fresh = uncached.Run(queries);
  ASSERT_TRUE(fresh.ok());
  ExpectBitEqual((*answers)[0].probability, (*fresh)[0].probability,
                 "post-root-update probability");
}

TEST(QueryEngineTest, LeafVpfUpdateRecomputesOnlyLeafSpine) {
  const std::uint32_t depth = 5;
  const ProbabilisticInstance inst = MakeUniformTree(depth, 3, 0x301);
  QueryEngine engine(inst, BatchOptions{.threads = 1, .cache = true});
  const PathExpression path = FullDepthPath(inst, depth);
  const std::vector<BatchQuery> queries = {
      BatchQuery::ValueEquals(path, Value("v0"))};
  BatchStats cold;
  ASSERT_TRUE(engine.Run(queries, &cold).ok());

  // Update one leaf's VPF: its survival ε changes, so exactly its
  // ancestor spine must recompute (the leaf itself carries no ε entry).
  ObjectId leaf = kInvalidId;
  for (ObjectId o : inst.weak().Objects()) {
    if (inst.weak().IsLeaf(o)) leaf = o;
  }
  ASSERT_NE(leaf, kInvalidId);
  Rng rng(0xD3);
  ASSERT_TRUE(engine.UpdateVpf(leaf, RandomVpf(rng)).ok());

  BatchStats warm;
  auto answers = engine.Run(queries, &warm);
  ASSERT_TRUE(answers.ok());
  EXPECT_GE(warm.epsilon_recomputed, 1u);
  EXPECT_LE(warm.epsilon_recomputed, depth);
  EXPECT_GE(cold.epsilon_recomputed, 10 * warm.epsilon_recomputed);

  QueryEngine uncached(&engine.instance(),
                       Uncached(BatchOptions{.threads = 1}));
  auto fresh = uncached.Run(queries);
  ASSERT_TRUE(fresh.ok());
  ExpectBitEqual((*answers)[0].probability, (*fresh)[0].probability,
                 "post-VPF-update probability");
}

TEST(QueryEngineTest, UpdateOutsideQueriedPathRecomputesOnlyRoot) {
  // Two sibling subtrees under the root, reached by different labels;
  // the query descends into A, the update lands in B. Only the root —
  // the single shared ancestor — recomputes.
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.weak();
  const LabelId a = weak.dict().InternLabel("a");
  const LabelId b = weak.dict().InternLabel("b");
  const ObjectId root = weak.AddObject("root");
  ASSERT_TRUE(weak.SetRoot(root).ok());
  const ObjectId a1 = weak.AddObject("a1");
  const ObjectId a2 = weak.AddObject("a2");
  const ObjectId b1 = weak.AddObject("b1");
  const ObjectId b2 = weak.AddObject("b2");
  ASSERT_TRUE(weak.AddPotentialChild(root, a, a1).ok());
  ASSERT_TRUE(weak.AddPotentialChild(root, b, b1).ok());
  ASSERT_TRUE(weak.AddPotentialChild(a1, a, a2).ok());
  ASSERT_TRUE(weak.AddPotentialChild(b1, b, b2).ok());
  auto root_opf = std::make_unique<IndependentOpf>();
  ASSERT_TRUE(root_opf->AddChild(a1, 0.7).ok());
  ASSERT_TRUE(root_opf->AddChild(b1, 0.6).ok());
  ASSERT_TRUE(inst.SetOpf(root, std::move(root_opf)).ok());
  auto a1_opf = std::make_unique<IndependentOpf>();
  ASSERT_TRUE(a1_opf->AddChild(a2, 0.5).ok());
  ASSERT_TRUE(inst.SetOpf(a1, std::move(a1_opf)).ok());
  auto b1_opf = std::make_unique<IndependentOpf>();
  ASSERT_TRUE(b1_opf->AddChild(b2, 0.4).ok());
  ASSERT_TRUE(inst.SetOpf(b1, std::move(b1_opf)).ok());

  QueryEngine engine(inst, BatchOptions{.threads = 1, .cache = true});
  const std::vector<BatchQuery> queries = {
      BatchQuery::Exists(MakePath(engine.instance().dict(), root, {"a", "a"}))};
  BatchStats cold;
  ASSERT_TRUE(engine.Run(queries, &cold).ok());
  EXPECT_EQ(cold.epsilon_recomputed, 2u);  // root and a1

  // Mutate b1 (outside the queried path). Its spine is {b1, root}: only
  // the root's memo entry intersects the query, so exactly one ε
  // evaluation reruns — and the answer is unchanged (B is pruned away).
  auto before = ExistsP(engine, queries[0].path);
  ASSERT_TRUE(before.ok());
  auto new_opf = std::make_unique<IndependentOpf>();
  ASSERT_TRUE(new_opf->AddChild(b2, 0.9).ok());
  ASSERT_TRUE(engine.UpdateOpf(b1, std::move(new_opf)).ok());

  BatchStats warm;
  auto answers = engine.Run(queries, &warm);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(warm.epsilon_recomputed, 1u);
  ExpectBitEqual((*answers)[0].probability, *before,
                 "update outside the queried path must not change the answer");
}

// ---------------------------------------------------------------------------
// Randomized mutate/query interleavings, cache vs no-cache vs oracle

TEST(QueryEngineTest, RandomizedInterleavingsMatchUncachedAndWorldsOracle) {
  // Small enough to enumerate worlds, deep enough to exercise the cache.
  const std::uint32_t depth = 2;
  const std::uint32_t branching = 2;
  constexpr int kRounds = 12;

  // One deterministic interleaving, replayed at every thread count; each
  // round mutates (OPF or VPF) and then answers point/exists/value
  // queries through the facade.
  auto run_interleaving = [&](std::size_t threads,
                              std::vector<double>& answers) {
    const ProbabilisticInstance inst =
        MakeUniformTree(depth, branching, 0x5EED);
    BatchOptions opts;
    opts.threads = threads;
    opts.min_parallel_width = 1;
    opts.cache = true;
    QueryEngine engine(inst, opts);
    Rng mrng(0xA0);  // mutation stream
    Rng qrng(0xB0);  // query stream

    for (int round = 0; round < kRounds; ++round) {
      // Mutate: a random object's ℘ (OPF for non-leaves, VPF for leaves).
      const std::vector<ObjectId> objects = engine.instance().weak().Objects();
      const ObjectId victim =
          objects[mrng.NextBounded(objects.size())];
      if (engine.instance().weak().IsLeaf(victim)) {
        ASSERT_TRUE(engine.UpdateVpf(victim, RandomVpf(mrng)).ok());
      } else {
        ASSERT_TRUE(
            engine
                .UpdateOpf(victim,
                           RandomOpfFor(engine.instance(), victim, mrng))
                .ok());
      }

      // Query through the facade (batch + single-query entry points).
      auto cond = GenerateObjectSelection(engine.instance(), qrng);
      ASSERT_TRUE(cond.ok());
      const Value v(round % 2 == 0 ? "v0" : "v1");
      auto batch = engine.Run({BatchQuery::Point(cond->path, cond->object),
                               BatchQuery::Exists(cond->path),
                               BatchQuery::ValueEquals(cond->path, v)});
      ASSERT_TRUE(batch.ok());
      for (const BatchAnswer& ans : *batch) {
        ASSERT_TRUE(ans.status.ok()) << ans.status;
        answers.push_back(ans.probability);
      }
      auto single = ExistsP(engine, cond->path);
      ASSERT_TRUE(single.ok());
      answers.push_back(*single);

      // Differential: the cached facade vs an uncached engine vs the
      // possible-worlds oracle, on the current (mutated) instance.
      QueryEngine uncached(&engine.instance(),
                           Uncached(BatchOptions{.threads = 1}));
      auto fresh = uncached.Run({BatchQuery::Point(cond->path, cond->object),
                                 BatchQuery::Exists(cond->path),
                                 BatchQuery::ValueEquals(cond->path, v)});
      ASSERT_TRUE(fresh.ok());
      for (std::size_t i = 0; i < fresh->size(); ++i) {
        ExpectBitEqual((*batch)[i].probability, (*fresh)[i].probability,
                       "cached vs uncached");
      }
      if (threads == 1) {
        auto oracle_point = PointQueryViaWorlds(engine.instance(), cond->path,
                                                cond->object);
        ASSERT_TRUE(oracle_point.ok()) << oracle_point.status();
        EXPECT_NEAR((*batch)[0].probability, *oracle_point, 1e-9);
        auto oracle_exists =
            ExistsQueryViaWorlds(engine.instance(), cond->path);
        ASSERT_TRUE(oracle_exists.ok());
        EXPECT_NEAR((*batch)[1].probability, *oracle_exists, 1e-9);
        auto oracle_value =
            ValueQueryViaWorlds(engine.instance(), cond->path, v);
        ASSERT_TRUE(oracle_value.ok());
        EXPECT_NEAR((*batch)[2].probability, *oracle_value, 1e-9);
      }
    }
  };

  std::vector<double> serial;
  run_interleaving(1, serial);
  for (std::size_t threads : {2u, 4u, 8u}) {
    std::vector<double> parallel;
    run_interleaving(threads, parallel);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ExpectBitEqual(parallel[i], serial[i], "threaded vs serial answer");
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot isolation and require_latest

TEST(QueryEngineTest, QueriesDuringMutationScopeReadTheCommittedEpoch) {
  const ProbabilisticInstance inst = MakeUniformTree(3, 2, 0x11);
  QueryEngine engine(inst, BatchOptions{.threads = 2});
  const PathExpression path = FullDepthPath(inst, 3);

  auto before = ExistsP(engine, path);
  ASSERT_TRUE(before.ok()) << before.status();

  {
    QueryEngine::MutationGuard guard = engine.BeginMutations();
    // Mutate first so the working copy definitely diverges from the
    // committed epoch the readers are about to pin.
    Rng rng(0xD4);
    const ObjectId root = inst.weak().root();
    ASSERT_TRUE(guard.UpdateOpf(root, RandomOpfFor(inst, root, rng)).ok());

    // Snapshot isolation: the open guard does not block readers, and the
    // answer is bit-identical to the pre-mutation serial answer.
    auto batch = engine.Run({BatchQuery::Exists(path)});
    ASSERT_TRUE(batch.ok());
    ASSERT_TRUE((*batch)[0].status.ok()) << (*batch)[0].status;
    ExpectBitEqual((*batch)[0].probability, *before, "during-guard batch");
    EXPECT_EQ((*batch)[0].profile.epoch, 1u);
    auto single = ExistsP(engine, path);
    ASSERT_TRUE(single.ok()) << single.status();
    ExpectBitEqual(*single, *before, "during-guard convenience");

    // require_latest restores the fail-fast contract for readers that
    // must not serve a superseded snapshot.
    RunOptions latest;
    latest.require_latest = true;
    auto strict_batch =
        engine.Run({BatchQuery::Exists(path)}, nullptr, nullptr, latest);
    ASSERT_TRUE(strict_batch.ok());
    EXPECT_EQ((*strict_batch)[0].status.code(), StatusCode::kStale);
    auto strict = ExistsP(engine, path, latest);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::kStale);
  }

  // Guard committed: the next reader pins the new epoch.
  auto after = engine.Run({BatchQuery::Exists(path)});
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE((*after)[0].status.ok()) << (*after)[0].status;
  EXPECT_EQ((*after)[0].profile.epoch, 2u);
  RunOptions latest;
  latest.require_latest = true;
  auto strict_after = ExistsP(engine, path, latest);
  ASSERT_TRUE(strict_after.ok()) << strict_after.status();
}

TEST(QueryEngineTest, ConcurrentMutateAndQueryHammer) {
  // TSAN coverage: one writer thread mutating through the facade while
  // the main thread runs batches. Every answer must be OK or kStale,
  // and the engine must end in a consistent, queryable state.
  const ProbabilisticInstance inst = MakeUniformTree(4, 3, 0x99);
  BatchOptions opts;
  opts.threads = 4;
  opts.min_parallel_width = 1;
  opts.cache = true;
  QueryEngine engine(inst, opts);
  const PathExpression path = FullDepthPath(inst, 4);
  const std::vector<BatchQuery> queries = {
      BatchQuery::Exists(path), BatchQuery::ValueEquals(path, Value("v1"))};

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng rng(0xF00);
    const std::vector<ObjectId> objects = engine.instance().weak().Objects();
    for (int i = 0; i < 200; ++i) {
      const ObjectId victim = objects[rng.NextBounded(objects.size())];
      Status s = engine.instance().weak().IsLeaf(victim)
                     ? engine.UpdateVpf(victim, RandomVpf(rng))
                     : engine.UpdateOpf(
                           victim,
                           RandomOpfFor(engine.instance(), victim, rng));
      EXPECT_TRUE(s.ok()) << s;
    }
    done.store(true, std::memory_order_release);
  });

  std::size_t ok_answers = 0;
  std::size_t stale_answers = 0;
  // do/while: at least one batch runs even if the writer wins the race
  // outright (sanitizer runs skew startup timing heavily).
  do {
    auto batch = engine.Run(queries);
    ASSERT_TRUE(batch.ok());
    for (const BatchAnswer& ans : *batch) {
      if (ans.status.ok()) {
        ++ok_answers;
      } else {
        ASSERT_EQ(ans.status.code(), StatusCode::kStale) << ans.status;
        ++stale_answers;
      }
    }
  } while (!done.load(std::memory_order_acquire));
  writer.join();
  (void)stale_answers;  // racing is timing-dependent; OKs are guaranteed

  // Post-race differential: the cache must have survived 200 updates.
  auto cached = engine.Run(queries);
  ASSERT_TRUE(cached.ok());
  QueryEngine uncached(&engine.instance(),
                       Uncached(BatchOptions{.threads = 1}));
  auto fresh = uncached.Run(queries);
  ASSERT_TRUE(fresh.ok());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE((*cached)[i].status.ok());
    ExpectBitEqual((*cached)[i].probability, (*fresh)[i].probability,
                   "post-hammer differential");
  }
  EXPECT_GT(ok_answers + stale_answers, 0u);
}

// ---------------------------------------------------------------------------
// Mutation API errors and the error-code taxonomy

TEST(QueryEngineTest, MutationErrorsUseTheTaxonomy) {
  const ProbabilisticInstance inst = MakeUniformTree(2, 2, 0x42);
  QueryEngine owning(inst, BatchOptions{.threads = 1});
  Rng rng(0xD5);

  // Unknown object.
  Status unknown = owning.UpdateOpf(
      0xFFFFFF0u, RandomOpfFor(owning.instance(), inst.weak().root(), rng));
  EXPECT_EQ(unknown.code(), StatusCode::kUnknownObject);
  EXPECT_EQ(owning.UpdateVpf(0xFFFFFF0u, RandomVpf(rng)).code(),
            StatusCode::kUnknownObject);

  // Borrowing engines are query-only.
  QueryEngine borrowing(&inst, BatchOptions{.threads = 1});
  EXPECT_EQ(borrowing
                .UpdateOpf(inst.weak().root(),
                           RandomOpfFor(inst, inst.weak().root(), rng))
                .code(),
            StatusCode::kFailedPrecondition);

  // A DAG-shaped instance (x has two potential parents) is rejected as
  // kNotATree by the ε path.
  ProbabilisticInstance dag;
  {
    WeakInstance& w = dag.weak();
    const LabelId la = w.dict().InternLabel("a");
    const LabelId lb = w.dict().InternLabel("b");
    const ObjectId r = w.AddObject("r");
    const ObjectId x = w.AddObject("x");
    const ObjectId y = w.AddObject("y");
    ASSERT_TRUE(w.SetRoot(r).ok());
    ASSERT_TRUE(w.AddPotentialChild(r, la, x).ok());
    ASSERT_TRUE(w.AddPotentialChild(r, la, y).ok());
    ASSERT_TRUE(w.AddPotentialChild(y, lb, x).ok());
    auto r_opf = std::make_unique<IndependentOpf>();
    ASSERT_TRUE(r_opf->AddChild(x, 0.5).ok());
    ASSERT_TRUE(r_opf->AddChild(y, 0.5).ok());
    ASSERT_TRUE(dag.SetOpf(r, std::move(r_opf)).ok());
    auto y_opf = std::make_unique<IndependentOpf>();
    ASSERT_TRUE(y_opf->AddChild(x, 0.5).ok());
    ASSERT_TRUE(dag.SetOpf(y, std::move(y_opf)).ok());
  }
  QueryEngine dag_engine(dag, BatchOptions{.threads = 1});
  PathExpression dag_path;
  dag_path.start = dag.weak().root();
  dag_path.labels.push_back(*dag.dict().FindLabel("a"));
  auto rejected = ExistsP(dag_engine, dag_path);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kNotATree);

  // A target outside the path's final layer is kBadPath.
  EpsilonPropagator prop(inst);
  const TargetEps off_path{inst.weak().root(), 1.0};
  auto bad = prop.RootEpsilon(FullDepthPath(inst, 2),
                              std::span<const TargetEps>(&off_path, 1));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kBadPath);
}

// ---------------------------------------------------------------------------
// ReplaceSubtree

TEST(QueryEngineTest, ReplaceSubtreeGraftsDonorInterpretation) {
  // Same shape, same names (and, by construction order, the same ids),
  // different seeded ℘.
  const std::uint32_t depth = 3;
  const ProbabilisticInstance original = MakeUniformTree(depth, 2, 0xAA);
  const ProbabilisticInstance donor = MakeUniformTree(depth, 2, 0xBB);

  // Graft the donor's ℘ under the root's first child.
  const ObjectId at =
      *original.weak().dict().FindObject("n1");  // first child of n0
  QueryEngine engine(original, BatchOptions{.threads = 1, .cache = true});
  const PathExpression path = FullDepthPath(original, depth);
  ASSERT_TRUE(engine.Run({BatchQuery::Exists(path)}).ok());  // warm the cache
  ASSERT_TRUE(engine.ReplaceSubtree(at, donor, at).ok());

  // Expected: original, with every subtree object's OPF/VPF replaced by
  // the donor's (ids coincide across the two trees).
  ProbabilisticInstance expected = original;
  std::vector<ObjectId> stack{at};
  while (!stack.empty()) {
    const ObjectId o = stack.back();
    stack.pop_back();
    if (const Opf* opf = donor.GetOpf(o)) {
      ASSERT_TRUE(expected.SetOpf(o, opf->Clone()).ok());
    }
    if (const Vpf* vpf = donor.GetVpf(o)) {
      ASSERT_TRUE(expected.SetVpf(o, *vpf).ok());
    }
    for (ObjectId child : expected.weak().AllPotentialChildren(o)) {
      stack.push_back(child);
    }
  }

  BatchStats stats;
  auto grafted = engine.Run({BatchQuery::Exists(path),
                             BatchQuery::ValueEquals(path, Value("v0"))},
                            &stats);
  ASSERT_TRUE(grafted.ok());
  QueryEngine uncached(&expected, Uncached(BatchOptions{.threads = 1}));
  auto fresh = uncached.Run({BatchQuery::Exists(path),
                             BatchQuery::ValueEquals(path, Value("v0"))});
  ASSERT_TRUE(fresh.ok());
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE((*grafted)[i].status.ok()) << (*grafted)[i].status;
    ExpectBitEqual((*grafted)[i].probability, (*fresh)[i].probability,
                   "grafted vs rebuilt");
  }
  // The graft is a ℘-only change: no structure flush, and the sibling
  // subtree's memo entries survive (some hits on the re-query).
  EXPECT_EQ(engine.cache_stats().flushes, 0u);
  EXPECT_GT(stats.cache_hits, 0u);
}

TEST(QueryEngineTest, ReplaceSubtreeRejectsMismatchesAndUnknownRoots) {
  const ProbabilisticInstance inst = MakeUniformTree(3, 2, 0xAA);
  const ProbabilisticInstance donor = MakeUniformTree(2, 2, 0xBB);
  QueryEngine engine(inst, BatchOptions{.threads = 1});

  EXPECT_EQ(engine.ReplaceSubtree(0xFFFFFF0u, donor, donor.weak().root())
                .code(),
            StatusCode::kUnknownObject);
  EXPECT_EQ(
      engine.ReplaceSubtree(inst.weak().root(), donor, 0xFFFFFF0u).code(),
      StatusCode::kUnknownObject);
  // Shape mismatch: a depth-2 donor tree under a depth-3 subtree (the
  // donor's level-2 objects are leaves, the target's are not).
  EXPECT_EQ(engine
                .ReplaceSubtree(inst.weak().root(), donor,
                                donor.weak().root())
                .code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// LRU bound

TEST(QueryEngineTest, CacheRespectsLruBound) {
  const ProbabilisticInstance inst = MakeUniformTree(4, 3, 0xCC);
  BatchOptions opts;
  opts.threads = 1;
  opts.cache = true;
  // A byte budget of exactly four entry footprints admits four entries.
  opts.cache_bytes = 4 * EpsilonMemoCache::kBytesPerEntry;
  QueryEngine engine(inst, opts);
  BatchStats stats;
  ASSERT_TRUE(
      engine.Run({BatchQuery::Exists(FullDepthPath(inst, 4))}, &stats).ok());
  EXPECT_LE(engine.cache_size(), 4u);
  EXPECT_GT(stats.cache_evictions, 0u);
  // A budget below one entry's footprint is clamped to one entry, never
  // unbounded.
  BatchOptions tiny;
  tiny.threads = 1;
  tiny.cache = true;
  tiny.cache_bytes = 0;
  QueryEngine clamped(inst, tiny);
  ASSERT_TRUE(clamped.Run({BatchQuery::Exists(FullDepthPath(inst, 4))}).ok());
  EXPECT_LE(clamped.cache_size(), 1u);
}

}  // namespace
}  // namespace pxml
