#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/rng.h"
#include "util/strings.h"
#include "workload/query_generator.h"

namespace pxbench {

using pxml::BatchQuery;
using pxml::ObjectId;
using pxml::PathExpression;
using pxml::ProbabilisticInstance;
using pxml::Result;
using pxml::Rng;
using pxml::SelectionCondition;
using pxml::Status;

namespace {

/// Independent sub-streams of one run seed (splitmix64 finalizer).
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

enum StreamTag : std::uint64_t {
  kPipelineStream = 1,
  kPoolStream = 2,
  kBatchStream = 3,
  kCommitStream = 4,
};

/// Zipf(1) over ranks 0..n-1: P(k) ∝ 1 / (k + 1).
class Zipf {
 public:
  explicit Zipf(std::size_t n) : cdf_(n) {
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / static_cast<double>(k + 1);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::uint32_t Draw(Rng& rng) const {
    const double u = rng.NextDouble();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) --it;
    return static_cast<std::uint32_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

void AppendPath(std::string* out, const PathExpression& p) {
  *out += pxml::StrCat(p.start, ":");
  for (pxml::LabelId l : p.labels) *out += pxml::StrCat(l, ".");
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : {Workload::kFig7Pipeline, Workload::kEngineRead}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kFig7Pipeline:
      return "fig7_pipeline";
    case Workload::kEngineRead:
      return "engine_read";
  }
  return "?";
}

pxml::GeneratorConfig Fig7Config(std::uint64_t seed) {
  pxml::GeneratorConfig c;
  c.labeling = pxml::LabelingScheme::kFullyRandom;
  c.branching = 4;
  c.depth = 6;
  c.opf_style = pxml::OpfStyle::kExplicitTable;
  c.seed = seed;
  return c;
}

pxml::GeneratorConfig EngineConfig(std::uint64_t seed) {
  pxml::GeneratorConfig c;
  c.branching = 4;
  c.depth = 7;
  c.opf_style = pxml::OpfStyle::kPerLabelProduct;
  c.with_leaf_values = true;
  c.seed = seed;
  return c;
}

Result<std::vector<PipelineRequest>> MakePipelineRequests(
    const ProbabilisticInstance& instance, std::uint64_t seed,
    std::size_t rounds) {
  Rng rng(SubSeed(seed, kPipelineStream));
  std::vector<PipelineRequest> out;
  out.reserve(rounds * kRequestsPerRound);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < kProjectsPerRound; ++i) {
      PipelineRequest req;
      req.kind = PipelineRequest::Kind::kProject;
      PXML_ASSIGN_OR_RETURN(req.path, pxml::GenerateAcceptedPath(instance, rng));
      out.push_back(std::move(req));
    }
    PipelineRequest sel;
    sel.kind = PipelineRequest::Kind::kSelect;
    PXML_ASSIGN_OR_RETURN(sel.condition,
                          pxml::GenerateObjectSelection(instance, rng));
    out.push_back(std::move(sel));
  }
  return out;
}

Result<QuestionPool> MakeQuestionPool(const ProbabilisticInstance& instance,
                                      std::uint64_t seed) {
  Rng rng(SubSeed(seed, kPoolStream));
  QuestionPool pool;
  pool.questions.resize(kKinds * kPoolPerKind);
  for (std::size_t i = 0; i < kPoolPerKind; ++i) {
    // point: P(o ∈ p) for a leaf o reached by an accepted path.
    PXML_ASSIGN_OR_RETURN(SelectionCondition sel,
                          pxml::GenerateObjectSelection(instance, rng));
    pool.questions[0 * kPoolPerKind + i] =
        BatchQuery::Point(sel.path, sel.object);
    // exists: P(∃ o ∈ p).
    PXML_ASSIGN_OR_RETURN(PathExpression exists,
                          pxml::GenerateAcceptedPath(instance, rng));
    pool.questions[1 * kPoolPerKind + i] = BatchQuery::Exists(exists);
    // value-equals: P(∃ o ∈ p with val(o) = v) over the leaf domain.
    PXML_ASSIGN_OR_RETURN(PathExpression value_path,
                          pxml::GenerateAcceptedPath(instance, rng));
    pxml::Value v(pxml::StrCat("v", rng.NextBounded(2)));
    pool.questions[2 * kPoolPerKind + i] =
        BatchQuery::ValueEquals(value_path, v);
    // condition: some depth-6 object on p has exactly one child under the
    // path's last label (a cardinality condition, which streams OPF rows).
    PXML_ASSIGN_OR_RETURN(PathExpression full,
                          pxml::GenerateAcceptedPath(instance, rng));
    PathExpression parent = full;
    const pxml::LabelId last = parent.labels.back();
    parent.labels.pop_back();
    pool.questions[3 * kPoolPerKind + i] = BatchQuery::Condition(
        SelectionCondition::CardinalityIn(parent, last,
                                          pxml::IntInterval(1, 1)));
  }
  return pool;
}

std::vector<Batch> MakeBatches(std::uint64_t seed, std::size_t count) {
  Rng rng(SubSeed(seed, kBatchStream));
  const Zipf zipf(kPoolPerKind);
  std::vector<Batch> out(count);
  for (Batch& b : out) {
    for (std::size_t slot = 0; slot < kBatchSize; ++slot) {
      const std::size_t kind = slot % kKinds;
      b[slot] = static_cast<std::uint32_t>(kind * kPoolPerKind +
                                           zipf.Draw(rng));
    }
  }
  return out;
}

double RepeatShare(const std::vector<Batch>& warmup,
                   const std::vector<Batch>& timed) {
  std::unordered_set<std::uint32_t> seen;
  for (const Batch& b : warmup) seen.insert(b.begin(), b.end());
  std::size_t repeats = 0;
  std::size_t total = 0;
  for (const Batch& b : timed) {
    for (std::uint32_t q : b) {
      repeats += seen.insert(q).second ? 0 : 1;
      ++total;
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(repeats) / static_cast<double>(total);
}

std::vector<Commit> MakeCommits(const ProbabilisticInstance& instance,
                                std::uint64_t seed, std::size_t count) {
  const pxml::WeakInstance& weak = instance.weak();
  std::vector<ObjectId> leaves;
  std::vector<ObjectId> interiors;
  for (ObjectId o : weak.Objects()) {
    if (weak.IsLeaf(o)) {
      leaves.push_back(o);
    } else if (o != weak.root()) {
      interiors.push_back(o);
    }
  }
  Rng rng(SubSeed(seed, kCommitStream));
  std::vector<Commit> out(count);
  for (Commit& c : out) {
    for (ObjectId& o : c.leaves) o = leaves[rng.NextBounded(leaves.size())];
    for (ObjectId& o : c.interiors) {
      o = interiors[rng.NextBounded(interiors.size())];
    }
  }
  return out;
}

Status ApplyCommit(ProbabilisticInstance& instance,
                   const ProbabilisticInstance& donor, const Commit& commit) {
  for (ObjectId o : commit.leaves) {
    const pxml::Vpf* vpf = donor.GetVpf(o);
    if (vpf == nullptr) return Status::FailedPrecondition("donor has no VPF");
    PXML_RETURN_IF_ERROR(instance.SetVpf(o, *vpf));
  }
  for (ObjectId o : commit.interiors) {
    const pxml::Opf* opf = donor.GetOpf(o);
    if (opf == nullptr) return Status::FailedPrecondition("donor has no OPF");
    PXML_RETURN_IF_ERROR(instance.SetOpf(o, opf->Clone()));
  }
  return Status::Ok();
}

std::string Fingerprint(const std::vector<PipelineRequest>& requests) {
  std::string out;
  for (const PipelineRequest& r : requests) {
    if (r.kind == PipelineRequest::Kind::kProject) {
      out += "P";
      AppendPath(&out, r.path);
    } else {
      out += "S";
      AppendPath(&out, r.condition.path);
      out += pxml::StrCat("=", r.condition.object);
    }
    out += ";";
  }
  return out;
}

std::string Fingerprint(const QuestionPool& pool,
                        const std::vector<Batch>& batches,
                        const std::vector<Commit>& commits) {
  std::string out;
  for (const BatchQuery& q : pool.questions) {
    out += pxml::StrCat(static_cast<int>(q.kind), "/");
    AppendPath(&out, q.kind == BatchQuery::Kind::kCondition ? q.condition.path
                                                            : q.path);
    out += pxml::StrCat("/", q.object, "/", q.value.ToString(), ";");
  }
  for (const Batch& b : batches) {
    for (std::uint32_t i : b) out += pxml::StrCat(i, ",");
  }
  for (const Commit& c : commits) {
    out += pxml::StrCat(c.leaves[0], ",", c.leaves[1], ",", c.interiors[0],
                    ",", c.interiors[1], ";");
  }
  return out;
}

}  // namespace pxbench
