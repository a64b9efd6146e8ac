#include "core/probabilistic_instance.h"

#include <sstream>

#include "util/strings.h"

namespace pxml {

ProbabilisticInstance::ProbabilisticInstance(
    const ProbabilisticInstance& other)
    : weak_(other.weak_),
      // ℘ entries are immutable once installed, so the copy aliases them
      // (copy-on-write: SetOpf/SetVpf replace the pointer, never the
      // pointee). Only the pointer arrays and the weak structure copy.
      opfs_(other.opfs_),
      vpfs_(other.vpfs_),
      version_(other.version_),
      structure_version_(other.structure_version_),
      subtree_change_(other.subtree_change_) {}

ProbabilisticInstance& ProbabilisticInstance::operator=(
    const ProbabilisticInstance& other) {
  if (this == &other) return *this;
  ProbabilisticInstance copy(other);
  *this = std::move(copy);
  return *this;
}

void ProbabilisticInstance::EnsureSize(ObjectId o) {
  if (o >= opfs_.size()) opfs_.resize(o + 1);
  if (o >= vpfs_.size()) vpfs_.resize(o + 1);
}

void ProbabilisticInstance::NoteLocalChange(ObjectId o) {
  ++version_;
  // Stamp o and every potential ancestor with the new version. While each
  // object has at most one potential parent (always, on a tree) this is
  // one root-ward walk that allocates nothing; the first object with two
  // parents hands its parents to a stack, whose version guard makes
  // diamond re-visits O(1).
  ObjectId x = o;
  for (;;) {
    if (x >= subtree_change_.size()) subtree_change_.resize(x + 1, 0);
    if (subtree_change_[x] == version_) return;
    subtree_change_[x] = version_;
    const std::vector<ObjectId>& parents = weak_.PotentialParents(x);
    if (parents.empty()) return;
    if (parents.size() > 1) break;
    x = parents.front();
  }
  std::vector<ObjectId> stack(weak_.PotentialParents(x).begin(),
                              weak_.PotentialParents(x).end());
  while (!stack.empty()) {
    x = stack.back();
    stack.pop_back();
    if (x >= subtree_change_.size()) subtree_change_.resize(x + 1, 0);
    if (subtree_change_[x] == version_) continue;
    subtree_change_[x] = version_;
    for (ObjectId p : weak_.PotentialParents(x)) stack.push_back(p);
  }
}

Status ProbabilisticInstance::SetOpf(ObjectId o, std::unique_ptr<Opf> opf) {
  if (!weak_.Present(o)) {
    return Status::NotFound(StrCat("object id ", o, " not present"));
  }
  if (opf == nullptr) {
    return Status::InvalidArgument("OPF must not be null");
  }
  EnsureSize(o);
  opfs_[o] = std::shared_ptr<const Opf>(std::move(opf));
  NoteLocalChange(o);
  return Status::Ok();
}

Status ProbabilisticInstance::SetVpf(ObjectId o, Vpf vpf) {
  if (!weak_.Present(o)) {
    return Status::NotFound(StrCat("object id ", o, " not present"));
  }
  EnsureSize(o);
  vpfs_[o] = std::make_shared<const Vpf>(std::move(vpf));
  NoteLocalChange(o);
  return Status::Ok();
}

const Opf* ProbabilisticInstance::GetOpf(ObjectId o) const {
  if (o >= opfs_.size()) return nullptr;
  return opfs_[o].get();
}

const Vpf* ProbabilisticInstance::GetVpf(ObjectId o) const {
  if (o >= vpfs_.size()) return nullptr;
  return vpfs_[o].get();
}

std::size_t ProbabilisticInstance::TotalOpfEntries() const {
  std::size_t n = 0;
  for (const auto& opf : opfs_) {
    if (opf) n += opf->NumEntries();
  }
  return n;
}

std::string ProbabilisticInstance::ToString() const {
  std::ostringstream os;
  os << weak_.ToString();
  for (ObjectId o : weak_.Objects()) {
    if (const Opf* opf = GetOpf(o)) {
      os << dict().ObjectName(o) << ": " << opf->ToString(dict()) << '\n';
    } else if (const Vpf* vpf = GetVpf(o)) {
      os << dict().ObjectName(o) << ": VPF " << vpf->ToString() << '\n';
    }
  }
  return os.str();
}

}  // namespace pxml
