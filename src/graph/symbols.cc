#include "graph/symbols.h"

#include <algorithm>

#include "util/strings.h"

namespace pxml {

std::uint32_t SymbolTable::Intern(std::string_view name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  std::uint32_t id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

std::optional<std::uint32_t> SymbolTable::Find(std::string_view name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

Dictionary::Store* Dictionary::EmptyStore() {
  static Store* const empty = new Store();
  return empty;
}

Dictionary::Store* Dictionary::Share(Store* store) {
  store->refs.fetch_add(1, std::memory_order_relaxed);
  return store;
}

void Dictionary::Release(Store* store) {
  // acq_rel, paired with Mutable's acquire load: whichever Dictionary is
  // left as the sole owner sees every other owner's reads finish before
  // it frees or writes the store.
  if (store->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete store;
}

Dictionary::Dictionary() : store_(Share(EmptyStore())) {}

Dictionary::Dictionary(const Dictionary& other) noexcept
    : store_(Share(other.store_)) {}

Dictionary::Dictionary(Dictionary&& other) noexcept : store_(other.store_) {
  other.store_ = Share(EmptyStore());
}

Dictionary& Dictionary::operator=(const Dictionary& other) noexcept {
  Store* old = store_;
  store_ = Share(other.store_);
  Release(old);
  return *this;
}

Dictionary& Dictionary::operator=(Dictionary&& other) noexcept {
  std::swap(store_, other.store_);
  return *this;
}

Dictionary::~Dictionary() { Release(store_); }

Dictionary::Store& Dictionary::Mutable() {
  if (store_->refs.load(std::memory_order_acquire) != 1) {
    Store* own = new Store(*store_);
    Release(store_);
    store_ = own;
  }
  return *store_;
}

ObjectId Dictionary::InternObject(std::string_view name) {
  if (auto id = store_->objects.Find(name)) return *id;
  return Mutable().objects.Intern(name);
}

LabelId Dictionary::InternLabel(std::string_view name) {
  if (auto id = store_->labels.Find(name)) return *id;
  return Mutable().labels.Intern(name);
}

Result<TypeId> Dictionary::DefineType(std::string_view name,
                                      std::vector<Value> domain) {
  if (domain.empty()) {
    return Status::InvalidArgument(
        StrCat("type '", name, "' must have a non-empty domain"));
  }
  std::vector<Value> sorted = domain;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return Status::InvalidArgument(
        StrCat("type '", name, "' has duplicate domain values"));
  }
  if (auto id = store_->types.Find(name);
      id.has_value() && store_->domains[*id] == domain) {
    return *id;
  }
  Store& store = Mutable();
  TypeId id = store.types.Intern(name);
  if (id >= store.domains.size()) store.domains.resize(id + 1);
  store.domains[id] = std::move(domain);
  return id;
}

bool Dictionary::DomainContains(TypeId t, const Value& v) const {
  if (t >= store_->domains.size()) return false;
  const std::vector<Value>& dom = store_->domains[t];
  return std::find(dom.begin(), dom.end(), v) != dom.end();
}

}  // namespace pxml
