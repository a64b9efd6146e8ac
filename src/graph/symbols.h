#ifndef PXML_GRAPH_SYMBOLS_H_
#define PXML_GRAPH_SYMBOLS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "prob/value.h"
#include "util/status.h"

namespace pxml {

/// Dense ids for the three name spaces of the model: objects O, edge
/// labels L, and leaf types T (Def 3.3).
using ObjectId = std::uint32_t;
using LabelId = std::uint32_t;
using TypeId = std::uint32_t;

/// Sentinel for "no id".
inline constexpr std::uint32_t kInvalidId = 0xFFFFFFFFu;

/// Interns strings to dense, stable 32-bit ids.
class SymbolTable {
 public:
  /// Returns the id for `name`, creating it if new.
  std::uint32_t Intern(std::string_view name);

  /// Returns the id for `name` if it was interned, otherwise nullopt.
  std::optional<std::uint32_t> Find(std::string_view name) const;

  /// The name for `id`. Precondition: id < size().
  const std::string& Name(std::uint32_t id) const { return names_[id]; }

  std::size_t size() const { return names_.size(); }

 private:
  /// Hashes std::string and std::string_view alike, so lookups by view
  /// build no temporary string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t, NameHash, std::equal_to<>>
      index_;
};

/// The shared vocabulary of an instance: object names, edge labels, and
/// leaf types with their finite value domains.
///
/// A Dictionary is owned by each (weak / probabilistic / semistructured)
/// instance; instances derived from one another (compatible worlds,
/// algebra results) carry copies so object ids remain comparable.
///
/// Copies are cheap: they share one symbol store (copy-on-write). The
/// first call that adds a *new* name (or changes a type's domain) gives
/// the calling Dictionary a private store; looking up or re-interning an
/// existing name never copies. Distinct Dictionary objects may be used
/// from different threads even while they share a store.
class Dictionary {
 public:
  Dictionary();
  Dictionary(const Dictionary& other) noexcept;
  Dictionary(Dictionary&& other) noexcept;
  Dictionary& operator=(const Dictionary& other) noexcept;
  Dictionary& operator=(Dictionary&& other) noexcept;
  ~Dictionary();

  ObjectId InternObject(std::string_view name);
  LabelId InternLabel(std::string_view name);

  /// Defines (or redefines) a leaf type with the given finite domain.
  /// The domain must be non-empty and duplicate-free.
  Result<TypeId> DefineType(std::string_view name, std::vector<Value> domain);

  std::optional<ObjectId> FindObject(std::string_view name) const {
    return store_->objects.Find(name);
  }
  std::optional<LabelId> FindLabel(std::string_view name) const {
    return store_->labels.Find(name);
  }
  std::optional<TypeId> FindType(std::string_view name) const {
    return store_->types.Find(name);
  }

  const std::string& ObjectName(ObjectId id) const {
    return store_->objects.Name(id);
  }
  const std::string& LabelName(LabelId id) const {
    return store_->labels.Name(id);
  }
  const std::string& TypeName(TypeId id) const {
    return store_->types.Name(id);
  }

  /// The finite domain dom(t). Precondition: t < num_types().
  const std::vector<Value>& TypeDomain(TypeId t) const {
    return store_->domains[t];
  }

  /// True iff `v` is a member of dom(t).
  bool DomainContains(TypeId t, const Value& v) const;

  std::size_t num_objects() const { return store_->objects.size(); }
  std::size_t num_labels() const { return store_->labels.size(); }
  std::size_t num_types() const { return store_->types.size(); }

 private:
  /// The symbols proper, shared by every Dictionary in `refs`. A store
  /// is written only while exactly one Dictionary refers to it.
  struct Store {
    Store() = default;
    Store(const Store& other)
        : objects(other.objects),
          labels(other.labels),
          types(other.types),
          domains(other.domains) {}

    std::atomic<std::uint32_t> refs{1};
    SymbolTable objects;
    SymbolTable labels;
    SymbolTable types;
    std::vector<std::vector<Value>> domains;  // indexed by TypeId
  };

  /// One empty store shared by every default-constructed or moved-from
  /// Dictionary. It keeps a reference of its own, so it is never written
  /// or freed.
  static Store* EmptyStore();
  static Store* Share(Store* store);
  static void Release(Store* store);
  /// The store, made private to this Dictionary first if it is shared.
  Store& Mutable();

  Store* store_;
};

}  // namespace pxml

#endif  // PXML_GRAPH_SYMBOLS_H_
