// Named relations: a schema (attribute names and types) plus a row store,
// with lazily built per-attribute hash indexes used by the join operators.
// Scenario universes share one relation across every session thread, so
// the index cache is filled under a lock.
#ifndef QLEARN_RELATIONAL_RELATION_H_
#define QLEARN_RELATIONAL_RELATION_H_

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "relational/value.h"

namespace qlearn {
namespace relational {

/// One attribute of a relation schema.
struct Attribute {
  std::string name;
  ValueType type;
};

/// The schema (name + attributes) of a relation.
class RelationSchema {
 public:
  RelationSchema() = default;
  RelationSchema(std::string name, std::vector<Attribute> attributes)
      : name_(std::move(name)), attributes_(std::move(attributes)) {}

  const std::string& name() const { return name_; }
  const std::vector<Attribute>& attributes() const { return attributes_; }
  size_t arity() const { return attributes_.size(); }

  /// Index of the attribute called `name`, if any.
  std::optional<size_t> AttributeIndex(const std::string& name) const;

  /// "name(attr1:type1, ...)".
  std::string ToString() const;

 private:
  std::string name_;
  std::vector<Attribute> attributes_;
};

/// A tuple: one Value per schema attribute.
using Tuple = std::vector<Value>;

/// A materialized relation instance.
class Relation {
 public:
  Relation() = default;
  explicit Relation(RelationSchema schema) : schema_(std::move(schema)) {}
  /// Copies take the source's cached indexes under its lock.
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  const RelationSchema& schema() const { return schema_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const Tuple& row(size_t i) const { return rows_[i]; }
  const std::vector<Tuple>& rows() const { return rows_; }

  /// Appends a row after checking arity and types (NULL fits any type).
  common::Status Insert(Tuple row);

  /// Appends without checking (generator fast path; the caller guarantees
  /// schema conformance). Like Insert, drops the cached indexes.
  void InsertUnchecked(Tuple row) {
    indexes_.clear();
    rows_.push_back(std::move(row));
  }

  /// Builds (or returns a cached) hash index on attribute `col`:
  /// value-hash -> row indexes. NULLs are not indexed. Safe to call from
  /// many threads at once; the index stays valid until the next write.
  const std::unordered_multimap<size_t, size_t>& IndexOn(size_t col) const;

  /// Multi-line rendering with a header (for examples and debugging).
  std::string ToString() const;

 private:
  RelationSchema schema_;
  std::vector<Tuple> rows_;
  mutable std::mutex index_mutex_;  ///< guards indexes_ on const paths
  mutable std::unordered_map<size_t, std::unordered_multimap<size_t, size_t>>
      indexes_;
};

}  // namespace relational
}  // namespace qlearn

#endif  // QLEARN_RELATIONAL_RELATION_H_
