#include "relational/relation.h"

namespace qlearn {
namespace relational {

using common::Status;

std::optional<size_t> RelationSchema::AttributeIndex(
    const std::string& name) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) return i;
  }
  return std::nullopt;
}

std::string RelationSchema::ToString() const {
  std::string out = name_ + "(";
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (i > 0) out += ", ";
    out += attributes_[i].name;
    out += ":";
    out += ValueTypeName(attributes_[i].type);
  }
  out += ")";
  return out;
}

Relation::Relation(const Relation& other)
    : schema_(other.schema_), rows_(other.rows_) {
  std::lock_guard<std::mutex> lock(other.index_mutex_);
  indexes_ = other.indexes_;
}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  schema_ = other.schema_;
  rows_ = other.rows_;
  std::lock_guard<std::mutex> lock(other.index_mutex_);
  indexes_ = other.indexes_;
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : schema_(std::move(other.schema_)),
      rows_(std::move(other.rows_)),
      indexes_(std::move(other.indexes_)) {}

Relation& Relation::operator=(Relation&& other) noexcept {
  schema_ = std::move(other.schema_);
  rows_ = std::move(other.rows_);
  indexes_ = std::move(other.indexes_);
  return *this;
}

Status Relation::Insert(Tuple row) {
  if (row.size() != schema_.arity()) {
    return Status::InvalidArgument(
        "arity mismatch inserting into " + schema_.name() + ": got " +
        std::to_string(row.size()) + ", want " +
        std::to_string(schema_.arity()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!row[i].is_null() && row[i].type() != schema_.attributes()[i].type) {
      return Status::InvalidArgument(
          "type mismatch in " + schema_.name() + "." +
          schema_.attributes()[i].name + ": got " +
          ValueTypeName(row[i].type()) + ", want " +
          ValueTypeName(schema_.attributes()[i].type));
    }
  }
  indexes_.clear();  // invalidated by the write
  rows_.push_back(std::move(row));
  return Status::OK();
}

const std::unordered_multimap<size_t, size_t>& Relation::IndexOn(
    size_t col) const {
  // Map nodes never move, so the reference outlives the lock; only a
  // write (non-const, never concurrent with reads) drops the cache.
  std::lock_guard<std::mutex> lock(index_mutex_);
  auto it = indexes_.find(col);
  if (it != indexes_.end()) return it->second;
  auto& index = indexes_[col];
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (!rows_[i][col].is_null()) {
      index.emplace(rows_[i][col].Hash(), i);
    }
  }
  return index;
}

std::string Relation::ToString() const {
  std::string out = schema_.ToString() + " [" + std::to_string(size()) +
                    " rows]\n";
  for (const Tuple& row : rows_) {
    out += "  (";
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ", ";
      out += row[i].ToString();
    }
    out += ")\n";
  }
  return out;
}

}  // namespace relational
}  // namespace qlearn
