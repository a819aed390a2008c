/// \file block.h
/// \brief Immutable per-node output blocks of the lineage-tracking executor.
///
/// One evaluated operator node's output is one Block, laid out so that a
/// produced tuple costs a few array slots instead of its own heap vectors:
///  - values row-major in one allocation (a scan instead views the
///    snapshot's rows in place and owns none of them);
///  - lineage as CSR offsets into one pool of base TupleIds (a scan row's
///    lineage is its own id and is not stored);
///  - immediate predecessors by arity: none for a scan, one child rid per
///    row for select, a (left, right) pair for join, and CSR offsets only
///    where rows merge (project, union, difference, aggregate);
///  - no stored rids: row i's rid is rid_base() + i, which is how the
///    evaluator decodes any rid back to (node ordinal or alias, row).
///
/// A finished block never changes, so the subtree cache shares it across
/// evaluations as a shared_ptr<const Block>. Only scan views point into a
/// database snapshot, and the cache never holds scans.

#ifndef NED_EXEC_BLOCK_H_
#define NED_EXEC_BLOCK_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "exec/lineage.h"
#include "relational/tuple.h"

namespace ned {

/// The values of one row: `size()` contiguous Values.
class RowView {
 public:
  RowView(const Value* data, size_t size) : data_(data), size_(size) {}
  RowView(const Tuple& tuple)  // NOLINT(runtime/explicit)
      : data_(tuple.values().data()), size_(tuple.size()) {}

  size_t size() const { return size_; }
  const Value* data() const { return data_; }
  const Value& at(size_t i) const { return data_[i]; }
  const Value& operator[](size_t i) const { return data_[i]; }
  const Value* begin() const { return data_; }
  const Value* end() const { return data_ + size_; }

  Tuple ToTuple() const { return Tuple(std::vector<Value>(begin(), end())); }
  /// Same renderings as Tuple::ToString.
  std::string ToString() const { return ToTuple().ToString(); }
  std::string ToString(const Schema& schema) const {
    return ToTuple().ToString(schema);
  }

  bool operator==(const RowView& other) const {
    return std::equal(begin(), end(), other.begin(), other.end());
  }

 private:
  const Value* data_;
  size_t size_;
};

using RidSpan = std::span<const Rid>;

/// One row of a block, as a bundle of views.
struct BlockRow {
  Rid rid;
  RowView values;
  IdSpan lineage;
  RidSpan preds;  ///< rids in the child blocks; empty for base rows
};

class Block {
 public:
  Block() = default;

  /// A scan's output: `rows` viewed in place, row i carrying base id
  /// `rid_base + i` (MakeTupleId(alias ordinal, i)) as rid and lineage.
  static Block View(const std::vector<Tuple>* rows, size_t arity,
                    Rid rid_base);

  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  size_t arity() const { return arity_; }

  Rid rid_base() const { return rid_base_; }
  Rid rid(size_t i) const { return rid_base_ + i; }

  RowView values(size_t i) const {
    return RowView(base_rows_ != nullptr ? (*base_rows_)[i].values().data()
                                         : values_.data() + i * arity_,
                   arity_);
  }
  IdSpan lineage(size_t i) const {
    if (base_rows_ != nullptr) return IdSpan(rid(i));
    return IdSpan(lineage_.data() + lineage_offsets_[i],
                  lineage_offsets_[i + 1] - lineage_offsets_[i]);
  }
  RidSpan preds(size_t i) const {
    if (!pred_offsets_.empty()) {
      return RidSpan(preds_.data() + pred_offsets_[i],
                     pred_offsets_[i + 1] - pred_offsets_[i]);
    }
    return RidSpan(preds_.data() + i * pred_stride_, pred_stride_);
  }

  BlockRow operator[](size_t i) const {
    return BlockRow{rid(i), values(i), lineage(i), preds(i)};
  }

  class Iterator {
   public:
    Iterator(const Block* block, size_t i) : block_(block), i_(i) {}
    BlockRow operator*() const { return (*block_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const Iterator& other) const { return i_ != other.i_; }

   private:
    const Block* block_;
    size_t i_;
  };
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, rows_); }

  /// Bytes this block holds on the heap: the Block itself, its value array
  /// (plus out-of-line string payloads), its id pools and offset arrays. A
  /// scan view holds none of the rows it views. Budgets are charged exactly
  /// this (docs/CACHING.md).
  size_t bytes() const { return bytes_; }

 private:
  friend class BlockBuilder;

  size_t rows_ = 0;
  size_t arity_ = 0;
  Rid rid_base_ = 0;
  const std::vector<Tuple>* base_rows_ = nullptr;  ///< scans only
  std::vector<Value> values_;
  std::vector<uint32_t> lineage_offsets_;  ///< rows + 1
  std::vector<TupleId> lineage_;
  std::vector<Rid> preds_;
  std::vector<uint32_t> pred_offsets_;  ///< rows + 1 when rows merge
  uint32_t pred_stride_ = 0;            ///< preds per row otherwise
  size_t bytes_ = sizeof(Block);
};

/// Builds one non-scan block row by row: values, then lineage, then preds,
/// then EndRow(). Reserve() up front keeps the value array a single exact
/// allocation; Finish() trims any remaining slack, so bytes() -- which
/// counts capacities and string payloads -- is what the block really holds.
class BlockBuilder {
 public:
  /// `pred_stride` predecessors per row (1 select, 2 join), or 0 for rows
  /// that merge a variable number of inputs (CSR).
  BlockBuilder(size_t arity, Rid rid_base, uint32_t pred_stride);

  void Reserve(size_t rows, size_t lineage_ids, size_t preds);

  void AddValue(const Value& v) { Count(block_.values_.emplace_back(v)); }
  void AddValue(Value&& v) {
    Count(block_.values_.emplace_back(std::move(v)));
  }
  void AddValues(RowView row) {
    for (const Value& v : row) AddValue(v);
  }
  void AddLineage(const IdSpan& ids) {
    block_.lineage_.insert(block_.lineage_.end(), ids.begin(), ids.end());
  }
  /// Appends the sorted union of two sorted runs.
  void AddLineageUnion(const IdSpan& a, const IdSpan& b);
  void AddPred(Rid rid) { block_.preds_.push_back(rid); }
  void EndRow();

  Block Finish() &&;

 private:
  /// Adds `v`'s out-of-line bytes: a string's heap buffer, unless the
  /// string fits the buffer inside the string object.
  void Count(const Value& v) {
    if (v.type() != ValueType::kString) return;
    const std::string& s = v.as_string();
    const char* object = reinterpret_cast<const char*>(&s);
    const std::less<const char*> before;
    if (before(s.data(), object) || !before(s.data(), object + sizeof(s))) {
      payload_bytes_ += s.capacity() + 1;
    }
  }

  Block block_;
  size_t payload_bytes_ = 0;
};

}  // namespace ned

#endif  // NED_EXEC_BLOCK_H_
