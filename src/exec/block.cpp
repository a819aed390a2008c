#include "exec/block.h"

#include "common/status.h"

namespace ned {

namespace {

template <typename T>
size_t VectorBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

Block Block::View(const std::vector<Tuple>* rows, size_t arity,
                  Rid rid_base) {
  Block block;
  block.rows_ = rows->size();
  block.arity_ = arity;
  block.rid_base_ = rid_base;
  block.base_rows_ = rows;
  return block;
}

BlockBuilder::BlockBuilder(size_t arity, Rid rid_base, uint32_t pred_stride) {
  block_.arity_ = arity;
  block_.rid_base_ = rid_base;
  block_.pred_stride_ = pred_stride;
  block_.lineage_offsets_.push_back(0);
  if (pred_stride == 0) block_.pred_offsets_.push_back(0);
}

void BlockBuilder::Reserve(size_t rows, size_t lineage_ids, size_t preds) {
  block_.values_.reserve(rows * block_.arity_);
  block_.lineage_offsets_.reserve(rows + 1);
  block_.lineage_.reserve(lineage_ids);
  block_.preds_.reserve(block_.pred_stride_ == 0 ? preds
                                                 : rows * block_.pred_stride_);
  if (block_.pred_stride_ == 0) block_.pred_offsets_.reserve(rows + 1);
}

void BlockBuilder::AddLineageUnion(const IdSpan& a, const IdSpan& b) {
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(block_.lineage_));
}

void BlockBuilder::EndRow() {
  NED_CHECK_MSG(block_.lineage_.size() <= UINT32_MAX &&
                    block_.preds_.size() <= UINT32_MAX,
                "block id pool exceeds 32-bit offsets");
  block_.lineage_offsets_.push_back(
      static_cast<uint32_t>(block_.lineage_.size()));
  if (block_.pred_stride_ == 0) {
    block_.pred_offsets_.push_back(static_cast<uint32_t>(block_.preds_.size()));
  }
  ++block_.rows_;
}

Block BlockBuilder::Finish() && {
  Block& b = block_;
  NED_CHECK(b.values_.size() == b.rows_ * b.arity_);
  NED_CHECK(b.pred_stride_ == 0 || b.preds_.size() == b.rows_ * b.pred_stride_);
  b.values_.shrink_to_fit();
  b.lineage_offsets_.shrink_to_fit();
  b.lineage_.shrink_to_fit();
  b.preds_.shrink_to_fit();
  b.pred_offsets_.shrink_to_fit();
  b.bytes_ = sizeof(Block) + VectorBytes(b.values_) + payload_bytes_ +
             VectorBytes(b.lineage_offsets_) + VectorBytes(b.lineage_) +
             VectorBytes(b.preds_) + VectorBytes(b.pred_offsets_);
  return std::move(block_);
}

}  // namespace ned
