#include "exec/lineage.h"

#include <bit>

#include "common/status.h"

namespace ned {

size_t RowBitmap::Or(const RowBitmap& other) {
  if (other.words_.size() > words_.size()) words_.resize(other.words_.size());
  size_t added = 0;
  for (size_t w = 0; w < other.words_.size(); ++w) {
    added += std::popcount(other.words_[w] & ~words_[w]);
    words_[w] |= other.words_[w];
  }
  return added;
}

size_t RowBitmap::Count() const {
  size_t n = 0;
  for (uint64_t word : words_) n += std::popcount(word);
  return n;
}

size_t RowBitmap::NextSet(size_t from) const {
  size_t w = from >> 6;
  if (w >= words_.size()) return npos;
  uint64_t word = words_[w] & (~uint64_t{0} << (from & 63));
  while (word == 0) {
    if (++w == words_.size()) return npos;
    word = words_[w];
  }
  return (w << 6) + static_cast<size_t>(std::countr_zero(word));
}

TupleIdSet::Alias& TupleIdSet::Slot(uint32_t ordinal) {
  NED_CHECK_MSG(ordinal < (1u << 24), "not a base tuple id");
  if (ordinal >= aliases_.size()) aliases_.resize(ordinal + 1);
  return aliases_[ordinal];
}

void TupleIdSet::InsertAlias(uint32_t ordinal, uint64_t rows) {
  Alias& alias = Slot(ordinal);
  size_ -= alias.whole ? alias.rows : alias.bits.Count();
  alias = Alias{true, rows, RowBitmap()};
  size_ += rows;
}

bool TupleIdSet::insert(TupleId id) {
  Alias& alias = Slot(TupleIdAlias(id));
  if (alias.whole || !alias.bits.set(TupleIdRow(id))) return false;
  ++size_;
  return true;
}

void TupleIdSet::InsertAll(const TupleIdSet& other) {
  for (uint32_t ordinal = 0; ordinal < other.aliases_.size(); ++ordinal) {
    const Alias& from = other.aliases_[ordinal];
    if (from.whole) {
      InsertAlias(ordinal, from.rows);
      continue;
    }
    Alias& to = Slot(ordinal);
    if (!to.whole) size_ += to.bits.Or(from.bits);
  }
}

void TupleIdSet::const_iterator::Settle() {
  const std::vector<Alias>& aliases = set_->aliases_;
  for (; ordinal_ < aliases.size(); ++ordinal_, row_ = 0) {
    const Alias& alias = aliases[ordinal_];
    if (alias.whole) {
      if (row_ < alias.rows) return;
      continue;
    }
    const size_t next = alias.bits.NextSet(row_);
    if (next != RowBitmap::npos) {
      row_ = next;
      return;
    }
  }
  row_ = 0;
}

}  // namespace ned
