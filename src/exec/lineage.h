/// \file lineage.h
/// \brief Lineage of materialized tuples (Cui & Widom lineage, paper Sec. 2.3).
///
/// Every materialized tuple carries (1) the set of *base* tuples of I_Q in
/// its lineage and (2) the runtime ids of its *immediate predecessors* in the
/// child outputs. (1) drives the valid-successor test `lineage(t) subseteq D`
/// (Notation 2.1); (2) gives the per-manipulation successor relation used by
/// FindSuccessors and the Why-Not baseline. This natively replaces the Trio
/// lineage service the original implementations queried. Tuples live in
/// per-node blocks (exec/block.h). Sets of base tuples and marks over a
/// block's rows are dense bitmaps (TupleIdSet, RowBitmap), so the engine's
/// membership tests are array reads, not hash probes.

#ifndef NED_EXEC_LINEAGE_H_
#define NED_EXEC_LINEAGE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "relational/tuple.h"

namespace ned {

/// Sorted, deduplicated set of base TupleIds.
using BaseSet = std::vector<TupleId>;

/// A read-only sorted run of base TupleIds: a range of a block's id pool,
/// or -- for a base row, whose lineage is itself -- one id held inline. The
/// inline form points into the view, so iterate a view, not a copy of its
/// begin()/end() that outlives it. Hot paths take it by const reference:
/// passed by value, the inline id's address escapes and the calls measured
/// ~2x slower in the successor scan.
class IdSpan {
 public:
  IdSpan() = default;
  IdSpan(const TupleId* data, size_t size) : data_(data), size_(size) {}
  explicit IdSpan(TupleId self) : size_(1), self_(self) {}
  IdSpan(const BaseSet& set)  // NOLINT(runtime/explicit)
      : data_(set.data()), size_(set.size()) {}

  const TupleId* begin() const { return data_ != nullptr ? data_ : &self_; }
  const TupleId* end() const { return begin() + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  TupleId operator[](size_t i) const { return begin()[i]; }
  TupleId front() const { return *begin(); }

  bool operator==(const IdSpan& other) const {
    return std::equal(begin(), end(), other.begin(), other.end());
  }

 private:
  const TupleId* data_ = nullptr;
  size_t size_ = 0;
  TupleId self_ = 0;
};

/// A dense set of row indices of one block: one bit per row. A rid names
/// exactly one block (an alias's rows or a node's output) and a row in it,
/// so the engine's per-block marks are bitmaps, not hash sets.
class RowBitmap {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  bool test(size_t row) const {
    const size_t w = row >> 6;
    return w < words_.size() && ((words_[w] >> (row & 63)) & 1) != 0;
  }
  /// Sets `row`; true when it was clear. Grows to fit.
  bool set(size_t row) {
    const size_t w = row >> 6;
    if (w >= words_.size()) words_.resize(w + 1);
    const uint64_t bit = uint64_t{1} << (row & 63);
    const bool was_clear = (words_[w] & bit) == 0;
    words_[w] |= bit;
    return was_clear;
  }
  /// Sets every row of `other`; returns how many were clear.
  size_t Or(const RowBitmap& other);
  /// Number of set rows.
  size_t Count() const;
  /// The first set row at or after `from`, or npos.
  size_t NextSet(size_t from) const;

 private:
  std::vector<uint64_t> words_;
};

/// A set of base TupleIds kept per alias ordinal: an alias holds either all
/// of its rows -- one flag, whatever its row count -- or a bitmap of rows.
/// Membership is O(1); iteration ascends by id, i.e. by (alias ordinal,
/// row). Compatible sets (whynot/compatible_finder.h) are two of these.
class TupleIdSet {
 public:
  /// Adds every row of alias `ordinal`, which has `rows` rows.
  void InsertAlias(uint32_t ordinal, uint64_t rows);
  /// Adds the base tuple `id`; true when it was new.
  bool insert(TupleId id);
  /// Adds every id of `other`.
  void InsertAll(const TupleIdSet& other);

  /// How the set holds an id: not at all, as a bitmap row, or inside a
  /// whole alias.
  enum class Held : uint8_t { kNo, kRow, kWholeAlias };
  /// kNo for kInvalidTupleId, for an alias ordinal this set has never seen
  /// and for a row past the alias's rows.
  Held Find(TupleId id) const {
    const uint32_t ordinal = TupleIdAlias(id);
    if (ordinal >= aliases_.size()) return Held::kNo;
    const Alias& alias = aliases_[ordinal];
    const uint64_t row = TupleIdRow(id);
    if (alias.whole) return row < alias.rows ? Held::kWholeAlias : Held::kNo;
    return alias.bits.test(row) ? Held::kRow : Held::kNo;
  }
  bool contains(TupleId id) const { return Find(id) != Held::kNo; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Ascending forward iteration over the ids.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TupleId;
    using difference_type = std::ptrdiff_t;
    using pointer = const TupleId*;
    using reference = TupleId;

    const_iterator() = default;
    TupleId operator*() const { return MakeTupleId(ordinal_, row_); }
    const_iterator& operator++() {
      ++row_;
      Settle();
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return ordinal_ == other.ordinal_ && row_ == other.row_;
    }

   private:
    friend class TupleIdSet;
    const_iterator(const TupleIdSet* set, uint32_t ordinal)
        : set_(set), ordinal_(ordinal) {
      Settle();
    }
    /// Moves to the first member at or after (ordinal_, row_), or to end().
    void Settle();

    const TupleIdSet* set_ = nullptr;
    uint32_t ordinal_ = 0;
    uint64_t row_ = 0;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const {
    return const_iterator(this, static_cast<uint32_t>(aliases_.size()));
  }

 private:
  struct Alias {
    bool whole = false;
    uint64_t rows = 0;  ///< row count of a whole alias
    RowBitmap bits;     ///< rows of any other alias
  };
  Alias& Slot(uint32_t ordinal);

  std::vector<Alias> aliases_;  // index = alias ordinal
  size_t size_ = 0;
};

class QueryInput;

/// Runtime id of a materialized tuple. For base tuples (scan inputs) this is
/// the base TupleId itself; intermediate tuples use ids with the top bit set.
using Rid = uint64_t;

inline constexpr Rid kIntermediateRidBase = 1ULL << 63;

inline bool IsBaseRid(Rid rid) { return (rid & kIntermediateRidBase) == 0; }

/// Renders a lineage as a product of base-tuple names, e.g.
/// "A.aid:a1 * AB.aid:a1 * B.bid:b2" -- the how-provenance notation the
/// paper uses in Table 2 (t4 x t7 x t2). Defined in evaluator.cpp (needs
/// QueryInput for the display names).
std::string HowProvenance(const IdSpan& lineage, const QueryInput& input);

}  // namespace ned

#endif  // NED_EXEC_LINEAGE_H_
