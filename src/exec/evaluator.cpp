#include "exec/evaluator.h"

#include <algorithm>
#include <optional>
#include <span>

#include "algebra/fingerprint.h"
#include "cache/subtree_cache.h"
#include "common/strings.h"
#include "expr/expression.h"

namespace ned {

// ---------------------------------------------------------------------------
// QueryInput
// ---------------------------------------------------------------------------

Result<QueryInput> QueryInput::Build(const QueryTree& tree, const Database& db,
                                     ExecContext* ctx) {
  QueryInput input;
  uint32_t ordinal = 0;
  for (const OperatorNode* scan : tree.scans()) {
    NED_RETURN_NOT_OK(CheckExec(ctx));
    NED_ASSIGN_OR_RETURN(const Relation* rel, db.GetRelation(scan->base_table));
    NED_CHECK(rel->schema().size() == scan->output_schema.size());
    AliasData data;
    data.schema = scan->output_schema;
    data.relation = rel;
    data.rows = Block::View(&rel->rows(), rel->schema().size(),
                            MakeTupleId(ordinal, 0));
    data.data_version = rel->data_version();
    if (ctx != nullptr) ctx->ChargeRows(rel->size());
    input.alias_order_.push_back(scan->alias);
    input.by_alias_.emplace(scan->alias, std::move(data));
    ++ordinal;
  }
  return input;
}

Result<const Block*> QueryInput::AliasBlock(const std::string& alias) const {
  auto it = by_alias_.find(alias);
  if (it == by_alias_.end()) return Status::NotFound("no such alias: " + alias);
  return &it->second.rows;
}

Result<const Schema*> QueryInput::AliasSchema(const std::string& alias) const {
  auto it = by_alias_.find(alias);
  if (it == by_alias_.end()) return Status::NotFound("no such alias: " + alias);
  return &it->second.schema;
}

const Tuple* QueryInput::FindById(TupleId id) const {
  uint32_t ordinal = TupleIdAlias(id);
  if (ordinal >= alias_order_.size()) return nullptr;
  const Relation* rel = by_alias_.at(alias_order_[ordinal]).relation;
  uint64_t row = TupleIdRow(id);
  if (row >= rel->size()) return nullptr;
  return &rel->row(row);
}

std::string QueryInput::AliasOfId(TupleId id) const {
  uint32_t ordinal = TupleIdAlias(id);
  if (ordinal >= alias_order_.size()) return "";
  return alias_order_[ordinal];
}

std::string QueryInput::DisplayTuple(TupleId id) const {
  const Tuple* t = FindById(id);
  std::string alias = AliasOfId(id);
  if (t == nullptr || alias.empty()) return StrCat("?#", id);
  const Schema& schema = by_alias_.at(alias).schema;
  if (schema.size() > 0 && t->size() > 0) {
    return alias + "." + schema.at(0).name + ":" + t->at(0).ToString();
  }
  return alias + "#" + std::to_string(TupleIdRow(id));
}

size_t QueryInput::TotalTuples() const {
  size_t total = 0;
  for (const auto& [_, data] : by_alias_) total += data.rows.size();
  return total;
}

std::string HowProvenance(const IdSpan& lineage, const QueryInput& input) {
  std::vector<std::string> parts;
  parts.reserve(lineage.size());
  for (TupleId id : lineage) parts.push_back(input.DisplayTuple(id));
  return Join(parts, " * ");
}

// ---------------------------------------------------------------------------
// Row grouping and charging helpers
// ---------------------------------------------------------------------------

namespace {

/// MurmurHash3's 64-bit finalizer: spreads Value::Hash (identity on ints)
/// over the low bits the open-addressing table masks with.
uint64_t Mix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// Tuple::Hash of `row`'s values at `cols`. Value::Hash is consistent with
/// both exact equality and numeric-coercing SQL equality.
uint64_t HashCols(const Value* row, const std::vector<size_t>& cols) {
  size_t h = 0x345678;
  for (size_t c : cols) h = h * 1000003 ^ row[c].Hash();
  return Mix(h);
}

/// One input of a grouping: a block whose rows are read through `cols`,
/// restricted to `rows` when given.
struct Side {
  const Block* block;
  const std::vector<size_t>* cols;
  const std::vector<uint32_t>* rows = nullptr;  ///< nullptr = every row

  size_t size() const { return rows != nullptr ? rows->size() : block->size(); }
  uint32_t row(size_t k) const {
    return rows != nullptr ? (*rows)[k] : static_cast<uint32_t>(k);
  }
};

enum class KeyEq {
  kExact,  ///< Value == (set semantics, grouping; NULL equals NULL)
  kJoin,   ///< SQL equality with numeric coercion; NULL keys never match
};

/// Member reference: side in the high half, row in the low half.
uint64_t Member(size_t side, uint32_t row) {
  return (static_cast<uint64_t>(side) << 32) | row;
}
size_t MemberSide(uint64_t m) { return static_cast<size_t>(m >> 32); }
uint32_t MemberRow(uint64_t m) { return static_cast<uint32_t>(m); }

/// Rows of one or more sides grouped on their mapped columns: groups in
/// first-seen order, members in input order, side by side. The one hash
/// structure behind join builds, set-semantics merges, difference and
/// aggregation. Keys are compared in place against each group's first
/// member, never copied into key tuples.
class RowGroups {
 public:
  /// Groups every listed row of `sides`, ticking per row. A positive
  /// `charge_arity` charges one output row of that arity per new group.
  static Result<RowGroups> Build(std::vector<Side> sides, KeyEq eq,
                                 ExecContext* ctx, size_t charge_arity);

  size_t size() const { return first_.size(); }
  std::span<const uint64_t> members(size_t g) const {
    return std::span<const uint64_t>(members_.data() + offsets_[g],
                                     offsets_[g + 1] - offsets_[g]);
  }
  size_t member_count() const { return members_.size(); }
  /// Total lineage ids of all members: a bound on their merged lineages.
  size_t member_lineage_ids() const {
    size_t ids = 0;
    for (uint64_t m : members_) {
      ids += sides_[MemberSide(m)].block->lineage(MemberRow(m)).size();
    }
    return ids;
  }
  const std::vector<Side>& sides() const { return sides_; }

  /// The first member's values and the columns its side is read through.
  const Value* KeyRow(size_t g) const { return RowOf(first_[g]); }
  const std::vector<size_t>& KeyCols(size_t g) const {
    return *sides_[MemberSide(first_[g])].cols;
  }

  /// The group whose key equals `row` read through `cols`, or -1.
  int64_t Find(const Value* row, const std::vector<size_t>& cols) const;

 private:
  const Value* RowOf(uint64_t member) const {
    return sides_[MemberSide(member)]
        .block->values(MemberRow(member))
        .data();
  }
  bool KeyEquals(const Value* row, const std::vector<size_t>& cols,
                 size_t g) const;
  /// The group equal to `row`, inserting a group led by `member` if none.
  std::pair<uint32_t, bool> FindOrInsert(uint64_t hash, const Value* row,
                                         const std::vector<size_t>& cols,
                                         uint64_t member);
  void Rehash(size_t slots);

  std::vector<Side> sides_;
  KeyEq eq_ = KeyEq::kExact;
  std::vector<uint64_t> first_;   // first member per group
  std::vector<uint64_t> hashes_;  // key hash per group
  std::vector<uint32_t> slots_;   // open addressing: group + 1, 0 = empty
  std::vector<uint32_t> offsets_;  // CSR over members_
  std::vector<uint64_t> members_;
};

constexpr uint32_t kNoGroup = UINT32_MAX;

Result<RowGroups> RowGroups::Build(std::vector<Side> sides, KeyEq eq,
                                   ExecContext* ctx, size_t charge_arity) {
  RowGroups groups;
  groups.sides_ = std::move(sides);
  groups.eq_ = eq;
  groups.slots_.assign(16, 0);
  std::vector<uint32_t> group_of;
  for (size_t s = 0; s < groups.sides_.size(); ++s) {
    const Side& side = groups.sides_[s];
    NED_CHECK(side.block->size() <= UINT32_MAX);
    for (size_t k = 0; k < side.size(); ++k) {
      NED_EXEC_TICK(ctx);
      const uint32_t row = side.row(k);
      const Value* values = side.block->values(row).data();
      bool null_key = false;
      if (eq == KeyEq::kJoin) {
        for (size_t c : *side.cols) null_key = null_key || values[c].is_null();
      }
      if (null_key) {
        group_of.push_back(kNoGroup);
        continue;
      }
      auto [g, inserted] = groups.FindOrInsert(HashCols(values, *side.cols),
                                               values, *side.cols,
                                               Member(s, row));
      if (inserted && charge_arity > 0 && ctx != nullptr) {
        ctx->ChargeRows(1);
        ctx->ChargeBytes(charge_arity * sizeof(Value));
      }
      group_of.push_back(g);
    }
  }
  // Members in input order, grouped (a counting sort over group ids).
  groups.offsets_.assign(groups.size() + 1, 0);
  for (uint32_t g : group_of) {
    if (g != kNoGroup) ++groups.offsets_[g + 1];
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    groups.offsets_[g + 1] += groups.offsets_[g];
  }
  groups.members_.resize(groups.offsets_.back());
  std::vector<uint32_t> next(groups.offsets_.begin(),
                             groups.offsets_.end() - 1);
  size_t i = 0;
  for (size_t s = 0; s < groups.sides_.size(); ++s) {
    const Side& side = groups.sides_[s];
    for (size_t k = 0; k < side.size(); ++k, ++i) {
      if (group_of[i] != kNoGroup) {
        groups.members_[next[group_of[i]]++] = Member(s, side.row(k));
      }
    }
  }
  return groups;
}

bool RowGroups::KeyEquals(const Value* row, const std::vector<size_t>& cols,
                          size_t g) const {
  const Value* key = KeyRow(g);
  const std::vector<size_t>& key_cols = KeyCols(g);
  for (size_t k = 0; k < cols.size(); ++k) {
    const Value& a = row[cols[k]];
    const Value& b = key[key_cols[k]];
    if (eq_ == KeyEq::kExact ? !(a == b)
                             : !Value::Satisfies(a, CompareOp::kEq, b)) {
      return false;
    }
  }
  return true;
}

int64_t RowGroups::Find(const Value* row,
                        const std::vector<size_t>& cols) const {
  if (eq_ == KeyEq::kJoin) {
    for (size_t c : cols) {
      if (row[c].is_null()) return -1;  // NULL never joins
    }
  }
  const uint64_t hash = HashCols(row, cols);
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask; slots_[i] != 0; i = (i + 1) & mask) {
    const uint32_t g = slots_[i] - 1;
    if (hashes_[g] == hash && KeyEquals(row, cols, g)) return g;
  }
  return -1;
}

std::pair<uint32_t, bool> RowGroups::FindOrInsert(
    uint64_t hash, const Value* row, const std::vector<size_t>& cols,
    uint64_t member) {
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  for (; slots_[i] != 0; i = (i + 1) & mask) {
    const uint32_t g = slots_[i] - 1;
    if (hashes_[g] == hash && KeyEquals(row, cols, g)) return {g, false};
  }
  const uint32_t g = static_cast<uint32_t>(first_.size());
  first_.push_back(member);
  hashes_.push_back(hash);
  slots_[i] = g + 1;
  if (first_.size() * 2 > slots_.size()) Rehash(slots_.size() * 2);
  return {g, true};
}

void RowGroups::Rehash(size_t slots) {
  slots_.assign(slots, 0);
  const size_t mask = slots - 1;
  for (uint32_t g = 0; g < first_.size(); ++g) {
    size_t i = hashes_[g] & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = g + 1;
  }
}

/// Per-row share of a block's charge, made as each output row is decided so
/// budgets trip mid-operator: the row and its value slots.
void ChargeRow(ExecContext* ctx, size_t arity) {
  if (ctx == nullptr) return;
  ctx->ChargeRows(1);
  ctx->ChargeBytes(arity * sizeof(Value));
}

/// The rest of a finished block's real size beyond its per-row shares, so
/// that a block's total charge is exactly Block::bytes().
void ChargeRest(ExecContext* ctx, const Block& block) {
  if (ctx == nullptr) return;
  ctx->ChargeBytes(block.bytes() -
                   block.size() * block.arity() * sizeof(Value));
}

/// Appends the merged lineage of `members` (rows of `sides`): one sorted
/// union per output row, however many rows merge into it.
void AddMergedLineage(BlockBuilder* out, const std::vector<Side>& sides,
                      std::span<const uint64_t> members,
                      std::vector<TupleId>* scratch) {
  auto lineage_of = [&](uint64_t m) {
    return sides[MemberSide(m)].block->lineage(MemberRow(m));
  };
  if (members.size() == 1) {
    out->AddLineage(lineage_of(members[0]));
    return;
  }
  scratch->clear();
  for (uint64_t m : members) {
    IdSpan ids = lineage_of(m);
    scratch->insert(scratch->end(), ids.begin(), ids.end());
  }
  std::sort(scratch->begin(), scratch->end());
  scratch->erase(std::unique(scratch->begin(), scratch->end()), scratch->end());
  out->AddLineage(IdSpan(*scratch));
}

/// Appends group g's preds (its members' rids, input order) and lineage.
void AddMergedProvenance(BlockBuilder* out, const RowGroups& groups, size_t g,
                         std::vector<TupleId>* scratch) {
  for (uint64_t m : groups.members(g)) {
    out->AddPred(groups.sides()[MemberSide(m)].block->rid(MemberRow(m)));
  }
  AddMergedLineage(out, groups.sides(), groups.members(g), scratch);
}

/// Appends the aggregate values of `calls` over `members` (rows of `in`).
Status AggregateInto(const Block& in, std::span<const uint64_t> members,
                     const std::vector<AggCall>& calls,
                     const std::vector<size_t>& arg_idx, ExecContext* ctx,
                     std::vector<Value>* out) {
  for (size_t c = 0; c < calls.size(); ++c) {
    const AggCall& call = calls[c];
    size_t idx = arg_idx[c];
    int64_t count = 0;
    double sum = 0;
    bool numeric_ok = true;
    std::optional<Value> min_v, max_v;
    for (uint64_t m : members) {
      NED_EXEC_TICK(ctx);
      const Value& v = in.values(MemberRow(m)).at(idx);
      if (v.is_null()) continue;
      ++count;
      if (v.is_numeric()) {
        sum += v.NumericValue();
      } else {
        numeric_ok = false;
      }
      if (!min_v.has_value() || Value::Satisfies(v, CompareOp::kLt, *min_v)) {
        min_v = v;
      }
      if (!max_v.has_value() || Value::Satisfies(v, CompareOp::kGt, *max_v)) {
        max_v = v;
      }
    }
    switch (call.fn) {
      case AggFn::kCount:
        out->push_back(Value::Int(count));
        break;
      case AggFn::kSum:
        if (count == 0) {
          out->push_back(Value::Null());
        } else if (!numeric_ok) {
          return Status::TypeError("sum over non-numeric attribute " +
                                   call.arg.FullName());
        } else {
          out->push_back(Value::Real(sum));
        }
        break;
      case AggFn::kAvg:
        if (count == 0) {
          out->push_back(Value::Null());
        } else if (!numeric_ok) {
          return Status::TypeError("avg over non-numeric attribute " +
                                   call.arg.FullName());
        } else {
          out->push_back(Value::Real(sum / static_cast<double>(count)));
        }
        break;
      case AggFn::kMin:
        out->push_back(min_v.value_or(Value::Null()));
        break;
      case AggFn::kMax:
        out->push_back(max_v.value_or(Value::Null()));
        break;
    }
  }
  return Status::OK();
}

Result<std::vector<size_t>> ResolveAll(const Schema& schema,
                                       const std::vector<Attribute>& attrs) {
  std::vector<size_t> idx;
  for (const auto& a : attrs) {
    NED_ASSIGN_OR_RETURN(size_t i, schema.Resolve(a));
    idx.push_back(i);
  }
  return idx;
}

Result<std::vector<size_t>> ResolveArgs(const Schema& schema,
                                        const std::vector<AggCall>& calls) {
  std::vector<size_t> idx;
  for (const auto& call : calls) {
    NED_ASSIGN_OR_RETURN(size_t i, schema.Resolve(call.arg));
    idx.push_back(i);
  }
  return idx;
}

}  // namespace

Result<std::vector<Tuple>> ComputeAggregateTuples(
    const std::vector<Attribute>& group_by, const std::vector<AggCall>& calls,
    const Block& input, const Schema& input_schema, ExecContext* ctx) {
  NED_ASSIGN_OR_RETURN(std::vector<size_t> group_idx,
                       ResolveAll(input_schema, group_by));
  NED_ASSIGN_OR_RETURN(std::vector<size_t> arg_idx,
                       ResolveArgs(input_schema, calls));
  NED_ASSIGN_OR_RETURN(
      RowGroups groups,
      RowGroups::Build({Side{&input, &group_idx}}, KeyEq::kExact, ctx, 0));
  std::vector<Tuple> out;
  out.reserve(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    std::vector<Value> values;
    const Value* key = groups.KeyRow(g);
    for (size_t idx : group_idx) values.push_back(key[idx]);
    NED_RETURN_NOT_OK(
        AggregateInto(input, groups.members(g), calls, arg_idx, ctx, &values));
    out.emplace_back(std::move(values));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------------

Evaluator::Evaluator(const QueryTree* tree, const QueryInput* input,
                     ExecContext* ctx, SubtreeCache* cache)
    : tree_(tree), input_(input), ctx_(ctx), cache_(cache) {
  outputs_.resize(tree_->bottom_up().size());
  for (size_t i = 0; i < tree_->bottom_up().size(); ++i) {
    node_ordinal_.emplace(tree_->bottom_up()[i], i);
  }
}

bool Evaluator::Cacheable(const OperatorNode* node) const {
  return cache_ != nullptr && cache_->enabled() && !node->is_leaf();
}

const std::string& Evaluator::CacheKeyFor(const OperatorNode* node) {
  auto it = cache_keys_.find(node);
  if (it != cache_keys_.end()) return it->second;
  // Appended, not StrCat'd: keys are derived on every evaluation.
  std::string key = "(" + NodeFingerprint(*node) + "#o" +
                    std::to_string(node_ordinal_.at(node));
  if (node->is_leaf()) {
    // Pin the alias ordinal (it determines base rids) and the backing
    // relation's data version (it determines rows); together with the
    // schema inside NodeFingerprint, a scan key changes whenever anything
    // observable about the scan output can change.
    size_t alias_ordinal = 0;
    const auto& order = input_->aliases();
    for (size_t i = 0; i < order.size(); ++i) {
      if (order[i] == node->alias) {
        alias_ordinal = i;
        break;
      }
    }
    key += "#a" + std::to_string(alias_ordinal) + "#v" +
           std::to_string(input_->AliasDataVersion(alias_ordinal));
  }
  for (const auto& child : node->children) {
    key += ";";
    key += CacheKeyFor(child.get());
  }
  key += ")";
  auto [pos, _] = cache_keys_.emplace(node, std::move(key));
  return pos->second;
}

const Block* Evaluator::BlockOfRid(Rid rid, size_t* row) const {
  const Block* block = nullptr;
  if (IsBaseRid(rid)) {
    const uint32_t alias = TupleIdAlias(rid);
    if (alias >= input_->aliases().size()) return nullptr;
    block = &input_->AliasBlock(alias);
  } else {
    const size_t ordinal = ((rid & ~kIntermediateRidBase) >> 40) - 1;
    if (ordinal >= outputs_.size()) return nullptr;
    block = outputs_[ordinal].get();
  }
  if (block == nullptr || rid - block->rid_base() >= block->size()) {
    return nullptr;
  }
  *row = rid - block->rid_base();
  return block;
}

Result<bool> Evaluator::TryReplayCacheHit(const OperatorNode* node) {
  if (BlockPtr hit = cache_->Lookup(CacheKeyFor(node))) {
    // Replay the exact charges recomputation would make, tick-checked so
    // a governed run can still trip its budgets mid-hit. On a trip the
    // node stays unevaluated -- same observable state as a trip during
    // Compute.
    if (ctx_ != nullptr) {
      for (size_t i = 0; i < hit->size(); ++i) {
        NED_EXEC_TICK(ctx_);
        ChargeRow(ctx_, hit->arity());
      }
      ChargeRest(ctx_, *hit);
    }
    // Post-replay boundary check, symmetric with the post-Compute one in
    // EvalNode: without it a pure-hit evaluation could blow its row
    // budget and return OK because no later checkpoint ever runs.
    NED_RETURN_NOT_OK(CheckExec(ctx_));
    tuples_produced_ += hit->size();
    ++cache_hits_;
    outputs_[node_ordinal_.at(node)] = std::move(hit);
    return true;
  }
  ++cache_misses_;
  return false;
}

const Block* Evaluator::Store(const OperatorNode* node, Block block) {
  BlockPtr ptr = std::make_shared<const Block>(std::move(block));
  if (Cacheable(node)) cache_->Insert(CacheKeyFor(node), ptr);
  BlockPtr& slot = outputs_[node_ordinal_.at(node)];
  slot = std::move(ptr);
  return slot.get();
}

Result<const Block*> Evaluator::EvalNode(const OperatorNode* node) {
  if (const Block* done = TryGetOutput(node)) return done;
  // Operator boundary: a governed evaluation re-checks its limits before
  // descending into (and after finishing) each operator.
  NED_RETURN_NOT_OK(CheckExec(ctx_));
  if (Cacheable(node)) {
    NED_ASSIGN_OR_RETURN(bool hit, TryReplayCacheHit(node));
    if (hit) return TryGetOutput(node);
  }
  for (const auto& child : node->children) {
    auto child_result = EvalNode(child.get());
    if (!child_result.ok()) return child_result.status();
  }
  NED_ASSIGN_OR_RETURN(Block block, Compute(node));
  tuples_produced_ += block.size();
  NED_RETURN_NOT_OK(CheckExec(ctx_));
  return Store(node, std::move(block));
}

Result<Block> Evaluator::Compute(const OperatorNode* node) const {
  Result<Block> block = Status::Internal("unknown operator kind in Compute");
  switch (node->kind) {
    case OpKind::kScan: {
      // Scan output is the alias's input instance verbatim (same base rids),
      // viewed in place; it makes no charges.
      NED_ASSIGN_OR_RETURN(const Block* rows, input_->AliasBlock(node->alias));
      return *rows;
    }
    case OpKind::kSelect:
      block = ComputeSelect(node);
      break;
    case OpKind::kProject:
    case OpKind::kUnion:
    case OpKind::kDifference:
      block = ComputeMerge(node);
      break;
    case OpKind::kJoin:
      block = ComputeJoin(node);
      break;
    case OpKind::kAggregate:
      block = ComputeAggregate(node);
      break;
  }
  if (block.ok()) ChargeRest(ctx_, *block);
  return block;
}

Result<Block> Evaluator::ComputeSelect(const OperatorNode* node) const {
  const Block& in = Output(node->children[0].get());
  const size_t arity = node->output_schema.size();
  const BoundPredicate predicate =
      BoundPredicate::Bind(*node->predicate, node->children[0]->output_schema);
  NED_CHECK(in.size() <= UINT32_MAX);
  std::vector<uint32_t> kept;
  for (size_t i = 0; i < in.size(); ++i) {
    NED_EXEC_TICK(ctx_);
    NED_ASSIGN_OR_RETURN(bool keep, predicate.EvalBool(in.values(i).data()));
    if (!keep) continue;
    ChargeRow(ctx_, arity);
    kept.push_back(static_cast<uint32_t>(i));
  }
  size_t ids = 0;
  for (uint32_t i : kept) ids += in.lineage(i).size();
  BlockBuilder out(arity, RidBaseFor(node), 1);
  out.Reserve(kept.size(), ids, 0);
  for (uint32_t i : kept) {
    out.AddValues(in.values(i));
    out.AddLineage(in.lineage(i));
    out.AddPred(in.rid(i));
    out.EndRow();
  }
  return std::move(out).Finish();
}

Result<Block> Evaluator::ComputeMerge(const OperatorNode* node) const {
  // Set semantics: value-equal rows merge; preds list every merged input row
  // and lineage is the union of their lineages (Cui & Widom lineage for
  // projection, union and difference). First-seen order defines the rid
  // order.
  const size_t arity = node->output_schema.size();
  const Block& left = Output(node->children[0].get());
  const Schema& ls = node->children[0]->output_schema;
  // Column order of the output follows nu(left schema) for union and
  // difference; map each side's columns to output positions.
  auto mapping_for = [&](const Schema& side) -> Result<std::vector<size_t>> {
    std::vector<size_t> map(arity, 0);
    for (size_t out_i = 0; out_i < arity; ++out_i) {
      const Attribute& target = node->output_schema.at(out_i);
      bool found = false;
      for (size_t i = 0; i < side.size(); ++i) {
        if (node->renaming.Apply(side.at(i)) == target) {
          map[out_i] = i;
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::TypeError(
            StrCat(node->kind == OpKind::kUnion ? "union" : "difference",
                   " operand missing attribute ", target.FullName()));
      }
    }
    return map;
  };

  std::vector<size_t> lmap, rmap;
  std::vector<uint32_t> survivors;
  std::vector<Side> sides;
  if (node->kind == OpKind::kProject) {
    NED_ASSIGN_OR_RETURN(lmap, ResolveAll(ls, node->projection));
    sides.push_back(Side{&left, &lmap});
  } else {
    const Block& right = Output(node->children[1].get());
    NED_ASSIGN_OR_RETURN(lmap, mapping_for(ls));
    NED_ASSIGN_OR_RETURN(rmap, mapping_for(node->children[1]->output_schema));
    if (node->kind == OpKind::kUnion) {
      sides = {Side{&left, &lmap}, Side{&right, &rmap}};
    } else {
      // Left rows whose aligned value has no right counterpart survive; a
      // survivor's lineage is its left lineage (Cui & Widom difference).
      NED_ASSIGN_OR_RETURN(
          RowGroups right_values,
          RowGroups::Build({Side{&right, &rmap}}, KeyEq::kExact, ctx_, 0));
      for (size_t i = 0; i < left.size(); ++i) {
        NED_EXEC_TICK(ctx_);
        if (right_values.Find(left.values(i).data(), lmap) < 0) {
          survivors.push_back(static_cast<uint32_t>(i));
        }
      }
      sides.push_back(Side{&left, &lmap, &survivors});
    }
  }

  NED_ASSIGN_OR_RETURN(RowGroups groups,
                       RowGroups::Build(std::move(sides), KeyEq::kExact, ctx_,
                                        arity));
  BlockBuilder out(arity, RidBaseFor(node), 0);
  out.Reserve(groups.size(), groups.member_lineage_ids(),
              groups.member_count());
  std::vector<TupleId> scratch;
  for (size_t g = 0; g < groups.size(); ++g) {
    const Value* key = groups.KeyRow(g);
    for (size_t c : groups.KeyCols(g)) out.AddValue(key[c]);
    AddMergedProvenance(&out, groups, g, &scratch);
    out.EndRow();
  }
  return std::move(out).Finish();
}

Result<Block> Evaluator::ComputeJoin(const OperatorNode* node) const {
  const Block& left = Output(node->children[0].get());
  const Block& right = Output(node->children[1].get());
  const Schema& ls = node->children[0]->output_schema;
  const Schema& rs = node->children[1]->output_schema;
  const size_t arity = node->output_schema.size();

  // Key columns from the renaming triples.
  std::vector<size_t> lkey, rkey;
  for (const auto& t : node->renaming.triples()) {
    NED_ASSIGN_OR_RETURN(size_t li, ls.Resolve(t.a1));
    NED_ASSIGN_OR_RETURN(size_t ri, rs.Resolve(t.a2));
    lkey.push_back(li);
    rkey.push_back(ri);
  }

  // Output column sources: (side, index). Renamed attributes read from the
  // left side (values agree by the join condition).
  std::vector<std::pair<int, size_t>> sources;
  for (const auto& attr : node->output_schema.attributes()) {
    std::optional<std::pair<int, size_t>> src;
    if (attr.qualified()) {
      if (auto idx = ls.IndexOf(attr); idx.has_value()) src = {0, *idx};
      else if (auto ridx = rs.IndexOf(attr); ridx.has_value()) src = {1, *ridx};
    } else {
      std::optional<RenameTriple> triple = node->renaming.FindByNewName(attr.name);
      if (triple.has_value()) {
        NED_ASSIGN_OR_RETURN(size_t idx, ls.Resolve(triple->a1));
        src = {0, idx};
      } else if (auto idx = ls.IndexOf(attr); idx.has_value()) {
        src = {0, *idx};  // pre-renamed unqualified attr from below
      } else if (auto ridx = rs.IndexOf(attr); ridx.has_value()) {
        src = {1, *ridx};
      }
    }
    if (!src.has_value()) {
      return Status::Internal("join output attribute has no source: " +
                              attr.FullName());
    }
    sources.push_back(*src);
  }

  // The extra condition is typed by the output schema; remapped onto the
  // (left, right) pair it filters candidates before any row is built.
  std::optional<BoundPredicate> extra;
  if (node->extra_predicate != nullptr) {
    extra = BoundPredicate::Bind(*node->extra_predicate, node->output_schema);
    extra->Remap([&](size_t col) { return sources[col]; });
  }

  // Build on the right side: rows grouped by key under SQL equality (numeric
  // coercion; NULL never joins), each group in right-row order. A cross
  // product matches every right row.
  std::optional<RowGroups> table;
  if (!lkey.empty()) {
    NED_ASSIGN_OR_RETURN(
        RowGroups built,
        RowGroups::Build({Side{&right, &rkey}}, KeyEq::kJoin, ctx_, 0));
    table.emplace(std::move(built));
  }

  // Probe: matching (left, right) row pairs in (left row, bucket) order.
  using Match = std::pair<uint32_t, uint32_t>;
  NED_CHECK(left.size() <= UINT32_MAX && right.size() <= UINT32_MAX);
  std::vector<Match> matches;
  auto try_pair = [&](size_t i, const Value* l, uint32_t r) -> Status {
    // A cross join's inner loop must stay interruptible.
    NED_EXEC_TICK(ctx_);
    const Value* rv = right.values(r).data();
    // A bucket holds keys equal to its first member; verify each.
    for (size_t k = 0; k < lkey.size(); ++k) {
      if (!Value::Satisfies(l[lkey[k]], CompareOp::kEq, rv[rkey[k]])) {
        return Status::OK();
      }
    }
    if (extra.has_value()) {
      NED_ASSIGN_OR_RETURN(bool keep, extra->EvalBool(l, rv));
      if (!keep) return Status::OK();
    }
    ChargeRow(ctx_, arity);
    matches.emplace_back(static_cast<uint32_t>(i), r);
    return Status::OK();
  };
  for (size_t i = 0; i < left.size(); ++i) {
    NED_EXEC_TICK(ctx_);
    const Value* l = left.values(i).data();
    if (!table.has_value()) {
      for (uint32_t r = 0; r < right.size(); ++r) {
        NED_RETURN_NOT_OK(try_pair(i, l, r));
      }
      continue;
    }
    const int64_t g = table->Find(l, lkey);
    if (g < 0) continue;
    for (uint64_t m : table->members(static_cast<size_t>(g))) {
      NED_RETURN_NOT_OK(try_pair(i, l, MemberRow(m)));
    }
  }

  size_t ids = 0;
  for (const auto& [l, r] : matches) {
    ids += left.lineage(l).size() + right.lineage(r).size();
  }
  BlockBuilder out(arity, RidBaseFor(node), 2);
  out.Reserve(matches.size(), ids, 0);
  for (const auto& [l, r] : matches) {
    const Value* lv = left.values(l).data();
    const Value* rv = right.values(r).data();
    for (const auto& [side, index] : sources) {
      out.AddValue(side == 0 ? lv[index] : rv[index]);
    }
    out.AddLineageUnion(left.lineage(l), right.lineage(r));
    out.AddPred(left.rid(l));
    out.AddPred(right.rid(r));
    out.EndRow();
  }
  return std::move(out).Finish();
}

Result<Block> Evaluator::ComputeAggregate(const OperatorNode* node) const {
  const Block& in = Output(node->children[0].get());
  const Schema& child_schema = node->children[0]->output_schema;
  const size_t arity = node->output_schema.size();
  NED_ASSIGN_OR_RETURN(std::vector<size_t> group_idx,
                       ResolveAll(child_schema, node->group_by));
  // Group, preserving first-seen order.
  NED_ASSIGN_OR_RETURN(
      RowGroups groups,
      RowGroups::Build({Side{&in, &group_idx}}, KeyEq::kExact, ctx_, arity));
  std::vector<size_t> arg_idx;
  if (groups.size() > 0) {
    NED_ASSIGN_OR_RETURN(arg_idx, ResolveArgs(child_schema, node->aggregates));
  }
  BlockBuilder out(arity, RidBaseFor(node), 0);
  out.Reserve(groups.size(), groups.member_lineage_ids(),
              groups.member_count());
  std::vector<Value> aggregates;
  std::vector<TupleId> scratch;
  for (size_t g = 0; g < groups.size(); ++g) {
    const Value* key = groups.KeyRow(g);
    for (size_t idx : group_idx) out.AddValue(key[idx]);
    aggregates.clear();
    NED_RETURN_NOT_OK(AggregateInto(in, groups.members(g), node->aggregates,
                                    arg_idx, ctx_, &aggregates));
    for (Value& v : aggregates) out.AddValue(std::move(v));
    AddMergedProvenance(&out, groups, g, &scratch);
    out.EndRow();
  }
  return std::move(out).Finish();
}

}  // namespace ned
