#include "exec/exec_context.h"

#include "common/strings.h"

namespace ned {

bool IsResourceLimit(const Status& status) {
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
    case StatusCode::kCancelled:
      return true;
    default:
      return false;
  }
}

Status ExecContext::CheckPoint() {
  // Single-writer counter: only the evaluating thread calls CheckPoint, so
  // load+store (a plain mov each, no lock prefix) replaces fetch_add.
  const uint64_t step = steps_.load(std::memory_order_relaxed) + 1;
  steps_.store(step, std::memory_order_relaxed);
  const uint64_t inject_at = inject_at_.load(std::memory_order_relaxed);
  if (inject_at != 0 && step == inject_at) {
    return Status::ResourceExhausted(
        StrCat("injected failure at step ", step));
  }
  if (cancel_requested()) {
    return Status::Cancelled("evaluation cancelled by caller");
  }
  const size_t rows = rows_charged_.load(std::memory_order_relaxed);
  if (row_budget_ != 0 && rows > row_budget_) {
    return Status::ResourceExhausted(
        StrCat("row budget exhausted: materialized ", rows,
               " rows, budget ", row_budget_));
  }
  const size_t bytes = bytes_charged_.load(std::memory_order_relaxed);
  if (memory_budget_ != 0 && bytes > memory_budget_) {
    return Status::ResourceExhausted(
        StrCat("memory budget exhausted: ~", bytes,
               " bytes materialized, budget ", memory_budget_));
  }
  if (deadline_.has_value() && NowAgainstClock() >= *deadline_) {
    return Status::DeadlineExceeded(
        StrCat("deadline exceeded after ", step, " checkpoints"));
  }
  return Status::OK();
}

}  // namespace ned
