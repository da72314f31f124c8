#include "exec/hash_table.h"

#include <algorithm>
#include <bit>

namespace mjoin {

JoinHashTable::JoinHashTable(std::shared_ptr<const Schema> schema,
                             size_t key_column)
    : schema_(std::move(schema)), key_column_(key_column) {
  MJOIN_CHECK(key_column_ < schema_->num_columns());
  MJOIN_CHECK(schema_->column(key_column_).type == ColumnType::kInt32);
}

void JoinHashTable::InsertBatch(const std::byte* rows, size_t count) {
  if (count == 0) return;
  if (count > max_rows_ - num_rows_) {
    full_ = true;
    return;
  }
  const size_t first = num_rows_;
  arena_.insert(arena_.end(), rows, rows + count * schema_->tuple_size());
  next_.resize(first + count);
  num_rows_ += count;
  total_inserted_ += count;
  for (size_t r = first; r < num_rows_; ++r) {
    if (num_keys_ * 10 >= capacity_ * 7) Grow();
    const uint32_t row = static_cast<uint32_t>(r);
    const int32_t key = RowAt(r).GetInt32(key_column_);
    Slot& slot = slots_[FindSlot(key, SlotOf(key), &insert_collisions_)];
    if (slot.row == kNoRow) {
      slot = Slot{key, row};
      next_[row] = row;
      ++num_keys_;
    } else {
      // Append after the newest: the new row links to the oldest and
      // becomes the newest.
      next_[row] = next_[slot.row];
      next_[slot.row] = row;
      slot.row = row;
    }
  }
  if (!reservation_.attached() || reservation_.Resize(memory_bytes()).ok()) {
    return;
  }
  if (!over_budget_) {
    // First overflow: account the rows of this batch that still fit, one
    // at a time, so the budget's high-water mark shows how far the table
    // got before the query aborts.
    const size_t row_bytes = schema_->tuple_size() + sizeof(uint32_t);
    for (size_t left = count - 1; left > 0; --left) {
      if (!reservation_.Resize(memory_bytes() - left * row_bytes).ok()) break;
    }
  }
  over_budget_ = true;
}

void JoinHashTable::Grow() {
  capacity_ = capacity_ == 0 ? 64 : capacity_ * 2;
  shift_ = 64 - std::countr_zero(capacity_);
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity_, Slot{0, kNoRow});
  // Keys are distinct and stored in the slots, so rehashing touches
  // neither the arena nor the collision counters.
  const size_t mask = capacity_ - 1;
  for (const Slot& entry : old) {
    if (entry.row == kNoRow) continue;
    size_t slot = SlotOf(entry.key);
    while (slots_[slot].row != kNoRow) slot = (slot + 1) & mask;
    slots_[slot] = entry;
  }
}

void JoinHashTable::Clear() {
  num_rows_ = 0;
  num_keys_ = 0;
  capacity_ = 0;
  shift_ = 64;
  slots_.clear();
  slots_.shrink_to_fit();
  next_.clear();
  next_.shrink_to_fit();
  arena_.clear();
  arena_.shrink_to_fit();
  // Safe to drop: shrinking a reservation to zero only releases bytes and
  // cannot fail.
  if (reservation_.attached()) (void)reservation_.Resize(0);
}

void JoinHashTable::AttachBudget(MemoryBudget* budget) {
  reservation_.Attach(budget);
  over_budget_ = false;
  if (budget != nullptr && memory_bytes() > 0) {
    over_budget_ = !reservation_.Resize(memory_bytes()).ok();
  }
}

void JoinHashTable::set_max_rows(size_t max_rows) {
  max_rows_ = std::min(max_rows, kMaxRows);
}

}  // namespace mjoin
