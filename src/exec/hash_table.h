#ifndef MJOIN_EXEC_HASH_TABLE_H_
#define MJOIN_EXEC_HASH_TABLE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/memory_budget.h"
#include "storage/partitioner.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace mjoin {

/// Join hash table over an int32 key, the main-memory table both the
/// simple and the pipelining hash join build. Rows are copied into a
/// contiguous arena. An open-addressing slot array (linear probing) holds
/// one 8-byte slot {key, row} per *distinct* key, so a probe compares keys
/// inside the slot array and reads the arena only for matches. Rows that
/// share a key form a circular list through the per-row `next_` array: the
/// slot names the newest row and next_[newest] the oldest, so matches come
/// back in insertion order. The slot index is the top bits of HashJoinKey,
/// while FragmentOf routes on the hash modulo the fragment count; the keys
/// one fragment holds therefore still spread over all slots.
class JoinHashTable {
 public:
  /// Row indices are uint32 and kNoRow marks an empty slot, so a table
  /// holds at most kMaxRows rows.
  static constexpr size_t kMaxRows = std::numeric_limits<uint32_t>::max();

  JoinHashTable(std::shared_ptr<const Schema> schema, size_t key_column);

  JoinHashTable(const JoinHashTable&) = delete;
  JoinHashTable& operator=(const JoinHashTable&) = delete;

  /// Copies `count` contiguous rows (schema().tuple_size() bytes each)
  /// into the table with one arena append and one budget update. A batch
  /// that would take the table past max_rows() is dropped whole and
  /// latches full(); one that overflows the budget latches over_budget().
  void InsertBatch(const std::byte* rows, size_t count);
  void Insert(const std::byte* row) { InsertBatch(row, 1); }

  /// Invokes `fn(TupleRef)` for every stored row whose key equals `key`,
  /// in insertion order. Returns the number of matches.
  template <typename Fn>
  size_t Probe(int32_t key, Fn&& fn) const {
    if (capacity_ == 0) return 0;
    return VisitMatches(FindSlot(key, SlotOf(key), &probe_collisions_), fn);
  }

  /// Batch-at-a-time probe: first hashes all `n` keys in one tight pass
  /// that prefetches each start slot, then looks each key up. Invokes
  /// `fn(i, TupleRef)` for every stored row matching keys[i], in ascending
  /// i and, per key, in insertion order. Returns the total number of
  /// matches. Equivalent to calling Probe(keys[i], ...) for each i.
  template <typename Fn>
  size_t ProbeBatch(const int32_t* keys, size_t n, Fn&& fn) const {
    if (capacity_ == 0 || n == 0) return 0;
    probe_slots_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const size_t slot = SlotOf(keys[i]);
      probe_slots_[i] = slot;
      __builtin_prefetch(&slots_[slot]);
    }
    size_t matches = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t slot =
          FindSlot(keys[i], probe_slots_[i], &probe_collisions_);
      matches += VisitMatches(slot, [&](TupleRef row) { fn(i, row); });
    }
    return matches;
  }

  /// Invokes `fn(TupleRef)` for every stored row, in insertion order —
  /// the arena scan the skew defense uses to sketch and Bloom-index the
  /// completed build side.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    for (size_t i = 0; i < num_rows_; ++i) fn(RowAt(i));
  }

  size_t size() const { return num_rows_; }
  /// Arena + slot array + duplicate links, for the paper's
  /// FP-uses-more-memory observation.
  size_t memory_bytes() const {
    return arena_.size() + slots_.size() * sizeof(Slot) +
           next_.size() * sizeof(uint32_t);
  }

  const Schema& schema() const { return *schema_; }
  size_t key_column() const { return key_column_; }

  /// Lifetime observability counters; they survive Clear() so a join that
  /// drops a drained table still reports what the table cost to run.
  /// Rows ever inserted (size() reports only the *current* fill).
  uint64_t total_inserted() const { return total_inserted_; }
  /// Occupied slots of other keys stepped over: during probes plus during
  /// inserts (rehashing excluded). Duplicates of the probed key are never
  /// counted. High values relative to total_inserted() mean clustered keys.
  uint64_t collisions() const { return probe_collisions_ + insert_collisions_; }

  /// Releases all storage (used when a pipelining join drains one side).
  void Clear();

  /// Accounts this table's footprint against `budget` (null detaches). An
  /// insert can never fail mid-batch, so an overflowing reservation instead
  /// latches over_budget(); the owning join checks it after every batch
  /// and aborts the query via OpContext::ReportError.
  void AttachBudget(MemoryBudget* budget);
  bool over_budget() const { return over_budget_; }

  /// Latched once a batch was refused for exceeding max_rows(); the owning
  /// join reports it as ResourceExhausted, like over_budget().
  bool full() const { return full_; }
  size_t max_rows() const { return max_rows_; }
  /// Lowers the row bound below kMaxRows, so tests can reach full().
  void set_max_rows(size_t max_rows);

 private:
  static constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();

  /// One distinct key and the newest row carrying it; row == kNoRow marks
  /// an empty slot.
  struct Slot {
    int32_t key;
    uint32_t row;
  };

  TupleRef RowAt(size_t row_index) const {
    return TupleRef(arena_.data() + row_index * schema_->tuple_size(),
                    schema_.get());
  }

  size_t SlotOf(int32_t key) const {
    return static_cast<size_t>(HashJoinKey(key) >> shift_);
  }

  /// The slot holding `key`, or the empty slot where it would go, starting
  /// the linear probe at `slot`. Adds the other keys stepped over to
  /// `*collisions`.
  size_t FindSlot(int32_t key, size_t slot, uint64_t* collisions) const {
    const size_t mask = capacity_ - 1;
    while (slots_[slot].row != kNoRow && slots_[slot].key != key) {
      ++*collisions;
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  /// Walks the duplicate list of the key at `slot` from oldest to newest.
  template <typename Fn>
  size_t VisitMatches(size_t slot, Fn&& fn) const {
    const uint32_t newest = slots_[slot].row;
    if (newest == kNoRow) return 0;
    size_t matches = 0;
    uint32_t row = newest;
    do {
      row = next_[row];
      ++matches;
      fn(RowAt(row));
    } while (row != newest);
    return matches;
  }

  void Grow();

  std::shared_ptr<const Schema> schema_;
  size_t key_column_;
  size_t num_rows_ = 0;
  size_t num_keys_ = 0;  // distinct keys, i.e. occupied slots
  size_t capacity_ = 0;  // power of two; 0 until first insert
  int shift_ = 64;       // 64 - log2(capacity_)
  size_t max_rows_ = kMaxRows;
  std::vector<Slot> slots_;
  // next_[r]: the next-newer row with r's key, or, for the newest, the
  // oldest (a circular list, so appending needs only the newest).
  std::vector<uint32_t> next_;
  std::vector<std::byte> arena_;
  MemoryReservation reservation_;
  bool over_budget_ = false;
  bool full_ = false;
  // Mutable: Probe() is logically const; instances are single-threaded.
  // probe_slots_ is ProbeBatch's reusable start-slot scratch (capacity
  // retained across batches, so the probe path allocates nothing in
  // steady state).
  mutable std::vector<size_t> probe_slots_;
  mutable uint64_t probe_collisions_ = 0;
  uint64_t insert_collisions_ = 0;
  uint64_t total_inserted_ = 0;
};

}  // namespace mjoin

#endif  // MJOIN_EXEC_HASH_TABLE_H_
