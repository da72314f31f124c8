#ifndef MJOIN_STORAGE_PARTITIONER_H_
#define MJOIN_STORAGE_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/statusor.h"
#include "storage/relation.h"

namespace mjoin {

/// Hash used for all hash partitioning and join hash tables, so that a
/// relation fragmented on its join attribute lands build and probe tuples
/// with equal keys on the same fragment/bucket. Fragments take the hash
/// modulo their count and hash tables take its high bits, so the keys that
/// land on one fragment still spread over all of a table's slots.
inline uint64_t HashJoinKey(int32_t key) {
  return Mix64(static_cast<uint64_t>(static_cast<uint32_t>(key)));
}

/// Maps a join key to one of `num_fragments` destinations.
inline uint32_t FragmentOf(int32_t key, uint32_t num_fragments) {
  return static_cast<uint32_t>(HashJoinKey(key) % num_fragments);
}

/// Splits `input` into `num_fragments` relations by hash of the int32
/// column `key_column` (the shared-nothing "declustering" of PRISMA/DB).
StatusOr<std::vector<Relation>> HashPartition(const Relation& input,
                                              size_t key_column,
                                              uint32_t num_fragments);

/// Splits `input` into `num_fragments` relations round-robin (used for
/// non-key declustering).
std::vector<Relation> RoundRobinPartition(const Relation& input,
                                          uint32_t num_fragments);

/// Splits `input` by equal-width ranges of the int32 column `key_column`
/// over [lo, hi].
StatusOr<std::vector<Relation>> RangePartition(const Relation& input,
                                               size_t key_column,
                                               uint32_t num_fragments,
                                               int32_t lo, int32_t hi);

/// Concatenates fragments back into one relation (order = fragment order).
Relation ConcatFragments(const std::vector<Relation>& fragments);

}  // namespace mjoin

#endif  // MJOIN_STORAGE_PARTITIONER_H_
