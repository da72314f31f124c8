#ifndef MJOIN_ENGINE_RESULT_H_
#define MJOIN_ENGINE_RESULT_H_

#include <cstdint>
#include <vector>

#include "storage/relation.h"

namespace mjoin {

/// Order-insensitive digest of a set of rows: the sum (mod 2^64) of a
/// 64-bit hash of each row's bytes. Two executions produce the same
/// summary iff they produced the same multiset of tuples, regardless of
/// ordering or fragmentation — the cross-strategy correctness check.
struct ResultSummary {
  uint64_t cardinality = 0;
  uint64_t checksum = 0;

  bool operator==(const ResultSummary&) const = default;
};

/// 64-bit hash of the row bytes, mixed a word (8 bytes) at a time. Any
/// single changed byte changes the hash, and the row's size is hashed in.
uint64_t HashRowBytes(const std::byte* row, size_t size);

/// Summary over a whole relation.
ResultSummary SummarizeRelation(const Relation& relation);

/// Summary over distributed fragments (sums commute).
ResultSummary SummarizeFragments(const std::vector<Relation>& fragments);

}  // namespace mjoin

#endif  // MJOIN_ENGINE_RESULT_H_
