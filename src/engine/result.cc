#include "engine/result.h"

#include <cstring>

#include "common/random.h"

namespace mjoin {

namespace {

uint64_t LoadWord(const std::byte* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

}  // namespace

uint64_t HashRowBytes(const std::byte* row, size_t size) {
  // Four independent lanes keep four mixes in flight. Each step
  // lane = Mix64(lane ^ word) is a bijection of the lane for a fixed word
  // and injective in the word for a fixed lane, and the final fold is
  // injective in every lane, so changing any one byte changes the hash.
  uint64_t lane[4] = {size, 0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL,
                      0xa4093822299f31d0ULL};
  size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    for (size_t j = 0; j < 4; ++j) {
      lane[j] = Mix64(lane[j] ^ LoadWord(row + i + 8 * j));
    }
  }
  for (; i + 8 <= size; i += 8) lane[0] = Mix64(lane[0] ^ LoadWord(row + i));
  if (i < size) {
    // Zero-padded tail; the size seeded lane 0, so the padding does not
    // make rows of different sizes collide by construction.
    uint64_t tail = 0;
    std::memcpy(&tail, row + i, size - i);
    lane[1] = Mix64(lane[1] ^ tail);
  }
  uint64_t hash = lane[0];
  for (size_t j = 1; j < 4; ++j) hash = Mix64(hash) ^ lane[j];
  return Mix64(hash);
}

ResultSummary SummarizeRelation(const Relation& relation) {
  ResultSummary summary;
  size_t row_size = relation.schema().tuple_size();
  for (size_t i = 0; i < relation.num_tuples(); ++i) {
    summary.checksum += HashRowBytes(relation.tuple(i).data(), row_size);
    ++summary.cardinality;
  }
  return summary;
}

ResultSummary SummarizeFragments(const std::vector<Relation>& fragments) {
  ResultSummary summary;
  for (const Relation& fragment : fragments) {
    ResultSummary part = SummarizeRelation(fragment);
    summary.cardinality += part.cardinality;
    summary.checksum += part.checksum;
  }
  return summary;
}

}  // namespace mjoin
