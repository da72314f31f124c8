#ifndef MJOIN_ENGINE_DATABASE_H_
#define MJOIN_ENGINE_DATABASE_H_

#include <map>
#include <string>

#include "common/statusor.h"
#include "storage/relation.h"

namespace mjoin {

struct ParallelPlan;

/// A named collection of main-memory base relations (the "database" of one
/// experiment). Relations are owned by the database; executors fragment
/// them per query according to the plan's placement.
class Database {
 public:
  Database() = default;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Registers `relation` under `name`; fails if the name exists.
  [[nodiscard]] Status Add(const std::string& name, Relation relation);

  [[nodiscard]] StatusOr<const Relation*> Get(const std::string& name) const;
  bool Contains(const std::string& name) const {
    return relations_.contains(name);
  }
  size_t size() const { return relations_.size(); }

  /// Total bytes across all relations.
  size_t TotalBytes() const;

 private:
  std::map<std::string, Relation> relations_;
};

/// InvalidArgument unless every scan of `plan` reads a relation of `db`
/// (NotFound when it names none) whose schema is exactly the one the scan
/// declares, and every rescan
/// declares the schema of the result it reads. Plan text from a client may
/// name any relation and any columns, so executors bind each plan here,
/// once, before they partition or ship anything.
[[nodiscard]] Status CheckPlanCatalog(const ParallelPlan& plan,
                                      const Database& db);

/// Builds the paper's test database: `num_relations` Wisconsin relations
/// named rel0..relN-1 of `cardinality` tuples each, generated from
/// independent seeds derived from `seed` (so no correlation exists between
/// the unique attributes of different relations).
Database MakeWisconsinDatabase(int num_relations, uint32_t cardinality,
                               uint64_t seed);

/// Skew-extension database: rel0 is a regular Wisconsin relation (unique1
/// a permutation); rel1..relN-1 have Zipf(theta)-skewed unique1 columns.
/// On the *linear* chain query every join stays 1:1 in total result size,
/// but hash declustering concentrates the hot keys on few nodes — the load
/// imbalance the paper's "non-skewed partitioning" assumption rules out.
Database MakeSkewedDatabase(int num_relations, uint32_t cardinality,
                            uint64_t seed, double theta);

}  // namespace mjoin

#endif  // MJOIN_ENGINE_DATABASE_H_
