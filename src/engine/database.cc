#include "engine/database.h"

#include "common/random.h"
#include "common/string_util.h"
#include "storage/wisconsin.h"
#include "storage/zipf.h"
#include "xra/plan.h"

namespace mjoin {

Status Database::Add(const std::string& name, Relation relation) {
  if (relations_.contains(name)) {
    return Status::AlreadyExists(StrCat("relation '", name, "' exists"));
  }
  relations_.emplace(name, std::move(relation));
  return Status::OK();
}

StatusOr<const Relation*> Database::Get(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("no relation '", name, "'"));
  }
  return &it->second;
}

Status CheckPlanCatalog(const ParallelPlan& plan, const Database& db) {
  for (const XraOp& o : plan.ops) {
    const Schema* actual = nullptr;
    if (o.kind == XraOpKind::kScan) {
      MJOIN_ASSIGN_OR_RETURN(const Relation* base, db.Get(o.relation));
      actual = &base->schema();
    } else if (o.kind == XraOpKind::kRescan) {
      for (const XraOp& storer : plan.ops) {
        if (storer.store_result == o.stored_result) {
          actual = storer.output_schema.get();
        }
      }
    }
    if (actual != nullptr && !(*actual == *o.output_schema)) {
      return Status::InvalidArgument(
          StrCat(XraOpKindName(o.kind), " ", o.id, " declares schema ",
                 o.output_schema->ToString(), " but reads ",
                 actual->ToString()));
    }
  }
  return Status::OK();
}

size_t Database::TotalBytes() const {
  size_t total = 0;
  for (const auto& [name, relation] : relations_) {
    total += relation.byte_size();
  }
  return total;
}

Database MakeSkewedDatabase(int num_relations, uint32_t cardinality,
                            uint64_t seed, double theta) {
  Database db;
  uint64_t state = seed;
  for (int i = 0; i < num_relations; ++i) {
    uint64_t relation_seed = SplitMix64(&state);
    Relation rel = i == 0
                       ? GenerateWisconsin(cardinality, relation_seed)
                       : GenerateSkewedWisconsin(cardinality, relation_seed,
                                                 theta);
    MJOIN_CHECK_OK(db.Add(StrCat("rel", i), std::move(rel)));
  }
  return db;
}

Database MakeWisconsinDatabase(int num_relations, uint32_t cardinality,
                               uint64_t seed) {
  Database db;
  uint64_t state = seed;
  for (int i = 0; i < num_relations; ++i) {
    uint64_t relation_seed = SplitMix64(&state);
    MJOIN_CHECK_OK(db.Add(StrCat("rel", i),
                          GenerateWisconsin(cardinality, relation_seed)));
  }
  return db;
}

}  // namespace mjoin
