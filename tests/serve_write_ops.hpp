// Single-op writes for tests that drive a ModelRegistry primary directly.
// A primary mutates only through apply_batch (and bootstrap); these wrap one
// insert or one remove as a one-op batch.
#pragma once

#include <span>

#include "serve/model_registry.hpp"

namespace sdb::serve {

/// Insert one point; returns its id.
inline PointId insert_one(ModelRegistry& registry,
                          std::span<const double> coords) {
  const auto op = dbscan::IncrementalDbscan::BatchOp::make_insert(coords);
  return registry.apply_batch({&op, 1})[0].id;
}

/// Remove one point; false if the id is unknown or already removed.
inline bool remove_one(ModelRegistry& registry, PointId id) {
  const auto op = dbscan::IncrementalDbscan::BatchOp::make_remove(id);
  return registry.apply_batch({&op, 1})[0].applied;
}

}  // namespace sdb::serve
