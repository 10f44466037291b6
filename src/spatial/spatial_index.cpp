#include "spatial/spatial_index.hpp"

namespace sdb {

void SpatialIndex::range_query_batch(std::span<const PointId> queries,
                                     double eps, const QueryBudget& budget,
                                     NeighborhoodCsr& out) const {
  const PointSet& points = indexed_points();
  out.ids.clear();
  out.offsets.assign(1, 0);
  out.offsets.reserve(queries.size() + 1);
  for (const PointId id : queries) {
    SDB_CHECK(static_cast<u64>(id) < points.size(),
              "range_query_batch: query id is not an indexed point");
    range_query_budgeted(points[id], eps, budget, out.ids);
    out.offsets.push_back(out.ids.size());
  }
}

}  // namespace sdb
