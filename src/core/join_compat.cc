#include "core/join_compat.h"

namespace subshare {

bool EquijoinGraphConnected(const EquivalenceClasses& eq,
                            const std::vector<TableId>& tables,
                            const ColumnRegistry& registry) {
  return eq.ConnectsNodes(
      std::vector<int>(tables.begin(), tables.end()), [&registry](ColId c) {
        const TableId t = registry.info(c).table_id;
        return t >= 0 ? static_cast<int>(t) : -1;
      });
}

bool JoinCompatible(const SpjgNormalForm& a, const SpjgNormalForm& b,
                    const ColumnRegistry& registry) {
  if (a.signature.tables != b.signature.tables) return false;
  EquivalenceClasses inter =
      EquivalenceClasses::Intersect(a.canon_eq, b.canon_eq);
  return EquijoinGraphConnected(inter, a.signature.tables, registry);
}

std::vector<CompatibleGroup> PartitionJoinCompatible(
    const std::vector<SpjgNormalForm>& consumers,
    const ColumnRegistry& registry) {
  std::vector<CompatibleGroup> groups;
  for (size_t i = 0; i < consumers.size(); ++i) {
    bool placed = false;
    for (CompatibleGroup& group : groups) {
      EquivalenceClasses inter = EquivalenceClasses::Intersect(
          group.intersection, consumers[i].canon_eq);
      if (EquijoinGraphConnected(inter, consumers[i].signature.tables,
                                 registry)) {
        group.members.push_back(static_cast<int>(i));
        group.intersection = std::move(inter);
        placed = true;
        break;
      }
    }
    if (!placed) {
      CompatibleGroup group;
      group.members = {static_cast<int>(i)};
      group.intersection = consumers[i].canon_eq;
      // A single expression is compatible with itself only if its own
      // equijoin graph is connected (otherwise it contains a cartesian
      // product we refuse to cover).
      if (EquijoinGraphConnected(group.intersection,
                                 consumers[i].signature.tables, registry)) {
        groups.push_back(std::move(group));
      }
    }
  }
  return groups;
}

}  // namespace subshare
