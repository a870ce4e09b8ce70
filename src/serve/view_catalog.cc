#include "serve/view_catalog.h"

namespace pxv {

std::shared_ptr<const QueryPlan> ViewCatalog::PlanFor(const Pattern& q) {
  // (registry fingerprint, query) — the canonical pattern string is the
  // full-fidelity query fingerprint (invariant under predicate reordering,
  // so isomorphic queries share one slot); the registry fingerprint keeps
  // plans compiled against different view sets from colliding when catalogs
  // are swapped or rebuilt.
  std::string key = std::to_string(rewriter_.Fingerprint());
  key += '\n';
  key += q.CanonicalString();
  // Single-flight: concurrent first requests for this shape (a cold-cache
  // fan-out across shards) wait for one compile instead of each running it.
  return cache_.GetOrCompile(key, [&] { return rewriter_.Compile(q); });
}

}  // namespace pxv
