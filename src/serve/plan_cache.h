// Thread-safe LRU cache of compiled QueryPlans, keyed by the query's
// canonical pattern string (tp/pattern.h — invariant under predicate
// reordering, so repeated *and isomorphic* queries share one slot; the
// 64-bit Fingerprint rides along in the plan for cheap external keying).
// Values are shared_ptr<const QueryPlan> so a reader can keep executing a
// plan that a concurrent insert has just evicted.
//
// Compiles are single-flight per key (GetOrCompile): concurrent first
// requests for one key wait for a single compile instead of each paying the
// worst-case exponential TPIrewrite search. So a miss is exactly one
// compile, and joining an in-flight compile counts as a hit.

#ifndef PXV_SERVE_PLAN_CACHE_H_
#define PXV_SERVE_PLAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "rewrite/planner.h"

namespace pxv {

class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 1024);

  /// The plan under `key`, compiling it with `compile` only when it is
  /// neither cached nor being compiled. The first caller for a key records
  /// an in-flight entry, runs `compile` outside the cache lock and publishes
  /// the plan; concurrent callers for the same key wait for that one plan
  /// (lookups of other keys never wait behind a compile). If `compile`
  /// throws, the in-flight entry is removed, every waiter rethrows the same
  /// exception, and the next request compiles again. Counts one miss per
  /// compile and one hit per caller served a cached or joined plan.
  std::shared_ptr<const QueryPlan> GetOrCompile(
      const std::string& key, const std::function<QueryPlan()>& compile);

  /// Returns the cached plan and refreshes its LRU position, or nullptr.
  /// A bare probe: neither compiles nor counts toward hits()/misses().
  std::shared_ptr<const QueryPlan> Lookup(const std::string& key);

  /// Inserts the plan under `key` unless the key is already cached — an
  /// existing entry wins, so callers converge on one plan instance — and
  /// evicts the least recently used entry when over capacity. Returns the
  /// stored pointer.
  std::shared_ptr<const QueryPlan> Insert(const std::string& key,
                                          std::shared_ptr<const QueryPlan> plan);

  size_t size() const;
  size_t capacity() const { return capacity_; }
  int64_t hits() const;
  int64_t misses() const;
  /// Drops every cached plan and zeroes the counters. Compiles already in
  /// flight still publish their plans when they finish.
  void Clear();

 private:
  using Plan = std::shared_ptr<const QueryPlan>;
  using LruList = std::list<std::pair<std::string, Plan>>;

  Plan LookupLocked(const std::string& key);
  Plan InsertLocked(const std::string& key, Plan plan);

  const size_t capacity_;
  mutable std::mutex mu_;
  LruList lru_;  // Front = most recently used.
  std::unordered_map<std::string, LruList::iterator> index_;
  // Keys whose compile is running; the future resolves to the published
  // plan (or the compile's exception).
  std::unordered_map<std::string, std::shared_future<Plan>> in_flight_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

}  // namespace pxv

#endif  // PXV_SERVE_PLAN_CACHE_H_
