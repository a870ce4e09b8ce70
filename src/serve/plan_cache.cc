#include "serve/plan_cache.h"

#include <exception>

#include "util/check.h"

namespace pxv {

PlanCache::PlanCache(size_t capacity) : capacity_(capacity) {
  PXV_CHECK(capacity_ > 0) << "plan cache capacity must be positive";
}

std::shared_ptr<const QueryPlan> PlanCache::GetOrCompile(
    const std::string& key, const std::function<QueryPlan()>& compile) {
  std::unique_lock<std::mutex> lock(mu_);
  if (Plan plan = LookupLocked(key)) {
    ++hits_;
    return plan;
  }
  if (const auto it = in_flight_.find(key); it != in_flight_.end()) {
    const std::shared_future<Plan> joined = it->second;
    lock.unlock();
    Plan plan = joined.get();  // Rethrows if the compile threw.
    lock.lock();
    ++hits_;
    return plan;
  }
  ++misses_;
  std::promise<Plan> published;
  in_flight_.emplace(key, published.get_future().share());
  lock.unlock();

  Plan plan;
  try {
    plan = std::make_shared<const QueryPlan>(compile());
  } catch (...) {
    lock.lock();
    in_flight_.erase(key);
    lock.unlock();
    published.set_exception(std::current_exception());
    throw;
  }
  lock.lock();
  in_flight_.erase(key);
  plan = InsertLocked(key, std::move(plan));
  lock.unlock();
  published.set_value(plan);
  return plan;
}

std::shared_ptr<const QueryPlan> PlanCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  return LookupLocked(key);
}

std::shared_ptr<const QueryPlan> PlanCache::Insert(
    const std::string& key, std::shared_ptr<const QueryPlan> plan) {
  std::lock_guard<std::mutex> lock(mu_);
  return InsertLocked(key, std::move(plan));
}

PlanCache::Plan PlanCache::LookupLocked(const std::string& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // Move to front.
  return it->second->second;
}

PlanCache::Plan PlanCache::InsertLocked(const std::string& key, Plan plan) {
  if (Plan existing = LookupLocked(key)) return existing;
  lru_.emplace_front(key, std::move(plan));
  index_.emplace(key, lru_.begin());
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  return lru_.front().second;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

int64_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

int64_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  hits_ = 0;
  misses_ = 0;
}

}  // namespace pxv
