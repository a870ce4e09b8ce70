// ViewServer — per-shard execution state of the serving stack: a thread
// pool that fans view materialization out (one EvalSession per worker
// shard) and batches AnswerAll across queries, plus the current
// materialized-extension snapshot. The logical half — the view registry,
// the standing-query list and the compiled-plan cache — lives in a
// ViewCatalog (serve/view_catalog.h) that may be SHARED across servers:
// a ShardedCorpus runs one ViewServer per shard over one catalog, so a
// query shape compiles once and executes everywhere. The default
// constructor creates a private catalog, which is the single-store
// configuration every pre-sharding caller gets unchanged.
//
// Concurrency contract: register views (AddView) before serving. After
// that, Materialize / Answer / AnswerAll may be called freely from any
// number of threads — extensions are swapped atomically as an immutable
// snapshot, so in-flight answers keep reading the extensions they started
// with. Do not call the serving methods from inside the server's own pool
// tasks (see util/thread_pool.h).

#ifndef PXV_SERVE_VIEW_SERVER_H_
#define PXV_SERVE_VIEW_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "prob/eval_session.h"
#include "pxml/pdocument.h"
#include "pxml/view_extension.h"
#include "rewrite/planner.h"
#include "rewrite/rewriter.h"
#include "serve/plan_cache.h"
#include "serve/view_catalog.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace pxv {

struct ViewServerOptions {
  /// Worker threads; ≤ 0 picks ThreadPool::DefaultThreads().
  int threads = 0;
  /// Compiled plans kept before LRU eviction (private-catalog ctor only;
  /// a shared catalog brings its own cache).
  size_t plan_cache_capacity = 1024;
  /// Passed through to BuildViewExtension during materialization.
  ViewExtensionOptions extension_options;
};

/// Monotonic serving counters (one consistent snapshot per stats() call).
/// plan_cache_hits/misses read the catalog's cache — shared totals when the
/// catalog is shared across servers. A miss is exactly one plan compile; a
/// request that joins a compile already in flight counts as a hit.
struct ViewServerStats {
  int64_t queries = 0;           ///< Answer calls (AnswerAll counts each).
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  int64_t unanswerable = 0;      ///< Answers that returned nullopt.
  int64_t materializations = 0;  ///< Materialize calls.
  int64_t cached_queries = 0;    ///< Standing queries registered.
  int64_t cached_batches = 0;    ///< AnswerAllCached calls.
  int64_t whatifs = 0;           ///< WhatIf calls.
};

/// One hypothetical probability change for ViewServer::WhatIf, addressed
/// like DocMutation: by persistent id, so it survives compaction remaps.
struct WhatIfChange {
  /// Hypothetical edge probability: the node's probability under its
  /// distributional parent becomes `prob`.
  static WhatIfChange Edge(PersistentId pid, double prob) {
    WhatIfChange c;
    c.target = pid;
    c.prob = prob;
    return c;
  }
  /// Hypothetical exp-distribution slot change: subset `slot` of the exp
  /// node that is child `dist_child_index` of `pid` gets probability
  /// `prob`. The subset structure is untouched — values only.
  static WhatIfChange ExpSlot(PersistentId pid, int dist_child_index,
                              int slot, double prob) {
    WhatIfChange c;
    c.target = pid;
    c.dist_child_index = dist_child_index;
    c.slot = slot;
    c.prob = prob;
    return c;
  }

  PersistentId target = kNullPid;
  int dist_child_index = -1;  ///< < 0 → edge change; ≥ 0 → exp slot change.
  int slot = -1;              ///< Subset index for exp slot changes.
  double prob = 1.0;
};

class ViewServer {
 public:
  /// Single-store form: creates a private catalog.
  explicit ViewServer(ViewServerOptions options = {});

  /// Shard form: executes against a caller-shared catalog (view registry +
  /// plan cache + standing queries). The catalog must be non-null and
  /// follows its own registration-before-serving contract.
  ViewServer(std::shared_ptr<ViewCatalog> catalog, ViewServerOptions options);

  /// The logical catalog this server executes against.
  const std::shared_ptr<ViewCatalog>& catalog() const { return catalog_; }

  /// Registers a view on the catalog. Must happen before Materialize/Answer.
  void AddView(std::string name, Pattern def) {
    catalog_->AddView(std::move(name), std::move(def));
  }

  /// Registers a standing (cached) query for the shared-circuit batch path
  /// (AnswerAllCached). Like AddView, registration must happen before
  /// serving; duplicate canonical forms are kept once.
  void RegisterCachedQuery(const Pattern& q) {
    catalog_->RegisterCachedQuery(q);
  }

  /// The standing queries, in registration order.
  const std::vector<Pattern>& cached_queries() const {
    return catalog_->cached_queries();
  }

  const Rewriter& rewriter() const { return catalog_->rewriter(); }
  ThreadPool& pool() { return pool_; }
  PlanCache& plan_cache() { return catalog_->plan_cache(); }

  /// Materializes every registered view over `pd` in parallel across the
  /// pool and publishes the result as the current extension snapshot.
  void Materialize(const PDocument& pd);

  /// Publishes caller-built extensions (e.g. loaded from storage, or a
  /// deliberately partial set) as the current snapshot.
  void SetExtensions(ViewExtensions exts);

  /// Current extension snapshot; empty (but non-null) before the first
  /// Materialize/SetExtensions.
  std::shared_ptr<const ViewExtensions> extensions() const;

  /// The compiled plan for q — the catalog's shared (registry fingerprint,
  /// query) keyed cache, compiling only on a miss (once per shape, however
  /// many threads ask at once).
  std::shared_ptr<const QueryPlan> PlanFor(const Pattern& q) {
    return catalog_->PlanFor(q);
  }

  /// Answers q from the current extension snapshot via the cheapest
  /// executable plan candidate. nullopt when q has no rewriting or no
  /// candidate is executable over the snapshot.
  std::optional<std::vector<PidProb>> Answer(const Pattern& q);

  /// Answers q from a caller-provided extension set instead of the server's
  /// own snapshot, still sharing the plan cache and stats. This is how the
  /// DocumentStore serves per-document snapshots through one server — the
  /// same concurrency contract applies (the caller keeps `exts` alive and
  /// immutable for the duration of the call).
  std::optional<std::vector<PidProb>> AnswerWith(const Pattern& q,
                                                 const ExtensionSet& exts);

  /// Batched serving: answers every query, sharing the plan cache and the
  /// extension snapshot, fanning the queries out across the pool. Result i
  /// corresponds to queries[i].
  std::vector<std::optional<std::vector<PidProb>>> AnswerAll(
      const std::vector<Pattern>& queries);

  /// Answers every registered standing query directly over `session`'s
  /// document (no view rewriting), pid-keyed; result i corresponds to
  /// cached_queries()[i]. With a BackendKind::kCircuit session each query
  /// registers on the session's ONE shared lineage circuit, so a document
  /// delta costs a single merged dirty-cone propagation for the whole set
  /// — the standing-query batch path DocumentStore::Apply drives. The
  /// caller owns the session (one per document per thread, per the
  /// EvalSession contract).
  std::vector<std::vector<PidProb>> AnswerAllCached(EvalSession* session);

  /// Hypothetical serving: Pr(n ∈ q(P)) for every answer candidate under
  /// the probability overrides in `changes`, WITHOUT committing a mutation
  /// — the document is bitwise untouched afterwards. With a kCircuit
  /// session this is one overlay re-propagation through the shared lineage
  /// circuit (restore included); overrides that flip a recorded guard, or
  /// sessions on other backends, fall back to evaluating a mutated copy —
  /// either way the answers are exactly what Answer would return had the
  /// changes been applied. The caller owns the session (single-threaded,
  /// per the EvalSession contract). Errors on unknown pids, malformed
  /// addresses, or probabilities a real mutation would reject.
  StatusOr<std::vector<PidProb>> WhatIf(EvalSession* session,
                                        const Pattern& q,
                                        const std::vector<WhatIfChange>& changes);

  /// Convenience form over a transient per-call circuit session — the
  /// pxvq route. Repeated what-ifs should hold a session (or go through
  /// DocumentStore::WhatIf, which reuses the standing session).
  StatusOr<std::vector<PidProb>> WhatIf(const PDocument& doc, const Pattern& q,
                                        const std::vector<WhatIfChange>& changes);

  ViewServerStats stats() const;

 private:
  std::optional<std::vector<PidProb>> AnswerOne(
      const Pattern& q, const ExtensionSet& exts);

  ViewServerOptions options_;
  std::shared_ptr<ViewCatalog> catalog_;
  ThreadPool pool_;

  mutable std::mutex exts_mu_;
  std::shared_ptr<const ViewExtensions> exts_;

  std::atomic<int64_t> queries_{0};
  std::atomic<int64_t> unanswerable_{0};
  std::atomic<int64_t> materializations_{0};
  std::atomic<int64_t> cached_batches_{0};
  std::atomic<int64_t> whatifs_{0};
};

}  // namespace pxv

#endif  // PXV_SERVE_VIEW_SERVER_H_
