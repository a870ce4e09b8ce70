// DocumentStore — the versioned document layer under the ViewServer.
//
// The paper's serving model (§3.1, §4–§5) materializes view extensions over
// one immutable p-document. Real probabilistic sources mutate — new results
// arrive, confidences get revised — so the store owns *named* documents and
// pushes delta updates through the whole stack:
//
//   * mutation batches (pxml/pdocument.h) are applied transactionally: the
//     batch is validated as a whole and rolled back entirely when any step
//     or the resulting document is invalid;
//   * each document keeps one persistent EvalSession whose exact-DP subtree
//     memo (prob/engine.h SubtreeCache) makes re-evaluation after a batch
//     cost O(depth × |delta|) region computations instead of O(|P̂|);
//   * per (document, view) the store tracks dirtiness by label overlap —
//     a batch can only change a view's results if some label of the view's
//     pattern occurs in a changed subtree — and MaterializeIncremental
//     patches only the dirty views' extensions (BuildViewExtensionDelta),
//     republishing the untouched ones by shared pointer;
//   * snapshots swap atomically per document: Answer/AnswerAll keep reading
//     the snapshot they started with while MaterializeIncremental runs, the
//     same contract ViewServer gives for its own single-document snapshot.
//
// Incremental materialization is bit-identical to a from-scratch
// Materialize over the mutated document: same result sets, same anchored
// probabilities (down to floating-point rounding), same traversal order of
// every extension. It falls back to a full per-view rebuild when a view has
// no previous materialization; the engine-level memo likewise falls back to
// a full recompute when a mutation shifts the root frame epoch (e.g. the
// last occurrence of a query label disappeared).
//
// Threading: Answer/AnswerAll/Snapshot may be called freely from any
// thread. Put/Apply/MaterializeIncremental are serialized per document by
// the store (sessions are single-threaded state); calls for different
// documents proceed in parallel.

#ifndef PXV_SERVE_DOCUMENT_STORE_H_
#define PXV_SERVE_DOCUMENT_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "prob/eval_session.h"
#include "pxml/pdocument.h"
#include "pxml/view_extension.h"
#include "serve/view_server.h"
#include "serve/wal.h"
#include "util/status.h"

namespace pxv {

/// One mutation of a stored document. Targets are addressed by persistent
/// id (stable across versions), not NodeId (an arena detail).
struct DocMutation {
  enum class Kind {
    kInsertSubtree,        ///< Copy `subtree` as a new child of `target`.
    kRemoveSubtree,        ///< Detach the subtree rooted at `target`.
    kSetEdgeProb,          ///< Set `target`'s incoming edge probability.
    kSetExpDistribution,   ///< Replace an exp node's subset distribution
                           ///< (exp nodes have no pid — address them via
                           ///< `target` + `dist_child_index`).
  };
  Kind kind = Kind::kSetEdgeProb;
  PersistentId target = kNullPid;  ///< Ordinary node addressed by pid.
  /// Exp nodes carry no pid; kSetExpDistribution addresses one as the
  /// `dist_child_index`-th child of the ordinary node `target`. (Edge
  /// probabilities never need this: every edge whose probability is free —
  /// a mux/ind alternative — either enters an ordinary node, which has its
  /// own pid, or enters a nested distributional node, which this model
  /// treats as structure, not as an adjustable weight.)
  int dist_child_index = -1;
  double prob = 1.0;               ///< Edge probability (insert / setedge).
  PDocument subtree;               ///< Insert payload.
  std::vector<std::pair<std::vector<int>, double>> exp_dist;

  /// `sub`'s ordinary nodes must carry pids that do not occur in the
  /// target document (and are unique within `sub`) — persistent-id
  /// uniqueness is what every pid-addressed path relies on; colliding
  /// payloads reject the batch.
  static DocMutation InsertSubtree(PersistentId parent, PDocument sub,
                                   double prob = 1.0);
  static DocMutation RemoveSubtree(PersistentId target);
  static DocMutation SetEdgeProb(PersistentId target, double prob);
  static DocMutation SetExpDistribution(
      PersistentId target, int child_index,
      std::vector<std::pair<std::vector<int>, double>> dist);
};

struct DocumentStoreOptions {
  /// Session options for the per-document evaluation sessions. The store
  /// forces cache_subtrees = true unless `incremental` is off.
  EvalOptions eval;
  /// Passed through to extension building / patching.
  ViewExtensionOptions extension_options;
  /// When false, every materialization rebuilds every view from scratch
  /// (debug / baseline benchmarking).
  bool incremental = true;
  /// Compact a stored document inside Apply once its detached tombstones
  /// outweigh the live nodes (detached_count * 2 > size — the same rule
  /// the extension patcher uses). Off ⇒ the node arena grows forever under
  /// sustained RemoveSubtree churn (tombstone ids are never reused).
  bool compact_documents = true;
  /// Refresh the standing-query answers (the server's RegisterCachedQuery
  /// set) inside Apply, right after a batch commits: one merged propagation
  /// of the document's shared lineage circuit re-serves every cached query
  /// (AnswerAllCached then costs a copy). Off ⇒ the refresh happens lazily
  /// on the next AnswerAllCached call instead.
  bool refresh_cached_on_apply = true;

  // ------------------------------------------------------- durability ----
  /// When non-empty, the store is durable: every Put/Apply/Drop/Compact is
  /// written to a write-ahead log in this directory before it takes effect,
  /// and DocumentStore::Open recovers the full document set from the latest
  /// checkpoint plus the WAL tail. Durable stores must be created via
  /// Open(); the plain constructor rejects a non-empty durable_dir.
  std::string durable_dir;
  /// When to fsync the WAL (see serve/wal.h for the loss windows).
  FsyncPolicy fsync = FsyncPolicy::kBatch;
  /// kBatch hard bound: the write path fsyncs inline once this many
  /// records are outstanding. Under kBatch a background flusher thread
  /// fsyncs continuously off the write path, so the TYPICAL loss window
  /// is one fsync latency worth of records; this bound only kicks in when
  /// the flusher cannot keep up (or failed). Keep it several times the
  /// number of records one fsync-duration admits — a sustained fdatasync
  /// runs hundreds of microseconds, and a bound near that threshold makes
  /// every write stall behind a barrier fsync it did not need.
  int sync_every_records = 1024;
  /// Auto-checkpoint once the live WAL segment exceeds this many bytes
  /// (checked after Apply commits, outside the document lock). <= 0
  /// disables automatic checkpoints; Checkpoint() is always available.
  int64_t checkpoint_after_wal_bytes = 8 << 20;
  /// File-system seam, for fault injection in tests. nullptr ⇒ the real
  /// POSIX environment. Must outlive the store.
  IoEnv* io_env = nullptr;
};

/// Monotonic counters (one consistent snapshot per stats() call).
struct DocumentStoreStats {
  int64_t batches = 0;            ///< Successfully applied mutation batches.
  int64_t mutations = 0;          ///< Mutations inside those batches.
  int64_t rejected_batches = 0;   ///< Batches rolled back.
  int64_t materializations = 0;   ///< MaterializeIncremental calls.
  int64_t views_patched = 0;      ///< Views updated via extension delta.
  int64_t views_rebuilt = 0;      ///< Views rebuilt from scratch.
  int64_t views_clean = 0;        ///< Views republished untouched.
  int64_t compactions = 0;        ///< Document arenas rebuilt (tombstones).
  int64_t nodes_reclaimed = 0;    ///< Tombstones dropped by those rebuilds.
  int64_t wal_appends = 0;        ///< Records appended to the WAL.
  int64_t wal_bytes = 0;          ///< Framed bytes appended to the WAL.
  int64_t checkpoints = 0;        ///< Checkpoints durably written.
  int64_t recoveries = 0;         ///< 1 when this store came up via Open().
  int64_t torn_records_dropped = 0;  ///< Torn WAL tails dropped at recovery.
  int64_t read_only = 0;          ///< 1 once the store degraded (see below).
  int64_t cached_refreshes = 0;   ///< Standing-query answer refreshes
                                  ///< (merged shared-circuit propagations).
};

/// Serialization of a DocMutation batch — the kApply WAL record body.
/// Exposed for tests and tooling; the encoding round-trips every mutation
/// field (insert payloads ride as full PDocument images).
std::string EncodeMutationBatch(const std::vector<DocMutation>& batch);
StatusOr<std::vector<DocMutation>> DecodeMutationBatch(std::string_view bytes);

class DocumentStore {
 public:
  /// The server supplies the view registry, plan cache and stats; it must
  /// outlive the store. Register views (server->AddView) before Put.
  /// In-memory stores only — a non-empty options.durable_dir is a checked
  /// fatal error here; durable stores are created via Open().
  explicit DocumentStore(ViewServer* server,
                         DocumentStoreOptions options = {});

  ~DocumentStore();

  /// Opens (or creates) a durable store rooted at options.durable_dir:
  /// loads the newest valid checkpoint, replays the WAL tail beyond each
  /// document's checkpointed lsn — a torn or corrupt trailing record is
  /// dropped without disturbing any earlier committed batch — rebuilds
  /// every materialized view, and starts a fresh WAL segment for new
  /// writes. Register views (server->AddView) before calling: recovery
  /// materializes against the server's view set.
  static StatusOr<std::unique_ptr<DocumentStore>> Open(
      ViewServer* server, DocumentStoreOptions options);

  /// Durably snapshots every stored document and truncates the WAL to the
  /// records newer than the snapshot. Document serialization runs under
  /// each document's write lock in turn; the file I/O runs with no lock
  /// held. A failed checkpoint leaves the store fully writable — the WAL
  /// is still the source of truth — and is simply retried later. No-op
  /// returning OK when another thread is already checkpointing.
  Status Checkpoint();

  /// True once the store has degraded to read-only: a WAL append or fsync
  /// failed, so new writes could no longer be made durable. Every
  /// subsequent Put/Apply/Drop/Compact fails fast; reads (Answer/Snapshot/
  /// Find/stats) keep serving the last acknowledged state.
  ///
  /// Durability of the write that tripped this flag is INDETERMINATE (the
  /// standard WAL contract): if the append itself failed, the record never
  /// reached the log (or reached it torn — recovery drops it); if the
  /// fsync failed after a complete append, the frame sits unsynced in the
  /// OS file, so a process restart replays it while a machine crash loses
  /// it. In-memory state always rolls back, so this store keeps serving
  /// the pre-batch state either way. Batches rejected by VALIDATION are a
  /// different matter entirely: they are never written to the log.
  bool read_only() const {
    return read_only_.load(std::memory_order_acquire);
  }

  /// Registers (or replaces) a named document and fully materializes every
  /// registered view over it. Returns an error when the document is invalid.
  Status Put(const std::string& name, PDocument doc);

  /// Removes a named document (snapshots already handed out stay valid).
  Status Drop(const std::string& name);

  std::vector<std::string> Names() const;

  /// Applies `batch` to the named document as one transaction: either every
  /// mutation applies and the resulting document validates, or the document
  /// is left exactly as before and an error is returned. On success the
  /// affected views are marked dirty (label overlap with the changed
  /// subtrees) and the document's new uid is returned. Extensions are NOT
  /// refreshed — call MaterializeIncremental (the snapshot keeps serving
  /// the pre-batch state until then).
  StatusOr<uint64_t> Apply(const std::string& name,
                           const std::vector<DocMutation>& batch);

  /// Re-materializes the named document's dirty views — incrementally when
  /// possible — and atomically publishes a new snapshot. Clean views are
  /// republished without copying.
  Status MaterializeIncremental(const std::string& name);

  /// Forces a tombstone compaction of the named document regardless of the
  /// detached ratio (Apply triggers the same rebuild automatically past
  /// the threshold). Runs under the document's write lock; published
  /// extension snapshots are untouched (extensions key on pids and own
  /// their arenas), each view's NodeId bookkeeping is remapped so the next
  /// MaterializeIncremental still patches instead of rebuilding, and only
  /// this document's subtree memo is dropped. Returns the number of
  /// tombstone nodes reclaimed (0 when none were detached).
  StatusOr<int> Compact(const std::string& name);

  /// Views currently marked dirty for the named document (empty when the
  /// name is unknown).
  std::vector<std::string> DirtyViews(const std::string& name) const;

  /// The named document's current extension snapshot (nullptr when the
  /// name is unknown). Valid and immutable forever.
  std::shared_ptr<const SharedExtensions> Snapshot(
      const std::string& name) const;

  /// Answers q from the named document's current snapshot through the
  /// server's plan cache. nullopt when the name is unknown, q has no
  /// rewriting, or no plan candidate is executable.
  std::optional<std::vector<PidProb>> Answer(const std::string& name,
                                             const Pattern& q);

  /// Batched serving over one snapshot of the named document.
  std::vector<std::optional<std::vector<PidProb>>> AnswerAll(
      const std::string& name, const std::vector<Pattern>& queries);

  /// Answers every standing query registered on the server
  /// (ViewServer::RegisterCachedQuery) over the named document's CURRENT
  /// contents, pid-keyed; result i corresponds to
  /// server->cached_queries()[i]. Served straight from the answers the
  /// last Apply refreshed when the document has not moved since
  /// (refresh_cached_on_apply); otherwise one merged propagation of the
  /// document's shared lineage circuit refreshes the whole set first.
  /// nullopt when the name is unknown. Serialized with the write path per
  /// document (the standing session is single-threaded state).
  std::optional<std::vector<std::vector<PidProb>>> AnswerAllCached(
      const std::string& name);

  /// Hypothetical serving: answers q over the named document as if the
  /// probability overrides in `changes` had been committed, WITHOUT
  /// mutating anything — the document, its views, its WAL and its uid are
  /// bitwise untouched afterwards. Runs through the document's standing
  /// lineage-circuit session (one overlay re-propagation in the common
  /// case; see ViewServer::WhatIf), created on first use. Errors when the
  /// name is unknown, a pid does not resolve, or the overrides are not
  /// valid probabilities. Serialized with the write path per document.
  StatusOr<std::vector<PidProb>> WhatIf(const std::string& name,
                                        const Pattern& q,
                                        const std::vector<WhatIfChange>& changes);

  /// Read-only access to a stored document (write paths lock internally;
  /// the reference is only safe while no Apply/Put/Drop runs concurrently).
  const PDocument* Find(const std::string& name) const;

  DocumentStoreStats stats() const;

  /// Cumulative exact-DP subtree-memo counters of the named document's
  /// session (zeros when the name is unknown).
  SubtreeCacheStats SessionCacheStats(const std::string& name) const;

 private:
  struct ViewState {
    /// The published materialization. Shared so old snapshots keep the
    /// extension they reference alive after a newer one is published.
    std::shared_ptr<MaterializedView> view;
    /// Snapshots reach view->ext only through copies of `handle`, whose
    /// deleter sets `*readers_done` once the last copy is gone (see
    /// ReaderHandle in document_store.cc).
    std::shared_ptr<const PDocument> handle;
    std::shared_ptr<std::atomic<bool>> readers_done;
    /// Double buffer: the previously published materialization, reused as
    /// the patch target once every snapshot referencing it is gone
    /// (*spare_readers_done) — steady-state incremental materialization
    /// then copies nothing at all. When old snapshots are still alive the
    /// store falls back to copy-on-patch.
    std::shared_ptr<MaterializedView> spare;
    std::shared_ptr<std::atomic<bool>> spare_readers_done;
    bool dirty = true;
  };

  struct DocState {
    std::mutex mu;  // Serializes the write path (doc + session + views).
    PDocument doc;
    std::unique_ptr<EvalSession> session;
    std::map<std::string, ViewState, std::less<>> views;
    /// Lsn of the last WAL record applied to this document (durable stores
    /// only; guarded by mu). Checkpoints persist it so recovery replays
    /// exactly the records the snapshot misses.
    uint64_t last_lsn = 0;
    /// Standing-query serving (guarded by mu): a lazily-created
    /// BackendKind::kCircuit session holding the document's shared
    /// lineage circuit, plus the cached answers of the server's standing
    /// queries and the doc uid they reflect.
    std::unique_ptr<EvalSession> standing;
    std::vector<std::vector<PidProb>> standing_answers;
    uint64_t standing_uid = 0;
    mutable std::mutex snap_mu;  // Guards only the snapshot pointer swap.
    std::shared_ptr<const SharedExtensions> snapshot;
  };

  struct DurableTag {};
  DocumentStore(ViewServer* server, DocumentStoreOptions options, DurableTag);

  /// Recovery: load checkpoint + replay WAL into `this` (empty store).
  Status Recover();
  /// Installs a recovered document (no WAL write; views materialize).
  void InstallRecovered(const std::string& name, PDocument doc,
                        uint64_t last_lsn);

  /// Assigns the next lsn and appends one record under wal_mu_. On failure
  /// the store degrades to read-only. `out_lsn` receives the record's lsn.
  Status WalAppend(WalRecordKind kind, const std::string& doc,
                   std::string body, uint64_t* out_lsn);
  /// Auto-checkpoint trigger; called with no document lock held.
  void MaybeCheckpoint();
  /// Background group-commit thread body (kBatch only): flushes buffered
  /// frames under wal_mu_, then fsyncs the segment through an independent
  /// descriptor with no lock held, so the write path almost never pays an
  /// inline fsync (the sync_every barrier remains as the hard bound).
  void FlusherLoop();

  std::shared_ptr<DocState> FindState(const std::string& name) const;
  // Creates the document's standing circuit session on first use (under
  // the write lock).
  void EnsureStandingLocked(DocState* state);
  static Status PrecheckOne(const PDocument& doc, const DocMutation& m,
                            NodeId* out_node);
  static void ApplyChecked(PDocument* doc, const DocMutation& m, NodeId node);
  Status ApplyOne(DocState* state, const DocMutation& m);
  // Labels of ordinary nodes in the subtree rooted at `root` (detached
  // subtrees included — removed labels dirty the views that matched them).
  static void CollectLabels(const PDocument& doc, NodeId root,
                            std::set<Label>* out);
  void MaterializeLocked(DocState* state);
  // Recomputes the standing-query answers under the write lock: one
  // ViewServer::AnswerAllCached batch over the document's standing session
  // (creating it on first use).
  void RefreshStandingLocked(DocState* state);
  // Tombstone compaction under the write lock (see Compact()). Returns the
  // nodes reclaimed. Must run only after the batch's dirty labels were
  // collected — compaction drops the detached subtrees they live in.
  int CompactLocked(DocState* state);

  ViewServer* server_;
  DocumentStoreOptions options_;

  mutable std::mutex docs_mu_;  // Guards the map itself, not the DocStates.
  std::map<std::string, std::shared_ptr<DocState>, std::less<>> docs_;

  // Durable state (unused when options_.durable_dir is empty). Lock order:
  // DocState::mu → docs_mu_ → wal_mu_.
  IoEnv* env_ = nullptr;
  mutable std::mutex wal_mu_;  // Guards the writer, segment seq and lsn.
  std::unique_ptr<WalWriter> wal_;
  uint64_t wal_seq_ = 0;   ///< Seq of the segment wal_ appends to.
  uint64_t next_lsn_ = 1;  ///< Next lsn to assign.
  std::atomic<bool> read_only_{false};
  std::atomic<bool> checkpointing_{false};
  std::thread flusher_;
  std::condition_variable flusher_cv_;  // Paired with wal_mu_.
  bool flusher_stop_ = false;           // Guarded by wal_mu_.

  std::atomic<int64_t> batches_{0};
  std::atomic<int64_t> mutations_{0};
  std::atomic<int64_t> rejected_batches_{0};
  std::atomic<int64_t> materializations_{0};
  std::atomic<int64_t> views_patched_{0};
  std::atomic<int64_t> views_rebuilt_{0};
  std::atomic<int64_t> views_clean_{0};
  std::atomic<int64_t> compactions_{0};
  std::atomic<int64_t> nodes_reclaimed_{0};
  std::atomic<int64_t> wal_appends_{0};
  std::atomic<int64_t> wal_bytes_{0};
  std::atomic<int64_t> checkpoints_{0};
  std::atomic<int64_t> recoveries_{0};
  std::atomic<int64_t> torn_records_dropped_{0};
  std::atomic<int64_t> cached_refreshes_{0};
};

}  // namespace pxv

#endif  // PXV_SERVE_DOCUMENT_STORE_H_
