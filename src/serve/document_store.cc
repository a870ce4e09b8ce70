#include "serve/document_store.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "serve/checkpoint.h"
#include "util/check.h"
#include "util/codec.h"

namespace pxv {

DocMutation DocMutation::InsertSubtree(PersistentId parent, PDocument sub,
                                       double prob) {
  DocMutation m;
  m.kind = Kind::kInsertSubtree;
  m.target = parent;
  m.subtree = std::move(sub);
  m.prob = prob;
  return m;
}

DocMutation DocMutation::RemoveSubtree(PersistentId target) {
  DocMutation m;
  m.kind = Kind::kRemoveSubtree;
  m.target = target;
  return m;
}

DocMutation DocMutation::SetEdgeProb(PersistentId target, double prob) {
  DocMutation m;
  m.kind = Kind::kSetEdgeProb;
  m.target = target;
  m.prob = prob;
  return m;
}

DocMutation DocMutation::SetExpDistribution(
    PersistentId target, int child_index,
    std::vector<std::pair<std::vector<int>, double>> dist) {
  DocMutation m;
  m.kind = Kind::kSetExpDistribution;
  m.target = target;
  m.dist_child_index = child_index;
  m.exp_dist = std::move(dist);
  return m;
}

std::string EncodeMutationBatch(const std::vector<DocMutation>& batch) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(batch.size()));
  for (const DocMutation& m : batch) {
    PutU8(&out, static_cast<uint8_t>(m.kind));
    PutI64(&out, m.target);
    PutI32(&out, m.dist_child_index);
    PutF64(&out, m.prob);
    if (m.kind == DocMutation::Kind::kInsertSubtree) {
      std::string sub;
      m.subtree.SerializeTo(&sub);
      PutBytes(&out, sub);
    } else {
      PutU32(&out, 0);
    }
    PutU32(&out, static_cast<uint32_t>(m.exp_dist.size()));
    for (const auto& [subset, p] : m.exp_dist) {
      PutU32(&out, static_cast<uint32_t>(subset.size()));
      for (int idx : subset) PutI32(&out, idx);
      PutF64(&out, p);
    }
  }
  return out;
}

StatusOr<std::vector<DocMutation>> DecodeMutationBatch(
    std::string_view bytes) {
  const auto corrupt = [](const char* what) {
    return Status::Error(std::string("corrupt mutation batch: ") + what);
  };
  ByteReader in(bytes);
  const uint32_t count = in.GetU32();
  if (count > in.remaining() + 1) return corrupt("batch size");
  std::vector<DocMutation> batch;
  batch.reserve(count);
  for (uint32_t i = 0; i < count && in.ok(); ++i) {
    DocMutation m;
    const uint8_t kind = in.GetU8();
    if (kind >
        static_cast<uint8_t>(DocMutation::Kind::kSetExpDistribution)) {
      return corrupt("mutation kind");
    }
    m.kind = static_cast<DocMutation::Kind>(kind);
    m.target = in.GetI64();
    m.dist_child_index = in.GetI32();
    m.prob = in.GetF64();
    const std::string_view sub = in.GetBytes();
    if (m.kind == DocMutation::Kind::kInsertSubtree) {
      auto doc = PDocument::Deserialize(sub);
      if (!doc.ok()) return doc.status();
      m.subtree = std::move(doc.value());
    }
    const uint32_t dist_count = in.GetU32();
    if (dist_count > in.remaining() + 1) return corrupt("exp dist size");
    m.exp_dist.reserve(dist_count);
    for (uint32_t d = 0; d < dist_count && in.ok(); ++d) {
      const uint32_t subset_size = in.GetU32();
      if (subset_size > in.remaining() / 4 + 1) return corrupt("exp subset");
      std::vector<int> subset;
      subset.reserve(subset_size);
      for (uint32_t k = 0; k < subset_size && in.ok(); ++k) {
        subset.push_back(in.GetI32());
      }
      const double p = in.GetF64();
      m.exp_dist.emplace_back(std::move(subset), p);
    }
    batch.push_back(std::move(m));
  }
  if (!in.ok() || !in.AtEnd()) return corrupt("truncated");
  return batch;
}

namespace {

Status ReadOnlyError() {
  return Status::Error("store is read-only after an unrecoverable I/O error");
}

// The one compaction rule, shared by stored documents (Put/Apply) and
// patched view extensions (MaterializeLocked): rebuild once detached
// tombstones outweigh the live nodes — amortized, one rebuild per ~|live|
// detachments. Exp-heavy documents compact *earlier*: every tombstone
// dilates the arena each DP pass walks, and exp regions re-walk their child
// distributions once per explicit subset (PDocument::ExpDpCost), so each
// tombstone costs proportionally more there. The per-tombstone weight grows
// with the document's relative exp surcharge; for exp-free documents the
// rule stays the flat detached*2 > size.
bool TombstonesOutweighLive(const PDocument& d) {
  const double surcharge =
      d.live_size() > 0 ? d.ExpDpCost() / double(d.live_size()) : 0.0;
  return double(d.detached_count()) * (2.0 + surcharge) > double(d.size());
}

// Publishes `mv` to snapshot readers: the handle aliases mv->ext and keeps
// `mv` alive. Its deleter runs after the last copy is destroyed, so every
// reader access through any copy happens before `*readers_done` turns true
// and a writer that loads the flag with acquire may patch `mv` in place.
// (A use_count() == 1 test would not do: that read orders nothing.)
std::shared_ptr<const PDocument> ReaderHandle(
    std::shared_ptr<MaterializedView> mv,
    std::shared_ptr<std::atomic<bool>> readers_done) {
  const PDocument* ext = &mv->ext;
  return std::shared_ptr<const PDocument>(
      ext, [mv = std::move(mv),
            readers_done = std::move(readers_done)](const PDocument*) {
        readers_done->store(true, std::memory_order_release);
      });
}

}  // namespace

DocumentStore::DocumentStore(ViewServer* server, DocumentStoreOptions options)
    : DocumentStore(server, std::move(options), DurableTag{}) {
  PXV_CHECK(options_.durable_dir.empty())
      << "durable stores must be created via DocumentStore::Open";
}

DocumentStore::DocumentStore(ViewServer* server, DocumentStoreOptions options,
                             DurableTag)
    : server_(server), options_(std::move(options)) {
  PXV_CHECK(server_ != nullptr);
  if (options_.incremental) options_.eval.cache_subtrees = true;
  env_ = options_.io_env != nullptr ? options_.io_env : IoEnv::Real();
}

DocumentStore::~DocumentStore() {
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    flusher_stop_ = true;
  }
  flusher_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (wal_ != nullptr) wal_->Close();  // Best-effort final flush.
}

StatusOr<std::unique_ptr<DocumentStore>> DocumentStore::Open(
    ViewServer* server, DocumentStoreOptions options) {
  if (options.durable_dir.empty()) {
    return Status::Error("DocumentStore::Open requires options.durable_dir");
  }
  std::unique_ptr<DocumentStore> store(
      new DocumentStore(server, std::move(options), DurableTag{}));
  if (Status s = store->Recover(); !s.ok()) return s;
  return store;
}

Status DocumentStore::Recover() {
  const std::string& dir = options_.durable_dir;
  if (Status s = env_->CreateDir(dir); !s.ok()) return s;
  auto listing = env_->ListDir(dir);
  if (!listing.ok()) return listing.status();
  std::vector<uint64_t> ckpts;
  std::vector<uint64_t> segments;
  for (const std::string& file : *listing) {
    uint64_t seq = 0;
    if (ParseCheckpointFileName(file, &seq)) {
      ckpts.push_back(seq);
    } else if (ParseWalSegmentFileName(file, &seq)) {
      segments.push_back(seq);
    }
  }
  std::sort(ckpts.begin(), ckpts.end());
  std::sort(segments.begin(), segments.end());

  // The newest checkpoint that decodes wins. Checkpoints appear atomically
  // (tmp → rename), so an invalid one means bit rot; fall back to the
  // previous — its missed records are still covered by the lsn filter
  // below as long as the older WAL segments survived, and replay fails
  // loudly (unknown document / bad frame) when they did not.
  struct Recovered {
    PDocument doc;
    uint64_t last_lsn = 0;
  };
  std::map<std::string, Recovered> docs;
  uint64_t ckpt_seq = 0;
  for (auto it = ckpts.rbegin(); it != ckpts.rend(); ++it) {
    auto data = ReadCheckpointFile(env_, dir + "/" + CheckpointFileName(*it));
    if (!data.ok()) continue;
    std::map<std::string, Recovered> loaded;
    bool all_ok = true;
    for (CheckpointDoc& cd : data->docs) {
      auto doc = PDocument::Deserialize(cd.doc_image);
      if (!doc.ok()) {
        all_ok = false;
        break;
      }
      loaded[cd.name] = {std::move(doc.value()), cd.last_lsn};
    }
    if (!all_ok) continue;
    docs = std::move(loaded);
    ckpt_seq = *it;
    break;
  }

  // The segments the replay needs (>= the chosen checkpoint) must be
  // contiguous: rotation creates them one by one and cleanup only ever
  // deletes a prefix. A gap means the log was truncated against a NEWER
  // checkpoint that did not survive — replaying across the hole would
  // silently resurrect a stale state, so refuse loudly instead.
  for (size_t i = 1; i < segments.size(); ++i) {
    if (segments[i - 1] >= ckpt_seq && segments[i] != segments[i - 1] + 1) {
      return Status::Error("corrupt WAL: segment gap between " +
                           WalSegmentFileName(segments[i - 1]) + " and " +
                           WalSegmentFileName(segments[i]));
    }
  }

  // Replay the WAL tail in segment order, skipping per document what the
  // checkpoint already holds.
  uint64_t max_lsn = 0;
  for (const auto& [name, rec] : docs) {
    max_lsn = std::max(max_lsn, rec.last_lsn);
  }
  for (size_t i = 0; i < segments.size(); ++i) {
    // Segments older than the checkpoint are fully covered by it; they only
    // still exist when a crash interrupted the post-checkpoint cleanup.
    if (segments[i] < ckpt_seq) continue;
    const std::string seg_name = WalSegmentFileName(segments[i]);
    auto read = ReadWalSegment(env_, dir + "/" + seg_name);
    if (!read.ok()) return read.status();
    if (read->torn_tail_dropped != 0 && i + 1 != segments.size()) {
      // Appends only ever go to the newest segment, so a bad frame in an
      // older one is bit rot, not a crash artifact — and the records past
      // it cannot be replayed (recovery must apply a prefix). Refuse
      // rather than resurrect a hole.
      return Status::Error("corrupt WAL: bad frame mid-log in " + seg_name);
    }
    torn_records_dropped_.fetch_add(read->torn_tail_dropped,
                                    std::memory_order_relaxed);
    for (WalRecord& record : read->records) {
      max_lsn = std::max(max_lsn, record.lsn);
      const auto it = docs.find(record.doc);
      if (it != docs.end() && record.lsn <= it->second.last_lsn) continue;
      switch (record.kind) {
        case WalRecordKind::kPut: {
          auto doc = PDocument::Deserialize(record.body);
          if (!doc.ok()) {
            return Status::Error("corrupt WAL put record for " + record.doc +
                                 ": " + doc.status().message());
          }
          docs[record.doc] = {std::move(doc.value()), record.lsn};
          break;
        }
        case WalRecordKind::kApply: {
          if (it == docs.end()) {
            return Status::Error("WAL apply record for unknown document " +
                                 record.doc);
          }
          auto batch = DecodeMutationBatch(record.body);
          if (!batch.ok()) return batch.status();
          PDocument& doc = it->second.doc;
          Status failed;
          {
            PDocument::MutationBatch scope(&doc);
            for (const DocMutation& m : *batch) {
              NodeId node = kNullNode;
              failed = PrecheckOne(doc, m, &node);
              if (!failed.ok()) break;
              ApplyChecked(&doc, m, node);
            }
          }
          if (!failed.ok()) {
            // The log never holds a batch the store rejected, so a batch
            // that no longer replays means the log and the state diverged.
            return Status::Error("WAL apply record " +
                                 std::to_string(record.lsn) +
                                 " does not replay: " + failed.message());
          }
          doc.ClearDirtyPaths();
          // Threshold compaction replays deterministically from the
          // batches themselves (kCompact marks only *forced* compactions).
          if (options_.compact_documents && TombstonesOutweighLive(doc)) {
            doc.Compact();
          }
          it->second.last_lsn = record.lsn;
          break;
        }
        case WalRecordKind::kDrop:
          if (it != docs.end()) docs.erase(it);
          break;
        case WalRecordKind::kCompact:
          if (it != docs.end()) {
            it->second.doc.Compact();
            it->second.last_lsn = record.lsn;
          }
          break;
      }
    }
  }

  // Fresh segment for new writes — never append to a segment that may end
  // in a dropped torn frame.
  uint64_t max_seq = ckpt_seq;
  for (uint64_t s : segments) max_seq = std::max(max_seq, s);
  wal_seq_ = max_seq + 1;
  auto writer = WalWriter::Open(env_, dir + "/" + WalSegmentFileName(wal_seq_),
                                options_.fsync, options_.sync_every_records);
  if (!writer.ok()) return writer.status();
  wal_ = std::move(writer.value());
  if (Status s = env_->SyncDir(dir); !s.ok()) return s;
  next_lsn_ = max_lsn + 1;

  // Rebuild the serving state. Materialization runs the same code path as
  // a live store, and incremental materialization is bit-identical to
  // from-scratch (see the file comment), so recovered answers match the
  // never-crashed store's exactly.
  for (auto& [name, rec] : docs) {
    if (Status s = rec.doc.Validate(); !s.ok()) {
      return Status::Error("recovered document " + name +
                           " is invalid: " + s.message());
    }
    InstallRecovered(name, std::move(rec.doc), rec.last_lsn);
  }
  recoveries_.fetch_add(1, std::memory_order_relaxed);
  // Group commit: under kBatch a background thread absorbs the fsyncs so
  // the write path pays a memcpy, not a disk stall. kAlways syncs inline
  // by definition; kNone never syncs.
  if (options_.fsync == FsyncPolicy::kBatch) {
    flusher_ = std::thread(&DocumentStore::FlusherLoop, this);
  }
  return Status::Ok();
}

void DocumentStore::FlusherLoop() {
  std::unique_lock<std::mutex> lock(wal_mu_);
  while (true) {
    flusher_cv_.wait(lock, [&] {
      return flusher_stop_ ||
             (wal_ != nullptr && !read_only_.load(std::memory_order_acquire) &&
              wal_->unsynced_records() > 0);
    });
    if (flusher_stop_) return;
    if (Status s = wal_->Flush(); !s.ok()) {
      // The writer is poisoned; the store can no longer make writes
      // durable. Degrade exactly like an inline append failure would.
      read_only_.store(true, std::memory_order_release);
      continue;
    }
    // Everything up to `flushed` is in the file; fsync it through an
    // independent descriptor WITHOUT holding wal_mu_, so concurrent
    // appends only ever wait on a memcpy.
    const int64_t flushed = wal_->appended_records();
    const uint64_t seq = wal_seq_;
    const std::string path =
        options_.durable_dir + "/" + WalSegmentFileName(seq);
    lock.unlock();
    const Status synced = env_->SyncFile(path);
    lock.lock();
    if (wal_ != nullptr && seq == wal_seq_) {  // Else rotated: the
                                               // rotation synced + closed.
      if (synced.ok()) {
        wal_->NoteSynced(flushed);
      } else {
        // fsync failed: the kernel may have DROPPED the dirty pages (the
        // fsync-gate hazard) — retrying cannot make the data durable, so
        // refuse further writes rather than silently narrow the guarantee.
        read_only_.store(true, std::memory_order_release);
      }
    }
    // Pace the cycles: each fdatasync pins the inode's dirty pages and
    // journal state, and back-to-back syncs measurably stall the append
    // path even though it only memcpys under wal_mu_. A short breath
    // batches more records per fsync at no durability cost (under kBatch
    // the loss window is already "since the last completed fsync"), as
    // long as pace × arrival-rate stays well under the sync_every hard
    // bound — which it does by orders of magnitude at the default 1024.
    flusher_cv_.wait_for(lock, std::chrono::microseconds(200),
                         [&] { return flusher_stop_; });
  }
}

void DocumentStore::InstallRecovered(const std::string& name, PDocument doc,
                                     uint64_t last_lsn) {
  auto state = std::make_shared<DocState>();
  state->doc = std::move(doc);
  state->doc.ClearDirtyPaths();
  state->session = std::make_unique<EvalSession>(state->doc, options_.eval);
  state->last_lsn = last_lsn;
  for (const NamedView& v : server_->rewriter().views()) {
    state->views[v.name];
  }
  MaterializeLocked(state.get());  // Exclusive: nothing else sees it yet.
  std::lock_guard<std::mutex> lock(docs_mu_);
  docs_[name] = std::move(state);
}

Status DocumentStore::WalAppend(WalRecordKind kind, const std::string& doc,
                                std::string body, uint64_t* out_lsn) {
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (wal_ == nullptr || read_only_.load(std::memory_order_acquire)) {
    return ReadOnlyError();
  }
  WalRecord record;
  record.kind = kind;
  record.lsn = next_lsn_;
  record.doc = doc;
  record.body = std::move(body);
  const int64_t before = wal_->appended_bytes();
  if (Status s = wal_->Append(record); !s.ok()) {
    // The writer is poisoned: nothing can be made durable any more.
    // Degrade to read-only instead of acknowledging volatile writes.
    read_only_.store(true, std::memory_order_release);
    return Status::Error("WAL append failed (store is now read-only): " +
                         s.message());
  }
  ++next_lsn_;
  if (out_lsn != nullptr) *out_lsn = record.lsn;
  wal_appends_.fetch_add(1, std::memory_order_relaxed);
  wal_bytes_.fetch_add(wal_->appended_bytes() - before,
                       std::memory_order_relaxed);
  // Wake the flusher only on the drained→pending transition: while it is
  // mid-cycle its wait predicate re-checks unsynced_records() under this
  // lock, so later appends need no notification.
  if (options_.fsync == FsyncPolicy::kBatch &&
      wal_->unsynced_records() == 1) {
    flusher_cv_.notify_one();
  }
  return Status::Ok();
}

void DocumentStore::MaybeCheckpoint() {
  if (options_.checkpoint_after_wal_bytes <= 0) return;
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    if (wal_ == nullptr ||
        wal_->appended_bytes() < options_.checkpoint_after_wal_bytes) {
      return;
    }
  }
  // Failure is deliberately ignored here: a failed checkpoint leaves the
  // WAL as the (growing) source of truth and the next Apply retries.
  Checkpoint();
}

Status DocumentStore::Checkpoint() {
  if (options_.durable_dir.empty()) {
    return Status::Error("Checkpoint() requires a durable store");
  }
  bool expected = false;
  if (!checkpointing_.compare_exchange_strong(expected, true)) {
    return Status::Ok();  // Another thread is already checkpointing.
  }
  struct Guard {
    std::atomic<bool>* flag;
    ~Guard() { flag->store(false, std::memory_order_release); }
  } guard{&checkpointing_};

  const std::string& dir = options_.durable_dir;
  uint64_t ckpt_seq = 0;
  {
    // Rotate to a fresh segment first. The retiring segments are deleted
    // once the checkpoint is durable, so everything in them must be on
    // disk now; failing to guarantee that means failing to stay durable —
    // these errors (unlike the checkpoint write below) trip read-only.
    std::lock_guard<std::mutex> lock(wal_mu_);
    if (wal_ == nullptr || read_only_.load(std::memory_order_acquire)) {
      return ReadOnlyError();
    }
    const auto fatal = [this](const std::string& what, const Status& s) {
      read_only_.store(true, std::memory_order_release);
      wal_ = nullptr;
      return Status::Error(what + " (store is now read-only): " + s.message());
    };
    if (Status s = wal_->Sync(); !s.ok()) return fatal("WAL sync failed", s);
    if (Status s = wal_->Close(); !s.ok()) return fatal("WAL close failed", s);
    wal_ = nullptr;
    auto writer =
        WalWriter::Open(env_, dir + "/" + WalSegmentFileName(wal_seq_ + 1),
                        options_.fsync, options_.sync_every_records);
    if (!writer.ok()) {
      return fatal("WAL rotation failed", writer.status());
    }
    ++wal_seq_;
    wal_ = std::move(writer.value());
    ckpt_seq = wal_seq_;
    // The new segment's directory entry must outlive the old segments.
    if (Status s = env_->SyncDir(dir); !s.ok()) {
      return fatal("WAL directory sync failed", s);
    }
  }

  // Serialize each document under its own write lock, one document at a
  // time; the expensive file I/O below runs with no lock held at all, so
  // writers and readers of every document proceed during the write-out.
  CheckpointData data;
  data.wal_seq = ckpt_seq;
  for (const std::string& name : Names()) {
    const std::shared_ptr<DocState> state = FindState(name);
    if (state == nullptr) continue;  // Dropped: its kDrop is in the WAL.
    std::lock_guard<std::mutex> lock(state->mu);
    if (FindState(name) != state) continue;  // Replaced: ditto its kPut.
    CheckpointDoc cd;
    cd.name = name;
    cd.last_lsn = state->last_lsn;
    state->doc.SerializeTo(&cd.doc_image);
    data.docs.push_back(std::move(cd));
  }

  // From here on failure is benign: the WAL still holds every committed
  // record and the next checkpoint simply retries.
  if (Status s = WriteCheckpointFile(env_, dir, ckpt_seq, data); !s.ok()) {
    return s;
  }
  checkpoints_.fetch_add(1, std::memory_order_relaxed);

  // Cleanup, best-effort: a surviving older checkpoint is shadowed by the
  // newer one, a surviving older segment is re-filtered per document at
  // the next recovery.
  if (auto listing = env_->ListDir(dir); listing.ok()) {
    for (const std::string& file : *listing) {
      uint64_t seq = 0;
      if ((ParseCheckpointFileName(file, &seq) && seq < ckpt_seq) ||
          (ParseWalSegmentFileName(file, &seq) && seq < ckpt_seq)) {
        env_->RemoveFile(dir + "/" + file);
      }
    }
  }
  return Status::Ok();
}

std::shared_ptr<DocumentStore::DocState> DocumentStore::FindState(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(docs_mu_);
  const auto it = docs_.find(name);
  return it == docs_.end() ? nullptr : it->second;
}

Status DocumentStore::Put(const std::string& name, PDocument doc) {
  const bool durable = !options_.durable_dir.empty();
  if (durable && read_only()) return ReadOnlyError();
  Status valid = doc.Validate();
  if (!valid.ok()) return valid;
  auto state = std::make_shared<DocState>();
  state->doc = std::move(doc);
  state->doc.ClearDirtyPaths();
  state->session = std::make_unique<EvalSession>(state->doc, options_.eval);
  for (const NamedView& v : server_->rewriter().views()) {
    state->views[v.name];  // Fresh ViewState: dirty, nothing materialized.
  }
  // A document arriving with a tombstone-heavy arena (e.g. churned outside
  // the store) starts from a compact one; nothing references its node ids
  // yet, so the remap is free here (exclusive: nothing else sees the state).
  if (options_.compact_documents && TombstonesOutweighLive(state->doc)) {
    CompactLocked(state.get());
  }
  MaterializeLocked(state.get());  // Exclusive: nothing else sees it yet.
  // Durable stores log the document image that will actually be installed
  // (post compaction-on-load) — replay re-installs it verbatim. The append
  // happens inside the commit critical section below so the WAL order of
  // racing Puts matches their publication order.
  std::string image;
  if (durable) state->doc.SerializeTo(&image);
  // Publish, serialized with concurrent writers of a replaced document:
  // taking the old state's write mutex before the swap keeps the promised
  // per-document Put/Apply/MaterializeIncremental ordering — an Apply
  // either completes before the replacement or observes the new document.
  for (;;) {
    std::shared_ptr<DocState> old = FindState(name);
    if (old == nullptr) {
      std::lock_guard<std::mutex> lock(docs_mu_);
      if (docs_.find(name) != docs_.end()) continue;  // Raced another Put.
      if (durable) {
        Status s = WalAppend(WalRecordKind::kPut, name, image,
                             &state->last_lsn);
        if (!s.ok()) return s;
      }
      docs_[name] = std::move(state);
      return Status::Ok();
    }
    std::lock_guard<std::mutex> write_lock(old->mu);
    std::lock_guard<std::mutex> lock(docs_mu_);
    if (docs_.find(name) == docs_.end() || docs_[name] != old) continue;
    if (durable) {
      Status s = WalAppend(WalRecordKind::kPut, name, image,
                           &state->last_lsn);
      if (!s.ok()) return s;
    }
    docs_[name] = std::move(state);  // Old state dies with its readers.
    return Status::Ok();
  }
}

Status DocumentStore::Drop(const std::string& name) {
  const bool durable = !options_.durable_dir.empty();
  if (durable && read_only()) return ReadOnlyError();
  std::lock_guard<std::mutex> lock(docs_mu_);
  const auto it = docs_.find(name);
  if (it == docs_.end()) return Status::Error("no document named " + name);
  if (durable) {
    Status s = WalAppend(WalRecordKind::kDrop, name, "", nullptr);
    if (!s.ok()) return s;
  }
  docs_.erase(it);
  return Status::Ok();
}

std::vector<std::string> DocumentStore::Names() const {
  std::vector<std::string> names;
  std::lock_guard<std::mutex> lock(docs_mu_);
  names.reserve(docs_.size());
  for (const auto& [name, state] : docs_) names.push_back(name);
  return names;
}

// Complete validity precheck for one mutation against the current document
// state: when it passes, applying the mutation is guaranteed to succeed AND
// to leave the document valid (Definition 1) — mutations only perturb the
// document locally, so checking the mutated neighborhood is exhaustive.
// This is what lets the single-mutation write path skip both the rollback
// copy and the O(|P̂|) re-validation.
Status DocumentStore::PrecheckOne(const PDocument& doc, const DocMutation& m,
                                  NodeId* out_node) {
  const NodeId target = doc.FindByPid(m.target);
  if (target == kNullNode) {
    return Status::Error("no ordinary node with pid " +
                         std::to_string(m.target));
  }
  NodeId node = target;
  if (m.dist_child_index >= 0) {
    const auto& kids = doc.children(target);
    if (m.dist_child_index >= static_cast<int>(kids.size())) {
      return Status::Error("dist_child_index out of range at pid " +
                           std::to_string(m.target));
    }
    node = kids[m.dist_child_index];
  }
  *out_node = node;
  // Sum of sibling edge probabilities under a mux parent, excluding
  // `except` (kNullNode to include everyone).
  const auto mux_sum = [&doc](NodeId mux, NodeId except) {
    double sum = 0;
    for (NodeId c : doc.children(mux)) {
      if (c != except) sum += doc.edge_prob(c);
    }
    return sum;
  };
  switch (m.kind) {
    case DocMutation::Kind::kInsertSubtree: {
      if (m.subtree.empty()) return Status::Error("empty insert payload");
      Status payload = m.subtree.Validate();
      if (!payload.ok()) return payload;
      // Persistent ids must stay unique across the whole document — the §4
      // restricted plans and every pid-addressed path (mutation targeting,
      // TP∩ joins, answer keys) rely on it. Reject colliding payloads
      // instead of silently aliasing nodes. One scan of each side keeps
      // the check O(|doc| + |payload|).
      {
        std::set<PersistentId> doc_pids;
        for (NodeId n = 0; n < doc.size(); ++n) {
          if (doc.ordinary(n) && !doc.detached(n)) doc_pids.insert(doc.pid(n));
        }
        std::set<PersistentId> seen;
        for (NodeId n = 0; n < m.subtree.size(); ++n) {
          if (!m.subtree.ordinary(n)) continue;
          const PersistentId pid = m.subtree.pid(n);
          if (!seen.insert(pid).second) {
            return Status::Error("insert payload repeats pid " +
                                 std::to_string(pid));
          }
          if (doc_pids.count(pid) > 0) {
            return Status::Error(
                "insert payload pid " + std::to_string(pid) +
                " already exists in the document (give payload nodes fresh "
                "pids, e.g. label#pid)");
          }
        }
      }
      switch (doc.kind(node)) {
        case PKind::kExp:
          return Status::Error("cannot insert under an exp node");
        case PKind::kOrdinary:
        case PKind::kDet:
          if (m.prob != 1.0) {
            return Status::Error(
                "child of ordinary/det node must have edge probability 1");
          }
          break;
        case PKind::kMux:
          if (m.prob < 0.0 || mux_sum(node, kNullNode) + m.prob > 1.0 + 1e-9) {
            return Status::Error("insert would overflow the mux budget");
          }
          break;
        case PKind::kInd:
          if (m.prob < 0.0 || m.prob > 1.0) {
            return Status::Error("edge probability out of [0,1]");
          }
          break;
      }
      return Status::Ok();
    }
    case DocMutation::Kind::kRemoveSubtree: {
      if (node == doc.root()) return Status::Error("cannot remove the root");
      const NodeId par = doc.parent(node);
      if (doc.kind(par) == PKind::kExp) {
        return Status::Error("cannot remove a child of an exp node");
      }
      if (!doc.ordinary(par) && doc.children(par).size() == 1) {
        return Status::Error("removal would leave a distributional leaf");
      }
      return Status::Ok();
    }
    case DocMutation::Kind::kSetEdgeProb: {
      if (m.prob < 0.0 || m.prob > 1.0) {
        return Status::Error("edge probability out of [0,1]");
      }
      const NodeId par = doc.parent(node);
      if (par != kNullNode) {
        if ((doc.ordinary(par) || doc.kind(par) == PKind::kDet) &&
            m.prob != 1.0) {
          return Status::Error(
              "child of ordinary/det node must have edge probability 1");
        }
        if (doc.kind(par) == PKind::kMux &&
            mux_sum(par, node) + m.prob > 1.0 + 1e-9) {
          return Status::Error("edge probability would overflow the mux");
        }
      }
      return Status::Ok();
    }
    case DocMutation::Kind::kSetExpDistribution: {
      if (doc.kind(node) != PKind::kExp) {
        return Status::Error("SetExpDistribution target is not an exp node");
      }
      const int kids = static_cast<int>(doc.children(node).size());
      double sum = 0;
      for (const auto& [subset, p] : m.exp_dist) {
        if (p < 0.0 || p > 1.0) {
          return Status::Error("exp probability out of range");
        }
        sum += p;
        for (int idx : subset) {
          if (idx < 0 || idx >= kids) {
            return Status::Error("exp subset index out of range");
          }
        }
      }
      if (sum > 1.0 + 1e-9) {
        return Status::Error("exp distribution sums to > 1");
      }
      return Status::Ok();
    }
  }
  return Status::Error("unknown mutation kind");
}

// Applies a prechecked mutation; cannot fail.
void DocumentStore::ApplyChecked(PDocument* doc, const DocMutation& m,
                                 NodeId node) {
  switch (m.kind) {
    case DocMutation::Kind::kInsertSubtree:
      doc->InsertSubtree(node, m.subtree, m.prob);
      return;
    case DocMutation::Kind::kRemoveSubtree:
      doc->RemoveSubtree(node);
      return;
    case DocMutation::Kind::kSetEdgeProb:
      doc->SetEdgeProb(node, m.prob);
      return;
    case DocMutation::Kind::kSetExpDistribution:
      doc->SetExpDistribution(node, m.exp_dist);
      return;
  }
}

Status DocumentStore::ApplyOne(DocState* state, const DocMutation& m) {
  NodeId node = kNullNode;
  Status s = PrecheckOne(state->doc, m, &node);
  if (!s.ok()) return s;
  ApplyChecked(&state->doc, m, node);
  return Status::Ok();
}

void DocumentStore::CollectLabels(const PDocument& doc, NodeId root,
                                  std::set<Label>* out) {
  std::vector<NodeId> stack{root};
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    if (doc.ordinary(n)) out->insert(doc.label(n));
    for (NodeId c : doc.children(n)) stack.push_back(c);
  }
}

namespace {

bool PatternUsesAnyLabel(const Pattern& p, const std::set<Label>& labels) {
  for (PNodeId n = 0; n < p.size(); ++n) {
    if (labels.count(p.label(n)) > 0) return true;
  }
  return false;
}

// Labels of the ordinary ancestors-or-self of `n` (the nodes whose view
// extension copies would contain a change at `n`).
void CollectAncestorLabels(const PDocument& doc, NodeId n,
                           std::set<Label>* out) {
  for (NodeId cur = n; cur != kNullNode; cur = doc.parent(cur)) {
    if (doc.ordinary(cur)) out->insert(doc.label(cur));
  }
}

}  // namespace

StatusOr<uint64_t> DocumentStore::Apply(const std::string& name,
                                        const std::vector<DocMutation>& batch) {
  const bool durable = !options_.durable_dir.empty();
  if (durable && read_only()) return ReadOnlyError();
  std::shared_ptr<DocState> state;
  std::unique_lock<std::mutex> lock;
  // Writers must hold the mutex of the state that is *currently*
  // registered: a concurrent Put/Drop may replace the entry while this
  // thread waits on the old state's mutex, and committing into an orphaned
  // state would silently lose the batch.
  for (;;) {
    state = FindState(name);
    if (state == nullptr) return Status::Error("no document named " + name);
    lock = std::unique_lock<std::mutex>(state->mu);
    if (FindState(name) == state) break;
  }
  // Transactional, two regimes:
  //   * one mutation — precheck, then apply. PrecheckOne is a complete
  //     validity check, so nothing is staged before the only point of
  //     failure: no rollback copy, no O(|P̂|) re-validation (the serving
  //     write path stays O(|delta| + pid lookup));
  //   * several mutations — later mutations may depend on earlier ones, so
  //     prechecks run against the staged state and a failure mid-batch
  //     restores a rollback copy bit for bit (versions included, keeping
  //     evaluation caches consistent with the restored contents).
  state->doc.ClearDirtyPaths();
  Status failed = Status::Ok();
  if (batch.size() == 1) {
    // PrecheckOne is complete, so the WAL record can go first: once the
    // record is logged the apply cannot fail, and a failed append leaves
    // the document untouched — either way the WAL and the store agree.
    NodeId node = kNullNode;
    failed = PrecheckOne(state->doc, batch[0], &node);
    if (failed.ok() && durable) {
      Status io = WalAppend(WalRecordKind::kApply, name,
                            EncodeMutationBatch(batch), &state->last_lsn);
      if (!io.ok()) return io;  // I/O failure, not a batch defect.
    }
    if (failed.ok()) {
      PDocument::MutationBatch scope(&state->doc);
      ApplyChecked(&state->doc, batch[0], node);
    }
  } else {
    PDocument backup = state->doc;
    {
      PDocument::MutationBatch scope(&state->doc);
      for (size_t i = 0; i < batch.size(); ++i) {
        Status s = ApplyOne(state.get(), batch[i]);
        if (!s.ok()) {
          failed = Status::Error("mutation #" + std::to_string(i) + ": " +
                                 s.message());
          break;
        }
      }
    }
    if (failed.ok()) failed = state->doc.Validate();
    if (!failed.ok()) {
      state->doc = std::move(backup);
    } else if (durable) {
      // Logged only after the whole batch staged AND validated — the WAL
      // never contains a rolled-back batch. An I/O failure here rolls the
      // staged state back too: a write that cannot be made durable is not
      // acknowledged, in memory or anywhere else.
      Status io = WalAppend(WalRecordKind::kApply, name,
                            EncodeMutationBatch(batch), &state->last_lsn);
      if (!io.ok()) {
        state->doc = std::move(backup);
        return io;
      }
    }
  }
  if (!failed.ok()) {
    rejected_batches_.fetch_add(1, std::memory_order_relaxed);
    return failed;
  }
  // Label-overlap dirtiness. A batch affects a view iff
  //   (a) some label of the view's pattern occurs in a changed subtree —
  //       the result set or its probabilities can change (removed content
  //       included: its labels still hang off the detached roots); or
  //   (b) the view's *output* label occurs on an ordinary ancestor-or-self
  //       of a change — the change then sits inside a potential result
  //       subtree, so the extension's copy of it must be redone even when
  //       the result probabilities are untouched.
  std::set<Label> touched;
  std::set<Label> enclosing;
  for (NodeId t : state->doc.dirty_paths()) {
    CollectLabels(state->doc, t, &touched);
    CollectAncestorLabels(state->doc, t, &enclosing);
  }
  state->doc.ClearDirtyPaths();
  for (const NamedView& v : server_->rewriter().views()) {
    ViewState& vs = state->views[v.name];
    if (vs.dirty) continue;
    if (PatternUsesAnyLabel(v.def, touched) ||
        enclosing.count(v.def.OutLabel()) > 0) {
      vs.dirty = true;
    }
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  mutations_.fetch_add(static_cast<int64_t>(batch.size()),
                       std::memory_order_relaxed);
  // Tombstone compaction, only after the batch committed and its dirty
  // labels were collected (they live in the detached subtrees compaction
  // drops). A failed batch therefore never observes a half-compacted
  // state: the rollback copy above restored the pre-batch arena bit for
  // bit, threshold crossings included.
  if (options_.compact_documents && TombstonesOutweighLive(state->doc)) {
    CompactLocked(state.get());
  }
  // Standing-query refresh: ONE merged propagation of the document's
  // shared lineage circuit re-serves every cached query the server holds
  // (a compaction above simply makes this pass a re-record — the fresh
  // structure_version resets the circuit). AnswerAllCached afterwards is
  // a copy until the next batch.
  if (options_.refresh_cached_on_apply &&
      !server_->cached_queries().empty()) {
    RefreshStandingLocked(state.get());
  }
  const uint64_t uid = state->doc.uid();
  if (durable) {
    // The auto-checkpoint trigger MUST run outside the document lock:
    // Checkpoint() takes every document's lock in turn.
    lock.unlock();
    MaybeCheckpoint();
  }
  return uid;
}

int DocumentStore::CompactLocked(DocState* state) {
  const int before = state->doc.size();
  const std::vector<NodeId> remap = state->doc.Compact();
  const int reclaimed = before - state->doc.size();
  if (reclaimed == 0) return 0;
  // Each view's bookkeeping references *source-document* node ids (the
  // extension delta diff aligns old and new result lists on them); the
  // published extensions themselves key on pids and own their arenas, so
  // they are untouched and every handed-out snapshot stays valid. The
  // stable-rank remap preserves relative id order, so remapped result
  // lists still align with the ascending-id lists the next evaluation
  // produces — incrementality survives compaction. Entries whose source
  // node was dropped (a removed result not re-materialized yet) become
  // kNullNode, which the diff classifies as "removed" on sight. Snapshot
  // readers never touch these vectors (they alias only the extension), so
  // rewriting them under the write lock is race-free.
  for (auto& [name, vs] : state->views) {
    for (const auto& mv : {vs.view, vs.spare}) {
      if (mv == nullptr) continue;
      for (ViewResultEntry& e : mv->results) {
        if (e.node != kNullNode) e.node = remap[e.node];
      }
    }
  }
  // The session's uid-keyed caches (results, label index, analysis
  // buffers) re-key off the compaction's fresh uid by themselves; only the
  // NodeId-keyed subtree memo needs an explicit, document-scoped drop.
  state->session->InvalidateSubtreeMemo();
  compactions_.fetch_add(1, std::memory_order_relaxed);
  nodes_reclaimed_.fetch_add(reclaimed, std::memory_order_relaxed);
  return reclaimed;
}

StatusOr<int> DocumentStore::Compact(const std::string& name) {
  const bool durable = !options_.durable_dir.empty();
  if (durable && read_only()) return ReadOnlyError();
  for (;;) {
    const std::shared_ptr<DocState> state = FindState(name);
    if (state == nullptr) return Status::Error("no document named " + name);
    std::lock_guard<std::mutex> lock(state->mu);
    if (FindState(name) != state) continue;  // Replaced while waiting.
    if (durable) {
      // Forced compactions are logged (threshold ones replay on their own
      // from the batches) so replay reproduces the same arena shape.
      Status s = WalAppend(WalRecordKind::kCompact, name, "",
                           &state->last_lsn);
      if (!s.ok()) return s;
    }
    return CompactLocked(state.get());
  }
}

void DocumentStore::MaterializeLocked(DocState* state) {
  EvalSession& session = *state->session;
  const auto& views = server_->rewriter().views();
  // Always prefetch the FULL view set, exactly like Rewriter::Materialize:
  // views sharing an output label answer from one joint DP pass, and keeping
  // the grouping identical across materializations keeps the joint passes'
  // cache signatures stable — that is what lets the engine's subtree memo
  // serve the unchanged subtrees of the next delta. (Prefetching a clean
  // view costs nothing extra: it rides the same pass, and its extension is
  // not touched below.)
  std::vector<const Pattern*> defs;
  defs.reserve(views.size());
  for (const NamedView& v : views) defs.push_back(&v.def);
  session.PrefetchTP(defs);
  auto snapshot = std::make_shared<SharedExtensions>();
  for (const NamedView& v : views) {
    ViewState& vs = state->views[v.name];
    if (!vs.dirty && vs.view != nullptr) {
      (*snapshot)[v.name] = vs.handle;
      views_clean_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const std::vector<NodeProb>& evaluated = session.EvaluateTP(v.def);
    std::vector<ViewResultEntry> results;
    results.reserve(evaluated.size());
    for (const NodeProb& np : evaluated) {
      results.push_back({np.node, np.prob});
    }
    // Tombstones accumulate in a patched extension; once they outweigh the
    // live nodes in the chosen patch target, a compacting rebuild is
    // cheaper than further patching.
    const auto bloated = [](const MaterializedView& mv) {
      return TombstonesOutweighLive(mv.ext);
    };
    std::shared_ptr<MaterializedView> target;
    if (options_.incremental && vs.view != nullptr) {
      if (vs.spare != nullptr &&
          vs.spare_readers_done->load(std::memory_order_acquire) &&
          !bloated(*vs.spare)) {
        // The retired buffer has no readers left: patch it in place (its
        // own results/versions describe the state it was built from, so
        // the delta is computed against the right baseline).
        target = std::move(vs.spare);
      } else if (!bloated(*vs.view)) {
        // Readers still hold the retired buffer — fall back to a copy.
        target = std::make_shared<MaterializedView>(*vs.view);
      }
    }
    if (target != nullptr) {
      BuildViewExtensionDelta(state->doc, results, target.get(),
                              options_.extension_options);
      vs.spare = std::move(vs.view);
      vs.spare_readers_done = std::move(vs.readers_done);
      vs.view = std::move(target);
      views_patched_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Compaction: drop any bloated buffer outright.
      vs.spare = nullptr;
      vs.spare_readers_done = nullptr;
      vs.view = std::make_shared<MaterializedView>(BuildMaterializedView(
          state->doc, v.name, results, options_.extension_options));
      views_rebuilt_.fetch_add(1, std::memory_order_relaxed);
    }
    vs.dirty = false;
    // Replacing the handle drops the store's own copy of the old one, so
    // only snapshots still hold the retired buffer.
    vs.readers_done = std::make_shared<std::atomic<bool>>(false);
    vs.handle = ReaderHandle(vs.view, vs.readers_done);
    (*snapshot)[v.name] = vs.handle;
  }
  std::lock_guard<std::mutex> lock(state->snap_mu);
  state->snapshot = std::move(snapshot);
}

Status DocumentStore::MaterializeIncremental(const std::string& name) {
  for (;;) {
    const std::shared_ptr<DocState> state = FindState(name);
    if (state == nullptr) return Status::Error("no document named " + name);
    std::lock_guard<std::mutex> lock(state->mu);
    if (FindState(name) != state) continue;  // Replaced while waiting.
    MaterializeLocked(state.get());
    materializations_.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }
}

std::vector<std::string> DocumentStore::DirtyViews(
    const std::string& name) const {
  std::vector<std::string> dirty;
  const std::shared_ptr<DocState> state = FindState(name);
  if (state == nullptr) return dirty;
  std::lock_guard<std::mutex> lock(state->mu);
  for (const auto& [view, vs] : state->views) {
    if (vs.dirty) dirty.push_back(view);
  }
  return dirty;
}

std::shared_ptr<const SharedExtensions> DocumentStore::Snapshot(
    const std::string& name) const {
  const std::shared_ptr<DocState> state = FindState(name);
  if (state == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(state->snap_mu);
  return state->snapshot;
}

std::optional<std::vector<PidProb>> DocumentStore::Answer(
    const std::string& name, const Pattern& q) {
  const std::shared_ptr<const SharedExtensions> snapshot = Snapshot(name);
  if (snapshot == nullptr) return std::nullopt;
  return server_->AnswerWith(q, *snapshot);
}

std::vector<std::optional<std::vector<PidProb>>> DocumentStore::AnswerAll(
    const std::string& name, const std::vector<Pattern>& queries) {
  std::vector<std::optional<std::vector<PidProb>>> results(queries.size());
  const std::shared_ptr<const SharedExtensions> snapshot = Snapshot(name);
  if (snapshot == nullptr) return results;
  server_->pool().ParallelFor(static_cast<int>(queries.size()), [&](int i) {
    results[i] = server_->AnswerWith(queries[i], *snapshot);
  });
  return results;
}

void DocumentStore::EnsureStandingLocked(DocState* state) {
  if (state->standing != nullptr) return;
  // The standing session runs the lineage-circuit backend regardless of
  // the store's serving EvalOptions: the whole point is that the
  // registered queries share one circuit, so a delta costs one merged
  // propagation. Kernel pinning carries over; result caching is required
  // (replays after the first post-delta query are cache hits).
  EvalOptions eval = options_.eval;
  eval.backend = BackendKind::kCircuit;
  eval.cache_results = true;
  eval.cache_subtrees = false;
  state->standing = std::make_unique<EvalSession>(state->doc, eval);
}

void DocumentStore::RefreshStandingLocked(DocState* state) {
  EnsureStandingLocked(state);
  state->standing_answers = server_->AnswerAllCached(state->standing.get());
  state->standing_uid = state->doc.uid();
  cached_refreshes_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<std::vector<std::vector<PidProb>>> DocumentStore::AnswerAllCached(
    const std::string& name) {
  for (;;) {
    const std::shared_ptr<DocState> state = FindState(name);
    if (state == nullptr) return std::nullopt;
    std::lock_guard<std::mutex> lock(state->mu);
    if (FindState(name) != state) continue;  // Replaced while waiting.
    if (server_->cached_queries().empty()) {
      return std::vector<std::vector<PidProb>>{};
    }
    if (state->standing == nullptr ||
        state->standing_uid != state->doc.uid() ||
        state->standing_answers.size() !=
            server_->cached_queries().size()) {
      RefreshStandingLocked(state.get());
    }
    return state->standing_answers;
  }
}

StatusOr<std::vector<PidProb>> DocumentStore::WhatIf(
    const std::string& name, const Pattern& q,
    const std::vector<WhatIfChange>& changes) {
  for (;;) {
    const std::shared_ptr<DocState> state = FindState(name);
    if (state == nullptr) {
      return Status::Error("what-if: unknown document '" + name + "'");
    }
    std::lock_guard<std::mutex> lock(state->mu);
    if (FindState(name) != state) continue;  // Replaced while waiting.
    EnsureStandingLocked(state.get());
    return server_->WhatIf(state->standing.get(), q, changes);
  }
}

const PDocument* DocumentStore::Find(const std::string& name) const {
  const std::shared_ptr<DocState> state = FindState(name);
  return state == nullptr ? nullptr : &state->doc;
}

DocumentStoreStats DocumentStore::stats() const {
  DocumentStoreStats s;
  s.batches = batches_.load(std::memory_order_relaxed);
  s.mutations = mutations_.load(std::memory_order_relaxed);
  s.rejected_batches = rejected_batches_.load(std::memory_order_relaxed);
  s.materializations = materializations_.load(std::memory_order_relaxed);
  s.views_patched = views_patched_.load(std::memory_order_relaxed);
  s.views_rebuilt = views_rebuilt_.load(std::memory_order_relaxed);
  s.views_clean = views_clean_.load(std::memory_order_relaxed);
  s.compactions = compactions_.load(std::memory_order_relaxed);
  s.nodes_reclaimed = nodes_reclaimed_.load(std::memory_order_relaxed);
  s.wal_appends = wal_appends_.load(std::memory_order_relaxed);
  s.wal_bytes = wal_bytes_.load(std::memory_order_relaxed);
  s.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  s.recoveries = recoveries_.load(std::memory_order_relaxed);
  s.torn_records_dropped =
      torn_records_dropped_.load(std::memory_order_relaxed);
  s.read_only = read_only_.load(std::memory_order_acquire) ? 1 : 0;
  s.cached_refreshes = cached_refreshes_.load(std::memory_order_relaxed);
  return s;
}

SubtreeCacheStats DocumentStore::SessionCacheStats(
    const std::string& name) const {
  const std::shared_ptr<DocState> state = FindState(name);
  if (state == nullptr) return {};
  std::lock_guard<std::mutex> lock(state->mu);
  return state->session->subtree_cache_stats();
}

}  // namespace pxv
