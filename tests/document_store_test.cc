// DocumentStore semantics: transactional mutation batches, label-overlap
// dirty-view tracking, per-document snapshot isolation and atomic swap,
// and end-to-end answering through the ViewServer plan cache.

#include "serve/document_store.h"

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gen/docgen.h"
#include "pxml/parser.h"
#include "rewrite/rewriter.h"
#include "serve/view_server.h"
#include "tp/parser.h"
#include "util/random.h"
#include "xml/label.h"

namespace pxv {
namespace {

PDocument PersonnelDoc(int persons = 30) {
  Rng rng(411);
  return PersonnelPDocument(rng, persons, 0.3, 0.4);
}

void RegisterPersonnelViews(ViewServer* server) {
  server->AddView("vbonus", Tp("IT-personnel//person/bonus"));
  server->AddView("vrick", Tp("IT-personnel//person[name/Rick]/bonus"));
}

// The pid of some "Rick" name alternative (an ordinary mux child whose
// edge probability is free to move below its sibling budget).
PersistentId SomeRickPid(const PDocument& pd) {
  for (NodeId n = 0; n < pd.size(); ++n) {
    if (pd.ordinary(n) && !pd.detached(n) && pd.label(n) == Intern("Rick")) {
      return pd.pid(n);
    }
  }
  ADD_FAILURE() << "no Rick alternative found";
  return kNullPid;
}

TEST(DocumentStoreTest, PutAnswerMatchesDirectMaterialization) {
  ViewServer server;
  RegisterPersonnelViews(&server);
  DocumentStore store(&server);
  const PDocument pd = PersonnelDoc();
  ASSERT_TRUE(store.Put("docs", pd).ok());

  const Pattern q = Tp("IT-personnel//person[name/Rick]/bonus");
  const auto from_store = store.Answer("docs", q);
  server.Materialize(pd);
  const auto from_server = server.Answer(q);
  ASSERT_EQ(from_store.has_value(), from_server.has_value());
  ASSERT_TRUE(from_store.has_value());
  ASSERT_EQ(from_store->size(), from_server->size());
  for (size_t i = 0; i < from_store->size(); ++i) {
    EXPECT_EQ((*from_store)[i].pid, (*from_server)[i].pid);
    EXPECT_DOUBLE_EQ((*from_store)[i].prob, (*from_server)[i].prob);
  }
}

TEST(DocumentStoreTest, UnknownNamesFailGracefully) {
  ViewServer server;
  RegisterPersonnelViews(&server);
  DocumentStore store(&server);
  EXPECT_FALSE(store.Answer("nope", Tp("IT-personnel//person/bonus"))
                   .has_value());
  EXPECT_FALSE(store.MaterializeIncremental("nope").ok());
  EXPECT_FALSE(store.Drop("nope").ok());
  EXPECT_FALSE(
      store.Apply("nope", {DocMutation::SetEdgeProb(1, 0.5)}).ok());
  EXPECT_TRUE(store.Names().empty());
  EXPECT_EQ(store.Snapshot("nope"), nullptr);
}

TEST(DocumentStoreTest, TransactionalBatchRollsBackAsAWhole) {
  ViewServer server;
  RegisterPersonnelViews(&server);
  DocumentStore store(&server);
  ASSERT_TRUE(store.Put("docs", PersonnelDoc()).ok());
  const PDocument* doc = store.Find("docs");
  ASSERT_NE(doc, nullptr);
  const std::string before = doc->DebugString();
  const uint64_t uid_before = doc->uid();

  const PersistentId rick = SomeRickPid(*doc);
  // First mutation is valid, second targets a nonexistent pid: the whole
  // batch must roll back, first mutation included.
  const auto status = store.Apply(
      "docs", {DocMutation::SetEdgeProb(rick, 0.0),
               DocMutation::RemoveSubtree(999999)});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(doc->DebugString(), before);
  EXPECT_EQ(doc->uid(), uid_before);
  EXPECT_EQ(store.stats().rejected_batches, 1);
  EXPECT_EQ(store.stats().batches, 0);
  // The store still serves and still accepts a valid batch afterwards.
  EXPECT_TRUE(store.Apply("docs", {DocMutation::SetEdgeProb(rick, 0.0)}).ok());
  EXPECT_NE(doc->uid(), uid_before);
}

TEST(DocumentStoreTest, InvalidResultingDocumentRollsBack) {
  ViewServer server;
  server.AddView("v", Tp("a/b"));
  DocumentStore store(&server);
  const auto pd = ParsePDocument("a(mux(b(c)@0.6, b(d)@0.3))");
  ASSERT_TRUE(pd.ok());
  ASSERT_TRUE(store.Put("d", *pd).ok());
  const PDocument* doc = store.Find("d");
  const std::string before = doc->DebugString();
  // Raising one mux branch to 0.9 makes the mux sum 0.6 + 0.9 > 1: the
  // post-batch Validate must reject and restore.
  const NodeId b2 = doc->FindByPid(4);
  ASSERT_NE(b2, kNullNode);
  const auto status = store.Apply(
      "d", {DocMutation::SetEdgeProb(doc->pid(b2), 0.9)});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(doc->DebugString(), before);
}

TEST(DocumentStoreTest, InsertPayloadMustCarryFreshPids) {
  ViewServer server;
  server.AddView("v", Tp("a/b"));
  DocumentStore store(&server);
  ASSERT_TRUE(store.Put("d", *ParsePDocument("a(b(c))")).ok());
  const PDocument* doc = store.Find("d");
  const std::string before = doc->DebugString();

  // Default parser pids (0,1,...) collide with the host document's own —
  // persistent ids must stay unique, so the batch is rejected.
  EXPECT_FALSE(
      store.Apply("d", {DocMutation::InsertSubtree(0, *ParsePDocument("b(c)"))})
          .ok());
  EXPECT_EQ(doc->DebugString(), before);
  // Payload-internal duplicates are rejected too.
  EXPECT_FALSE(store
                   .Apply("d", {DocMutation::InsertSubtree(
                                   0, *ParsePDocument("b#7(c#7)"))})
                   .ok());
  // Fresh explicit pids pass.
  EXPECT_TRUE(store
                  .Apply("d", {DocMutation::InsertSubtree(
                                  0, *ParsePDocument("b#10(c#11)"))})
                  .ok());
  ASSERT_TRUE(store.MaterializeIncremental("d").ok());
  const auto answer = store.Answer("d", Tp("a/b"));
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->size(), 2u);  // Both b results, distinct pids.
}

TEST(DocumentStoreTest, LabelOverlapDirtyTracking) {
  ViewServer server;
  server.AddView("vbonus", Tp("IT-personnel//person/bonus"));
  server.AddView("vrick", Tp("IT-personnel//person[name/Rick]/bonus"));
  DocumentStore store(&server);
  ASSERT_TRUE(store.Put("docs", PersonnelDoc()).ok());
  EXPECT_TRUE(store.DirtyViews("docs").empty());

  // Mutating a Rick alternative's probability touches label {Rick} — only
  // vrick reads it; vbonus must stay clean.
  const PDocument* doc = store.Find("docs");
  ASSERT_TRUE(
      store.Apply("docs", {DocMutation::SetEdgeProb(SomeRickPid(*doc), 0.05)})
          .ok());
  const auto dirty = store.DirtyViews("docs");
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], "vrick");

  // Clean views are republished by pointer, not copied.
  const auto snap_before = store.Snapshot("docs");
  ASSERT_TRUE(store.MaterializeIncremental("docs").ok());
  const auto snap_after = store.Snapshot("docs");
  EXPECT_NE(snap_before, snap_after);
  EXPECT_EQ(snap_before->at("vbonus").get(), snap_after->at("vbonus").get());
  EXPECT_NE(snap_before->at("vrick").get(), snap_after->at("vrick").get());
  EXPECT_TRUE(store.DirtyViews("docs").empty());
  EXPECT_EQ(store.stats().views_clean, 1);
  EXPECT_EQ(store.stats().views_patched, 1);
}

TEST(DocumentStoreTest, SnapshotIsolationAcrossMaterializations) {
  ViewServer server;
  server.AddView("v", Tp("a/b"));
  DocumentStore store(&server);
  const auto pd = ParsePDocument("a(ind(b(c)@0.5))");
  ASSERT_TRUE(pd.ok());
  ASSERT_TRUE(store.Put("d", *pd).ok());

  const auto snap1 = store.Snapshot("d");
  const PDocument& ext1 = *snap1->at("v");
  const auto roots1 = ExtensionResultRoots(ext1);
  ASSERT_EQ(roots1.size(), 1u);
  EXPECT_DOUBLE_EQ(ext1.edge_prob(roots1[0]), 0.5);

  // Mutate + re-materialize: the old snapshot keeps serving 0.5 forever.
  const PDocument* doc = store.Find("d");
  const PersistentId b_pid = [&] {
    for (NodeId n = 0; n < doc->size(); ++n) {
      if (doc->ordinary(n) && doc->label(n) == Intern("b")) {
        return doc->pid(n);
      }
    }
    return kNullPid;
  }();
  ASSERT_TRUE(
      store.Apply("d", {DocMutation::SetEdgeProb(b_pid, 0.25)}).ok());
  // Until MaterializeIncremental, the published snapshot is unchanged.
  EXPECT_EQ(store.Snapshot("d"), snap1);
  ASSERT_TRUE(store.MaterializeIncremental("d").ok());
  const auto snap2 = store.Snapshot("d");
  EXPECT_DOUBLE_EQ(ext1.edge_prob(roots1[0]), 0.5);  // Old snapshot intact.
  const PDocument& ext2 = *snap2->at("v");
  const auto roots2 = ExtensionResultRoots(ext2);
  ASSERT_EQ(roots2.size(), 1u);
  EXPECT_DOUBLE_EQ(ext2.edge_prob(roots2[0]), 0.25);
}

TEST(DocumentStoreTest, MultipleDocumentsAreIndependent) {
  ViewServer server;
  server.AddView("v", Tp("a/b"));
  DocumentStore store(&server);
  ASSERT_TRUE(store.Put("one", *ParsePDocument("a(ind(b@0.5))")).ok());
  ASSERT_TRUE(store.Put("two", *ParsePDocument("a(ind(b@0.75))")).ok());
  EXPECT_EQ(store.Names().size(), 2u);

  const Pattern q = Tp("a/b");
  const auto a1 = store.Answer("one", q);
  const auto a2 = store.Answer("two", q);
  ASSERT_TRUE(a1.has_value() && a2.has_value());
  ASSERT_EQ(a1->size(), 1u);
  ASSERT_EQ(a2->size(), 1u);
  EXPECT_DOUBLE_EQ((*a1)[0].prob, 0.5);
  EXPECT_DOUBLE_EQ((*a2)[0].prob, 0.75);

  EXPECT_TRUE(store.Drop("one").ok());
  EXPECT_FALSE(store.Answer("one", q).has_value());
  EXPECT_TRUE(store.Answer("two", q).has_value());
}

TEST(DocumentStoreTest, AnswerAllServesOneSnapshot) {
  ViewServer server;
  RegisterPersonnelViews(&server);
  DocumentStore store(&server);
  ASSERT_TRUE(store.Put("docs", PersonnelDoc(20)).ok());
  const std::vector<Pattern> queries = {
      Tp("IT-personnel//person/bonus"),
      Tp("IT-personnel//person[name/Rick]/bonus"),
  };
  const auto all = store.AnswerAll("docs", queries);
  ASSERT_EQ(all.size(), 2u);
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto one = store.Answer("docs", queries[i]);
    ASSERT_EQ(all[i].has_value(), one.has_value());
    if (one.has_value()) EXPECT_EQ(all[i]->size(), one->size());
  }
}

// Concurrent serving while the writer churns across compaction thresholds:
// readers must only ever observe published snapshots (never a mid-compaction
// arena), and every answered probability must belong to one of the two
// document states each person toggles through. Runs under TSan in CI.
TEST(DocumentStoreTest, ReadersSurviveConcurrentCompaction) {
  ViewServer server;
  RegisterPersonnelViews(&server);
  DocumentStore store(&server);
  ASSERT_TRUE(store.Put("docs", PersonnelDoc(8)).ok());
  const PDocument* doc = store.Find("docs");
  std::vector<PersistentId> persons;
  for (NodeId n = 0; n < doc->size(); ++n) {
    if (doc->ordinary(n) && doc->label(n) == Intern("person")) {
      persons.push_back(doc->pid(n));
    }
  }
  ASSERT_GE(persons.size(), 4u);

  std::atomic<int> answered{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      const Pattern q = Tp("IT-personnel//person/bonus");
      // Fixed iteration count (not a stop flag): the readers must overlap
      // the writer's compaction rounds even when either side is fast.
      for (int i = 0; i < 400; ++i) {
        const auto a = store.Answer("docs", q);
        if (a.has_value()) answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Writer: remove most persons (crossing detached > live, so Apply
  // compacts), re-insert fresh ones, re-materialize; repeat.
  PersistentId next_pid = 9000000;
  for (int round = 0; round < 6; ++round) {
    std::vector<DocMutation> removals;
    std::vector<PersistentId> keep;
    for (size_t i = 0; i < persons.size(); ++i) {
      if (i + 2 < persons.size()) {
        removals.push_back(DocMutation::RemoveSubtree(persons[i]));
      } else {
        keep.push_back(persons[i]);
      }
    }
    ASSERT_TRUE(store.Apply("docs", removals).ok());
    persons = std::move(keep);
    for (int i = 0; i < 6; ++i) {
      PDocument person;
      {
        PDocument::MutationBatch batch(&person);
        const NodeId p = person.AddRoot(Intern("person"), next_pid++);
        const NodeId bonus =
            person.AddOrdinary(p, Intern("bonus"), 1.0, next_pid++);
        const NodeId ind = person.AddDistributional(bonus, PKind::kInd);
        person.AddOrdinary(ind, Intern("laptop"), 0.5, next_pid++);
      }
      persons.push_back(person.pid(person.root()));
      ASSERT_TRUE(store
                      .Apply("docs", {DocMutation::InsertSubtree(
                                         doc->pid(doc->root()),
                                         std::move(person))})
                      .ok());
    }
    ASSERT_TRUE(store.MaterializeIncremental("docs").ok());
  }
  for (auto& r : readers) r.join();
  EXPECT_GT(answered.load(), 0);
  EXPECT_GT(store.stats().compactions, 0);
  EXPECT_EQ(store.Find("docs")->detached_count(), 0);
}

TEST(DocumentStoreTest, IncrementalSessionUsesSubtreeCache) {
  ViewServer server;
  RegisterPersonnelViews(&server);
  DocumentStore store(&server);
  ASSERT_TRUE(store.Put("docs", PersonnelDoc()).ok());
  const auto cold = store.SessionCacheStats("docs");
  EXPECT_GT(cold.stores, 0u);  // First materialization populated the memo.

  const PDocument* doc = store.Find("docs");
  ASSERT_TRUE(
      store.Apply("docs", {DocMutation::SetEdgeProb(SomeRickPid(*doc), 0.01)})
          .ok());
  ASSERT_TRUE(store.MaterializeIncremental("docs").ok());
  const auto warm = store.SessionCacheStats("docs");
  EXPECT_GT(warm.hits, cold.hits);  // Delta run served subtrees from memo.
  // The delta recomputed far fewer regions than the cold run stored.
  EXPECT_LT(warm.stores - cold.stores, cold.stores / 4);
}

// --------------------------------------------------- standing queries ----

TEST(DocumentStoreTest, StandingQueriesRefreshOnApply) {
  ViewServer server;
  RegisterPersonnelViews(&server);
  server.RegisterCachedQuery(Tp("IT-personnel//person/bonus"));
  server.RegisterCachedQuery(Tp("IT-personnel//person[name/Rick]/bonus"));
  server.RegisterCachedQuery(Tp("IT-personnel//person/bonus"));  // Dup: once.
  ASSERT_EQ(server.cached_queries().size(), 2u);
  DocumentStore store(&server);
  EXPECT_FALSE(store.AnswerAllCached("nope").has_value());
  ASSERT_TRUE(store.Put("docs", PersonnelDoc(12)).ok());

  // Every standing answer must match a fresh exact-DP evaluation to the
  // bit, pid-keyed — the shared circuit serving them is never allowed to
  // drift.
  const auto check = [&](const char* when) {
    const auto answers = store.AnswerAllCached("docs");
    ASSERT_TRUE(answers.has_value()) << when;
    ASSERT_EQ(answers->size(), server.cached_queries().size()) << when;
    const PDocument* doc = store.Find("docs");
    EvalSession exact(*doc, {});
    for (size_t i = 0; i < answers->size(); ++i) {
      const auto want = exact.EvaluateTP(server.cached_queries()[i]);
      ASSERT_EQ((*answers)[i].size(), want.size()) << when << " query " << i;
      for (size_t j = 0; j < want.size(); ++j) {
        EXPECT_EQ((*answers)[i][j].pid, doc->pid(want[j].node))
            << when << " query " << i;
        EXPECT_EQ((*answers)[i][j].prob, want[j].prob)
            << when << " query " << i;
      }
    }
  };
  check("cold");
  EXPECT_EQ(store.stats().cached_refreshes, 1);

  // Apply refreshes the standing answers inline (one merged propagation on
  // the document's standing session); the next read is a pure cache hit.
  const PDocument* doc = store.Find("docs");
  ASSERT_TRUE(
      store.Apply("docs", {DocMutation::SetEdgeProb(SomeRickPid(*doc), 0.02)})
          .ok());
  EXPECT_EQ(store.stats().cached_refreshes, 2);
  check("after prob apply");
  EXPECT_EQ(store.stats().cached_refreshes, 2);  // Served from cache.

  // Structural mutations ride the circuit's recompile fallback and still
  // land bit-identical.
  const PersistentId person = [&] {
    for (NodeId n = 0; n < doc->size(); ++n) {
      if (doc->ordinary(n) && !doc->detached(n) &&
          doc->label(n) == Intern("person")) {
        return doc->pid(n);
      }
    }
    return kNullPid;
  }();
  ASSERT_NE(person, kNullPid);
  ASSERT_TRUE(
      store.Apply("docs", {DocMutation::RemoveSubtree(person)}).ok());
  check("after structural apply");
  EXPECT_EQ(store.stats().cached_refreshes, 3);
  EXPECT_GE(server.stats().cached_batches, 3);
  EXPECT_EQ(server.stats().cached_queries, 2);
}

// ----------------------------------------------------- durable stores ----
// TSan-facing coverage: checkpointing and recovery share process-global
// state with serving stores (the label interner, the version-stamp
// counter) and per-store state with readers (snapshots, the WAL mutex).

std::string DurableTestDir(const std::string& name) {
  const std::string dir =
      testing::TempDir() + "/pxv_docstore_durable_" + name;
  std::system(("rm -rf " + dir).c_str());
  return dir;
}

DocumentStoreOptions Durable(const std::string& dir) {
  DocumentStoreOptions options;
  options.durable_dir = dir;
  options.fsync = FsyncPolicy::kBatch;
  options.sync_every_records = 4;
  options.checkpoint_after_wal_bytes = 0;
  return options;
}

// Mux name alternatives: edge probabilities that are free to move
// anywhere below their initial value (the mux budget only gains slack).
std::vector<std::pair<PersistentId, double>> MuxAlternatives(
    const PDocument& doc) {
  std::vector<std::pair<PersistentId, double>> out;
  for (NodeId n = 0; n < doc.size(); ++n) {
    if (!doc.ordinary(n) || doc.detached(n)) continue;
    const NodeId parent = doc.parent(n);
    if (parent != kNullNode && !doc.ordinary(parent) &&
        doc.kind(parent) == PKind::kMux) {
      out.push_back({doc.pid(n), doc.edge_prob(n)});
    }
  }
  return out;
}

TEST(DocumentStoreTest, ReadersKeepAnsweringDuringCheckpoints) {
  const std::string dir = DurableTestDir("ckpt_readers");
  ViewServer server;
  RegisterPersonnelViews(&server);
  auto store = DocumentStore::Open(&server, Durable(dir));
  ASSERT_TRUE(store.ok()) << store.status().message();
  ASSERT_TRUE((*store)->Put("docs", PersonnelDoc(8)).ok());
  const auto alternatives = MuxAlternatives(*(*store)->Find("docs"));
  ASSERT_GE(alternatives.size(), 4u);

  std::atomic<int> answered{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      const Pattern q = Tp("IT-personnel//person/bonus");
      for (int i = 0; i < 300; ++i) {
        if ((*store)->Answer("docs", q).has_value()) {
          answered.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // A dedicated checkpointer overlapping the writer: Checkpoint() must
  // rotate the WAL and serialize documents while Apply commits and
  // readers resolve snapshots. The CAS guard turns self-overlap into a
  // no-op; overlap with Apply is the interesting interleaving. The first
  // checkpoint is unconditional, so it is taken however late the thread is
  // scheduled, and the writer waits until the checkpointer is running.
  std::atomic<bool> started{false};
  std::atomic<bool> stop{false};
  std::thread checkpointer([&] {
    started.store(true, std::memory_order_release);
    do {
      ASSERT_TRUE((*store)->Checkpoint().ok());
    } while (!stop.load(std::memory_order_acquire));
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  Rng rng(97);
  for (int i = 0; i < 120; ++i) {
    const auto& [pid, initial] =
        alternatives[rng.NextBounded(alternatives.size())];
    ASSERT_TRUE((*store)
                    ->Apply("docs", {DocMutation::SetEdgeProb(
                                        pid, initial * rng.NextDouble())})
                    .ok());
    if (i % 10 == 0) {
      ASSERT_TRUE((*store)->MaterializeIncremental("docs").ok());
    }
  }
  stop.store(true, std::memory_order_release);
  checkpointer.join();
  for (auto& r : readers) r.join();
  EXPECT_GT(answered.load(), 0);
  EXPECT_GE((*store)->stats().checkpoints, 1);

  // Checkpoints taken mid-stream still recover to exactly the live state.
  ASSERT_TRUE((*store)->MaterializeIncremental("docs").ok());
  const Pattern q = Tp("IT-personnel//person[name/Rick]/bonus");
  const auto live = (*store)->Answer("docs", q);
  store->reset();
  ViewServer server2;
  RegisterPersonnelViews(&server2);
  auto reopened = DocumentStore::Open(&server2, Durable(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  const auto recovered = (*reopened)->Answer("docs", q);
  ASSERT_EQ(live.has_value(), recovered.has_value());
  if (live.has_value()) {
    ASSERT_EQ(live->size(), recovered->size());
    for (size_t i = 0; i < live->size(); ++i) {
      EXPECT_EQ((*live)[i].pid, (*recovered)[i].pid);
      EXPECT_EQ((*live)[i].prob, (*recovered)[i].prob);
    }
  }
}

TEST(DocumentStoreTest, RecoveryRunsConcurrentlyWithAServingStore) {
  // Prepare a durable directory, cleanly closed.
  const std::string dir = DurableTestDir("recover_serving");
  {
    ViewServer server;
    RegisterPersonnelViews(&server);
    auto store = DocumentStore::Open(&server, Durable(dir));
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("docs", PersonnelDoc(8)).ok());
    const auto alternatives = MuxAlternatives(*(*store)->Find("docs"));
    Rng rng(5);
    for (int i = 0; i < 30; ++i) {
      const auto& [pid, initial] =
          alternatives[rng.NextBounded(alternatives.size())];
      ASSERT_TRUE((*store)
                      ->Apply("docs", {DocMutation::SetEdgeProb(
                                          pid, initial * rng.NextDouble())})
                      .ok());
    }
  }

  // A live in-memory store keeps applying (stamping fresh versions,
  // interning labels) and answering while Open() replays the directory —
  // recovery's Deserialize bumps the process-global version counter and
  // resolves the same interner concurrently.
  ViewServer live_server;
  RegisterPersonnelViews(&live_server);
  DocumentStore live(&live_server);
  ASSERT_TRUE(live.Put("docs", PersonnelDoc(8)).ok());
  const auto alternatives = MuxAlternatives(*live.Find("docs"));
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(6);
    while (!stop.load(std::memory_order_acquire)) {
      const auto& [pid, initial] =
          alternatives[rng.NextBounded(alternatives.size())];
      ASSERT_TRUE(live.Apply("docs", {DocMutation::SetEdgeProb(
                                         pid, initial * rng.NextDouble())})
                      .ok());
    }
  });
  std::thread reader([&] {
    const Pattern q = Tp("IT-personnel//person/bonus");
    while (!stop.load(std::memory_order_acquire)) {
      live.Answer("docs", q);
    }
  });

  for (int round = 0; round < 4; ++round) {
    ViewServer server;
    RegisterPersonnelViews(&server);
    auto recovered = DocumentStore::Open(&server, Durable(dir));
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    EXPECT_NE((*recovered)->Find("docs"), nullptr);
    EXPECT_TRUE((*recovered)
                    ->Answer("docs", Tp("IT-personnel//person/bonus"))
                    .has_value());
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  reader.join();
}

}  // namespace
}  // namespace pxv
