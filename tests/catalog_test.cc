// Durable self-describing catalog (storage/catalog_store.h): wire codec,
// write-through DDL, self-contained reopen (no application schema
// re-creation on either WAL backend), spec-driven index rebuild, DORA
// rewiring from recovered metadata, and named rejection of corrupt or
// version-mismatched catalog files.

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dora/dora_engine.h"
#include "engine/database.h"
#include "log/recovery.h"
#include "storage/catalog_store.h"
#include "util/rng.h"
#include "workloads/tpcb/tpcb.h"

namespace doradb {
namespace {

std::string TempDataDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "doradb_catalog_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string Key64(uint64_t v) {
  KeyBuilder kb;
  kb.Add64(v);
  return kb.Str();
}

Database::Options DurableOpts(const std::string& dir,
                              LogBackendKind backend, uint32_t parts = 2) {
  Database::Options o;
  o.buffer_frames = 512;
  o.log_backend = backend;
  o.log_partitions = parts;
  o.log.flush_interval_us = 20;
  o.lock.wait_timeout_us = 300000;
  o.data_dir = dir;
  o.log_segment_bytes = 4096;
  return o;
}

// ------------------------------------------------------------ wire codec

TEST(CatalogStoreTest, ImageRoundTripsThroughSerialization) {
  CatalogImage img;
  img.tables.push_back(CatalogImage::Table{0, "accounts", 1001, 4, {}, {}, 0});
  img.tables.push_back(CatalogImage::Table{1, "history", 0, 0, {}, {}, 0});
  CatalogImage::Index pk;
  pk.id = 0;
  pk.name = "accounts_pk";
  pk.table_id = 0;
  pk.unique = true;
  pk.secondary = false;
  pk.key_spec = IndexKeySpec::U64At(0, 8);
  img.indexes.push_back(pk);
  CatalogImage::Index sec;
  sec.id = 1;
  sec.name = "accounts_name";
  sec.table_id = 0;
  sec.unique = false;
  sec.secondary = true;
  sec.key_spec = IndexKeySpec{}.Uint(4, 4).Bytes(16, 15).Aux(0, 4);
  img.indexes.push_back(sec);

  std::vector<uint8_t> bytes;
  CatalogStore::Serialize(img, &bytes);
  CatalogImage out;
  ASSERT_TRUE(CatalogStore::Deserialize(bytes, &out).ok());

  ASSERT_EQ(out.tables.size(), 2u);
  EXPECT_EQ(out.tables[0].name, "accounts");
  EXPECT_EQ(out.tables[0].key_space, 1001u);
  EXPECT_EQ(out.tables[0].dora_executors, 4u);
  EXPECT_EQ(out.tables[1].dora_executors, 0u);
  ASSERT_EQ(out.indexes.size(), 2u);
  EXPECT_TRUE(out.indexes[0].unique);
  EXPECT_FALSE(out.indexes[0].secondary);
  ASSERT_EQ(out.indexes[0].key_spec.fields.size(), 1u);
  EXPECT_EQ(out.indexes[0].key_spec.aux_offset, 8u);
  EXPECT_TRUE(out.indexes[1].secondary);
  ASSERT_EQ(out.indexes[1].key_spec.fields.size(), 2u);
  EXPECT_EQ(out.indexes[1].key_spec.fields[1].kind,
            IndexKeyField::Kind::kBytes);
  EXPECT_EQ(out.indexes[1].key_spec.fields[1].width, 15u);
  EXPECT_EQ(out.indexes[1].key_spec.aux_width, 4u);
}

TEST(CatalogStoreTest, DeserializeRejectsBadMagicVersionAndChecksum) {
  CatalogImage img;
  img.tables.push_back(CatalogImage::Table{0, "t", 0, 0, {}, {}, 0});
  std::vector<uint8_t> bytes;
  CatalogStore::Serialize(img, &bytes);

  {
    std::vector<uint8_t> bad = bytes;
    bad[0] ^= 0xFF;
    CatalogImage out;
    const Status s = CatalogStore::Deserialize(bad, &out);
    ASSERT_TRUE(s.IsCorruption());
    EXPECT_NE(s.ToString().find("bad magic"), std::string::npos);
  }
  {
    std::vector<uint8_t> bad = bytes;
    bad[8] = 99;  // version field
    CatalogImage out;
    const Status s = CatalogStore::Deserialize(bad, &out);
    ASSERT_TRUE(s.IsCorruption());
    EXPECT_NE(s.ToString().find("version mismatch"), std::string::npos)
        << s.ToString();
  }
  {
    std::vector<uint8_t> bad = bytes;
    bad[CatalogStore::kHeaderSize + 2] ^= 0xFF;  // payload byte
    CatalogImage out;
    const Status s = CatalogStore::Deserialize(bad, &out);
    ASSERT_TRUE(s.IsCorruption());
    EXPECT_NE(s.ToString().find("checksum mismatch"), std::string::npos);
  }
  {
    std::vector<uint8_t> bad(bytes.begin(), bytes.begin() + 10);
    CatalogImage out;
    const Status s = CatalogStore::Deserialize(bad, &out);
    ASSERT_TRUE(s.IsCorruption());
    EXPECT_NE(s.ToString().find("truncated"), std::string::npos);
  }
}

TEST(CatalogStoreTest, KeySpecExtractMatchesKeyBuilder) {
  struct Row {
    uint64_t id;
    uint32_t group;
    char name[8];
  };
  Row r{};
  r.id = 0xDEADBEEFCAFEull;
  r.group = 42;
  std::memcpy(r.name, "abc", 3);
  const std::string_view rec(reinterpret_cast<const char*>(&r), sizeof(r));

  IndexKeySpec spec =
      IndexKeySpec{}.Uint(offsetof(Row, id), 8)
          .Uint(offsetof(Row, group), 4)
          .Bytes(offsetof(Row, name), 8)
          .Aux(offsetof(Row, group), 4);
  std::string key;
  uint64_t aux;
  ASSERT_TRUE(spec.Extract(rec, &key, &aux).ok());
  KeyBuilder kb;
  kb.Add64(r.id).Add32(r.group).AddString(std::string_view(r.name, 8), 8);
  EXPECT_EQ(key, kb.Str());
  EXPECT_EQ(aux, 42u);

  // A record shorter than the spec is corruption, not a partial key.
  EXPECT_TRUE(spec.Extract(rec.substr(0, 4), &key, &aux).IsCorruption());
}

TEST(CatalogStoreTest, DdlRejectsSpecsLoadWouldRefuse) {
  // Symmetry contract: any spec CreateIndex accepts must load back; any
  // spec ValidateImage refuses must be refused at DDL time too — or a
  // lifetime could persist a catalog that bricks its own data directory.
  Database db;  // in-memory: pure validation path
  TableId table;
  IndexId index;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());

  IndexKeySpec bad_width = IndexKeySpec{}.Uint(0, 3);
  EXPECT_FALSE(db.catalog()
                  ->CreateIndex(table, "i1", true, false, bad_width, &index)
                  .ok()) << "must be rejected";
  IndexKeySpec too_wide =
      IndexKeySpec{}.Uint(0, 8).Uint(8, 8).Uint(16, 8).Uint(24, 8).Uint(32, 8);
  EXPECT_FALSE(db.catalog()
                  ->CreateIndex(table, "i2", true, false, too_wide, &index)
                  .ok()) << "must be rejected";
  IndexKeySpec bad_aux = IndexKeySpec{}.Uint(0, 8).Aux(8, 9);
  EXPECT_FALSE(db.catalog()
                  ->CreateIndex(table, "i3", true, false, bad_aux, &index)
                  .ok()) << "must be rejected";
  IndexKeySpec zero_bytes = IndexKeySpec{}.Bytes(0, 0);
  EXPECT_FALSE(db.catalog()
                  ->CreateIndex(table, "i4", true, false, zero_bytes, &index)
                  .ok()) << "must be rejected";
  // The boundary case is fine: exactly kMaxKeySize bytes.
  IndexKeySpec max_wide = IndexKeySpec{}.Uint(0, 8).Uint(8, 8)
                              .Uint(16, 8).Uint(24, 8);
  EXPECT_TRUE(db.catalog()
                  ->CreateIndex(table, "i5", true, false, max_wide, &index)
                  .ok());
}

// -------------------------------------------- write-through + reopen

TEST(CatalogTest, DdlWritesThroughBeforeAnyCommit) {
  const std::string dir = TempDataDir("write_through");
  Database::Options opts = DurableOpts(dir, LogBackendKind::kPartitioned);
  TableId table;
  IndexId index;
  {
    Database db(opts);
    ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
    ASSERT_TRUE(db.catalog()
                    ->CreateIndex(table, "t_pk", true, false,
                                  IndexKeySpec::U64At(0), &index)
                    .ok());
    db.SimulateKill();
  }
  // Killed with zero committed transactions and zero checkpoints: the
  // schema alone must still be there — DDL is durable when it returns.
  Database db(opts);
  ASSERT_TRUE(db.catalog_load_status().ok())
      << db.catalog_load_status().ToString();
  ASSERT_EQ(db.catalog()->num_tables(), 1u);
  ASSERT_EQ(db.catalog()->num_indexes(), 1u);
  EXPECT_NE(db.catalog()->GetTable("t"), nullptr);
  IndexInfo* pk = db.catalog()->GetIndex("t_pk");
  ASSERT_NE(pk, nullptr);
  EXPECT_TRUE(pk->unique);
  EXPECT_TRUE(pk->key_spec.CanRebuild());
  ASSERT_TRUE(db.Recover().ok());
}

// Two lifetimes over one data directory, parameterized by WAL backend:
// kill mid-workload, reopen cold, never re-declare the schema.
class SelfContainedReopenTest
    : public ::testing::TestWithParam<LogBackendKind> {};

TEST_P(SelfContainedReopenTest, KilledDatabaseReopensWithoutSchemaSetup) {
  const bool plog = GetParam() == LogBackendKind::kPartitioned;
  const std::string dir = TempDataDir(plog ? "reopen_plog" : "reopen_central");
  Database::Options opts = DurableOpts(dir, GetParam());
  std::vector<Rid> rids;
  {
    Database db(opts);
    TableId table;
    IndexId index;
    ASSERT_TRUE(db.catalog()->CreateTable("accounts", &table).ok());
    // Records carry an 8-byte LE id prefix, declared to the catalog as
    // both the key and the aux payload.
    ASSERT_TRUE(db.catalog()
                    ->CreateIndex(table, "accounts_pk", true, false,
                                  IndexKeySpec::U64At(0, 0), &index)
                    .ok());
    for (uint64_t i = 0; i < 40; ++i) {
      if (plog) {
        db.log_manager()->BindThisThread(static_cast<uint32_t>(i));
      }
      auto txn = db.Begin();
      std::string rec(16, '\0');
      std::memcpy(rec.data(), &i, 8);
      std::memcpy(rec.data() + 8, "payload!", 8);
      Rid rid;
      ASSERT_TRUE(db.Insert(txn.get(), table, rec, &rid,
                            AccessOptions::Baseline()).ok());
      ASSERT_TRUE(db.IndexInsert(txn.get(), index, Key64(i),
                                 IndexEntry{rid, i, false}).ok());
      ASSERT_TRUE(db.Commit(txn.get()).ok());
      rids.push_back(rid);
      if (i == 20) {
        ASSERT_TRUE(db.CheckpointPartition(0).ok());  // truncation mid-run
      }
    }
    db.SimulateKill();
  }

  // Second lifetime: a process that knows NOTHING about the schema.
  Database db(opts);
  ASSERT_TRUE(db.catalog_load_status().ok())
      << db.catalog_load_status().ToString();
  ASSERT_EQ(db.catalog()->num_tables(), 1u);
  ASSERT_EQ(db.catalog()->num_indexes(), 1u);
  TableInfo* t = db.catalog()->GetTable("accounts");
  ASSERT_NE(t, nullptr);
  IndexInfo* pk = db.catalog()->GetIndex("accounts_pk");
  ASSERT_NE(pk, nullptr);
  EXPECT_TRUE(pk->unique);
  ASSERT_TRUE(db.Recover().ok());  // no rebuild callback either

  EXPECT_EQ(db.catalog()->Heap(t->id)->record_count(), 40u);
  for (uint64_t i = 0; i < 40; ++i) {
    // The persisted key spec rebuilt the index: probe by key, then match
    // the heap row.
    IndexEntry e;
    ASSERT_TRUE(db.catalog()->Index(pk->id)->Probe(Key64(i), &e).ok())
        << "key " << i;
    EXPECT_EQ(e.aux, i);
    std::string rec;
    ASSERT_TRUE(db.catalog()->Heap(t->id)->Get(e.rid, &rec).ok());
    uint64_t stored;
    std::memcpy(&stored, rec.data(), 8);
    EXPECT_EQ(stored, i);
  }

  // The reopened lifetime keeps working — including further DDL, which
  // writes through to the same catalog file.
  auto txn = db.Begin();
  Rid rid;
  std::string rec(16, 'x');
  ASSERT_TRUE(
      db.Insert(txn.get(), t->id, rec, &rid, AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db.Commit(txn.get()).ok());
  TableId extra;
  ASSERT_TRUE(db.catalog()->CreateTable("extra", &extra).ok());
  EXPECT_EQ(extra, 1u);
}

INSTANTIATE_TEST_SUITE_P(Backends, SelfContainedReopenTest,
                         ::testing::Values(LogBackendKind::kPartitioned,
                                           LogBackendKind::kCentral));

// Kill-loop: several kill/reopen cycles, schema declared exactly once in
// the first lifetime, every later lifetime fully self-contained.
class SelfContainedKillLoopTest
    : public ::testing::TestWithParam<LogBackendKind> {};

TEST_P(SelfContainedKillLoopTest, CommittedStateSurvivesEveryLifetime) {
  const bool plog = GetParam() == LogBackendKind::kPartitioned;
  const std::string dir =
      TempDataDir(plog ? "kill_loop_plog" : "kill_loop_central");
  Database::Options opts = DurableOpts(dir, GetParam(), /*parts=*/4);
  constexpr int kRows = 8;
  constexpr int kRounds = 4;
  Rng rng(7);

  std::vector<uint64_t> committed(kRows, 0);  // model: last committed value
  {
    Database db(opts);
    TableId table;
    ASSERT_TRUE(db.catalog()->CreateTable("counters", &table).ok());
    auto setup = db.Begin();
    for (int r = 0; r < kRows; ++r) {
      Rid rid;
      std::string rec(16, '\0');
      const uint64_t row = static_cast<uint64_t>(r);
      std::memcpy(rec.data(), &row, 8);
      ASSERT_TRUE(db.Insert(setup.get(), table, rec, &rid,
                            AccessOptions::Baseline()).ok());
    }
    ASSERT_TRUE(db.Commit(setup.get()).ok());
    db.SimulateKill();
  }

  for (int round = 0; round < kRounds; ++round) {
    Database db(opts);
    ASSERT_TRUE(db.catalog_load_status().ok()) << "round " << round;
    TableInfo* t = db.catalog()->GetTable("counters");
    ASSERT_NE(t, nullptr) << "round " << round;
    ASSERT_TRUE(db.Recover().ok()) << "round " << round;

    // Verify every committed value, via a full scan keyed by the row id.
    std::vector<uint64_t> seen(kRows, ~0ull);
    std::vector<Rid> row_rids(kRows);
    ASSERT_TRUE(db.catalog()
                    ->Heap(t->id)
                    ->Scan([&](const Rid& rid, std::string_view rec) {
                      uint64_t row, val;
                      std::memcpy(&row, rec.data(), 8);
                      std::memcpy(&val, rec.data() + 8, 8);
                      seen[row] = val;
                      row_rids[row] = rid;
                      return true;
                    })
                    .ok());
    for (int r = 0; r < kRows; ++r) {
      EXPECT_EQ(seen[r], committed[r]) << "round " << round << " row " << r;
    }

    // More committed updates (scattered across partitions for plog), an
    // uncommitted loser, a mid-round checkpoint, then die again.
    for (int i = 0; i < 20; ++i) {
      const int r = static_cast<int>(
          rng.UniformInt(uint64_t{0}, uint64_t{kRows - 1}));
      if (plog) {
        db.log_manager()->BindThisThread(static_cast<uint32_t>(
            rng.UniformInt(uint64_t{0}, uint64_t{3})));
      }
      auto txn = db.Begin();
      std::string rec(16, '\0');
      const uint64_t row = static_cast<uint64_t>(r);
      const uint64_t val = committed[r] + 1;
      std::memcpy(rec.data(), &row, 8);
      std::memcpy(rec.data() + 8, &val, 8);
      ASSERT_TRUE(db.Update(txn.get(), t->id, row_rids[r], rec,
                            AccessOptions::Baseline()).ok());
      ASSERT_TRUE(db.Commit(txn.get()).ok());
      committed[r] = val;
      if (i == 10 && rng.Percent(60)) {
        ASSERT_TRUE(db.CheckpointPartition(static_cast<uint32_t>(
            rng.UniformInt(uint64_t{0}, uint64_t{3}))).ok());
      }
    }
    {
      auto loser = db.Begin();
      std::string rec(16, '\7');
      ASSERT_TRUE(db.Update(loser.get(), t->id, row_rids[0], rec,
                            AccessOptions::Baseline()).ok());
      db.log_manager()->WaitFlushed(db.log_manager()->current_lsn());
      // Never committed: the next lifetime must roll it back.
    }
    db.SimulateKill();
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, SelfContainedKillLoopTest,
                         ::testing::Values(LogBackendKind::kPartitioned,
                                           LogBackendKind::kCentral));

// ------------------------------------- corruption / version rejection

TEST(CatalogTest, CorruptedCatalogFailsReopenWithNamedError) {
  const std::string dir = TempDataDir("corrupt");
  Database::Options opts = DurableOpts(dir, LogBackendKind::kPartitioned);
  {
    Database db(opts);
    TableId table;
    ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
    db.SimulateKill();
  }
  // Flip one payload byte of catalog.db.
  const std::string path = dir + "/catalog.db";
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(CatalogStore::kHeaderSize + 1));
    char b;
    f.seekg(static_cast<std::streamoff>(CatalogStore::kHeaderSize + 1));
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0xFF);
    f.seekp(static_cast<std::streamoff>(CatalogStore::kHeaderSize + 1));
    f.write(&b, 1);
  }
  Database db(opts);
  EXPECT_FALSE(db.catalog_load_status().ok());
  EXPECT_NE(db.catalog_load_status().ToString().find("catalog"),
            std::string::npos);
  EXPECT_EQ(db.catalog()->num_tables(), 0u) << "no half-read schema";
  const Status s = db.Recover();
  ASSERT_FALSE(s.ok()) << "reopen over a corrupt catalog must refuse";
  EXPECT_NE(s.ToString().find("catalog"), std::string::npos);
  EXPECT_NE(s.ToString().find("checksum"), std::string::npos);
  // DDL is poisoned too: schema created on top of an unreadable catalog
  // could never be persisted or recovered.
  TableId t2;
  const Status ddl = db.catalog()->CreateTable("anything", &t2);
  ASSERT_FALSE(ddl.ok());
  EXPECT_NE(ddl.ToString().find("catalog"), std::string::npos);
}

TEST(CatalogTest, VersionMismatchFailsReopenWithNamedError) {
  const std::string dir = TempDataDir("version");
  Database::Options opts = DurableOpts(dir, LogBackendKind::kCentral);
  {
    Database db(opts);
    TableId table;
    ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
    db.SimulateKill();
  }
  {
    std::fstream f(dir + "/catalog.db",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const char v = 99;
    f.seekp(8);  // version u32, little-endian
    f.write(&v, 1);
  }
  Database db(opts);
  const Status s = db.Recover();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("version mismatch"), std::string::npos)
      << s.ToString();
}

// --------------------------------- DORA rewiring + TPC-B end-to-end

TEST(CatalogTest, TpcbReopensSelfContainedAndKeepsInvariants) {
  const std::string dir = TempDataDir("tpcb");
  Database::Options opts = DurableOpts(dir, LogBackendKind::kPartitioned,
                                       /*parts=*/3);
  tpcb::TpcbWorkload::Config cfg;
  cfg.branches = 2;
  cfg.tellers_per_branch = 3;
  cfg.accounts_per_branch = 50;
  cfg.account_executors = 2;
  cfg.other_executors = 1;

  // Lifetime 1: load, register DORA wiring (persisted through the
  // catalog), run transactions, die without warning.
  {
    Database db(opts);
    tpcb::TpcbWorkload workload(&db, cfg);
    ASSERT_TRUE(workload.Load().ok());
    dora::DoraEngine engine(&db);
    workload.SetupDora(&engine);
    engine.Start();
    Rng rng(3);
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(workload.RunDora(&engine, 0, rng).ok());
    }
    engine.Stop();
    ASSERT_TRUE(workload.CheckConsistency().ok());
    db.SimulateKill();
  }

  // Lifetime 2: nothing re-declared. The catalog restores schema + key
  // specs + routing config; Recover() rebuilds the indexes generically;
  // RegisterFromCatalog rebuilds the executor groups.
  Database db(opts);
  ASSERT_TRUE(db.catalog_load_status().ok())
      << db.catalog_load_status().ToString();
  ASSERT_EQ(db.catalog()->num_tables(), 4u);
  ASSERT_EQ(db.catalog()->num_indexes(), 3u);
  ASSERT_TRUE(db.Recover().ok());

  tpcb::TpcbWorkload workload(&db, cfg);
  ASSERT_TRUE(workload.Attach().ok());  // binds ids by name, no DDL
  ASSERT_TRUE(workload.CheckConsistency().ok())
      << "TPC-B balance invariant must hold after the cold restart";

  dora::DoraEngine engine(&db);
  EXPECT_EQ(engine.RegisterFromCatalog(), 4u)
      << "all four tables carried persisted routing config";
  EXPECT_EQ(engine.executors_of(workload.schema().account), 2u);
  EXPECT_EQ(engine.key_space_of(workload.schema().account),
            cfg.branches * cfg.accounts_per_branch + 1);
  engine.Start();
  Rng rng(4);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(workload.RunDora(&engine, 0, rng).ok());
  }
  engine.Stop();
  EXPECT_TRUE(workload.CheckConsistency().ok());
}

// A durable database that never issues DDL still reopens: the constructor
// writes an (empty) catalog.db at first open, so a WAL holding only
// checkpoint records does not trip the missing-catalog guard.
TEST(CatalogTest, SchemaLessDatabaseWithCheckpointOnlyWalReopens) {
  const std::string dir = TempDataDir("schemaless");
  Database::Options opts = DurableOpts(dir, LogBackendKind::kPartitioned);
  {
    Database db(opts);
    ASSERT_TRUE(db.Checkpoint().ok());  // stable log now non-empty
    db.SimulateKill();
  }
  Database db(opts);
  ASSERT_TRUE(db.catalog_load_status().ok());
  EXPECT_EQ(db.catalog()->num_tables(), 0u);
  EXPECT_TRUE(db.Recover().ok())
      << "checkpoint-only WAL with a (self-described) empty schema must "
         "recover";
}

// Reopening a pre-catalog data directory (no catalog.db) still works: the
// catalog starts empty, the application declares its schema as before,
// and the first DDL writes catalog.db so the NEXT reopen is
// self-contained.
TEST(CatalogTest, LegacyDirectoryWithoutCatalogAdoptsWriteThrough) {
  const std::string dir = TempDataDir("legacy");
  Database::Options opts = DurableOpts(dir, LogBackendKind::kCentral);
  TableId table;
  {
    Database db(opts);
    ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
    std::filesystem::remove(dir + "/catalog.db");  // simulate pre-catalog
    auto txn = db.Begin();
    Rid rid;
    ASSERT_TRUE(db.Insert(txn.get(), table, "legacy-row", &rid,
                          AccessOptions::Baseline()).ok());
    ASSERT_TRUE(db.Commit(txn.get()).ok());
    db.SimulateKill();
  }
  // Recovering with NO schema over a non-empty WAL is refused by name: it
  // would "succeed" over an empty database and let the checkpoint daemon
  // truncate the orphaned log. The refusal must survive bare-retry
  // lifetimes — no bootstrap catalog may be written over a WAL-bearing
  // catalog-less directory, or the next open would look legitimately
  // schema-less and recover to empty.
  for (int attempt = 0; attempt < 2; ++attempt) {
    Database db(opts);
    ASSERT_TRUE(db.catalog_load_status().ok());
    EXPECT_EQ(db.catalog()->num_tables(), 0u);
    const Status bare = db.Recover();
    ASSERT_FALSE(bare.ok()) << "attempt " << attempt;
    EXPECT_NE(bare.ToString().find("catalog"), std::string::npos);
    db.SimulateKill();
  }
  {
    Database db(opts);
    ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());  // as before
    ASSERT_TRUE(db.Recover().ok());
    EXPECT_EQ(db.catalog()->Heap(table)->record_count(), 1u);
    db.SimulateKill();
  }
  // Third lifetime: the re-creation above wrote catalog.db, so from here
  // on the directory is self-describing.
  Database db(opts);
  ASSERT_NE(db.catalog()->GetTable("t"), nullptr);
  ASSERT_TRUE(db.Recover().ok());
  EXPECT_EQ(db.catalog()->Heap(db.catalog()->GetTable("t")->id)
                ->record_count(),
            1u);
}

}  // namespace
}  // namespace doradb
