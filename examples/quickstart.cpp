// Quickstart: create a database, define a table + index, run the same
// transactions through both execution engines — conventional (thread-to-
// transaction) and DORA (thread-to-data) — then demonstrate the durable
// path: kill the database and reopen its data directory in a "second
// lifetime" that never re-declares the schema.
//
//   $ ./build/quickstart
//
// The self-describing catalog (<data_dir>/catalog.db) carries table and
// index names, ids, key schemas, and DORA routing config, so reopening is
// just Database(Options{data_dir}) + Recover().

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "dora/dora_engine.h"
#include "engine/database.h"

using namespace doradb;

int main() {
  // A scratch data directory: non-empty Options::data_dir selects durable
  // mode (segment-file WAL + pages.db + catalog.db).
  const std::string data_dir =
      std::filesystem::temp_directory_path() / "doradb_quickstart";
  std::filesystem::remove_all(data_dir);
  Database::Options options;
  options.data_dir = data_dir;

  // ------------------------------------------------- lifetime 1: create
  {
    // 1. A Database bundles the storage substrate: buffer pool, catalog,
    //    centralized lock manager, ARIES write-ahead log, transactions.
    Database db(options);

    // 2. Declare the schema ONCE. The IndexKeySpec tells the engine how
    //    index keys derive from record bytes (here: a little-endian u64 at
    //    offset 0, also used as the DORA aux payload), which lets a later
    //    lifetime rebuild the index without this code. Every DDL is
    //    written through to catalog.db before it returns.
    TableId accounts;
    IndexId accounts_pk;
    Status ddl = db.catalog()->CreateTable("accounts", &accounts);
    if (ddl.ok()) {
      ddl = db.catalog()->CreateIndex(accounts, "accounts_pk",
                                      /*unique=*/true, /*secondary=*/false,
                                      IndexKeySpec::U64At(0, 0), &accounts_pk);
    }
    if (!ddl.ok()) {  // durable DDL can fail (unwritable data_dir, ...)
      std::printf("schema creation failed: %s\n", ddl.ToString().c_str());
      return 1;
    }

    // 3. Conventional execution: the client thread runs the whole
    //    transaction, locking through the centralized lock manager.
    //    Records here are "<8-byte LE id><balance text>".
    auto txn = db.Begin();
    for (uint64_t id = 1; id <= 10; ++id) {
      std::string record(8, '\0');
      std::memcpy(record.data(), &id, 8);
      record += "balance=" + std::to_string(100 * id);
      Rid rid;
      Status s = db.Insert(txn.get(), accounts, record, &rid,
                           AccessOptions::Baseline());
      if (!s.ok()) {
        std::printf("insert failed: %s\n", s.ToString().c_str());
        db.Abort(txn.get());
        return 1;
      }
      KeyBuilder key;
      key.Add64(id);
      db.IndexInsert(txn.get(), accounts_pk, key.View(),
                     IndexEntry{rid, id, false});
    }
    db.Commit(txn.get());
    std::printf("[lifetime 1] inserted 10 accounts, committed\n");

    // 4. DORA execution: register the table with a routing rule (2
    //    executors over the id space) — recorded in the catalog — then
    //    express the transaction as a flow graph of actions; each action
    //    runs on the executor owning its data, guarded by thread-local
    //    locks instead of the lock manager.
    dora::DoraEngine engine(&db);
    engine.RegisterTable(accounts, /*key_space=*/11, /*executors=*/2);
    engine.Start();

    auto dtxn = engine.BeginTxn();
    dtxn->AddPhase().AddAction(
        accounts, /*routing_value=*/3, dora::LocalMode::kX,
        [&](dora::ActionEnv& env) -> Status {
          KeyBuilder key;
          key.Add64(3);
          IndexEntry e;
          DORADB_RETURN_NOT_OK(
              env.db->catalog()->Index(accounts_pk)->Probe(key.View(), &e));
          std::string record(8, '\0');
          const uint64_t id = 3;
          std::memcpy(record.data(), &id, 8);
          record += "balance=999";
          // Executor-serialized: no centralized locks needed.
          return env.db->Update(env.txn, accounts, e.rid, record,
                                AccessOptions::NoCc());
        });
    const Status s = engine.Run(dtxn);
    std::printf("[lifetime 1] dora flow graph finished: %s (committed=%lu)\n",
                s.ToString().c_str(),
                static_cast<unsigned long>(engine.txns_committed()));
    engine.Stop();
    if (!s.ok()) return 1;

    // 5. Die without warning: buffers gone, segment files left exactly as
    //    a killed process leaves them.
    db.SimulateKill();
  }

  // ---------------------------------------------- lifetime 2: reopen
  // A fresh process over the same directory. NO CreateTable, NO
  // CreateIndex, no workload callback: the catalog replays from
  // catalog.db, Recover() replays the WAL and rebuilds the index from its
  // persisted key spec, and RegisterFromCatalog rewires DORA.
  {
    Database db(options);
    if (!db.catalog_load_status().ok()) {
      std::printf("catalog load failed: %s\n",
                  db.catalog_load_status().ToString().c_str());
      return 1;
    }
    Status s = db.Recover();
    if (!s.ok()) {
      std::printf("recovery failed: %s\n", s.ToString().c_str());
      return 1;
    }

    TableInfo* accounts = db.catalog()->GetTable("accounts");
    IndexInfo* pk = db.catalog()->GetIndex("accounts_pk");
    if (accounts == nullptr || pk == nullptr) {
      std::printf("recovered catalog is missing the schema\n");
      return 1;
    }
    std::printf("[lifetime 2] recovered %zu table(s), %zu index(es), "
                "%llu account rows\n",
                db.catalog()->num_tables(), db.catalog()->num_indexes(),
                static_cast<unsigned long long>(
                    accounts->heap->record_count()));

    KeyBuilder key;
    key.Add64(3);
    IndexEntry e;
    s = pk->tree->Probe(key.View(), &e);
    if (!s.ok()) {
      std::printf("probe failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::string record;
    s = db.catalog()->Heap(accounts->id)->Get(e.rid, &record);
    if (!s.ok()) {
      std::printf("heap read failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("[lifetime 2] account 3 after restart: %s\n",
                record.substr(8).c_str());  // skip the 8-byte id prefix

    dora::DoraEngine engine(&db);
    const uint32_t rewired = engine.RegisterFromCatalog();
    std::printf("[lifetime 2] dora rewired from catalog: %u table(s), "
                "%u executor(s) on accounts\n",
                rewired, engine.executors_of(accounts->id));
    engine.Start();
    engine.Stop();

    const bool ok = record.substr(8) == "balance=999";
    std::printf("done. committed=1 self_contained_reopen=%s\n",
                ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
  }
}
