#include "log/recovery.h"

#include <algorithm>

#include "engine/database.h"

namespace doradb {

Status Database::Recover(
    const std::function<Status(Database*)>& rebuild_indexes) {
  // A durable database whose catalog.db failed to load has no trustworthy
  // schema: running ARIES over it would misattribute every record. Surface
  // the named load error instead.
  if (!catalog_status_.ok()) return catalog_status_;
  // A non-empty stable log whose directory carried NO catalog.db and for
  // which no schema was declared is the missing-catalog shape (the file
  // deleted or never copied alongside the WAL): recovery would silently
  // skip every record as unknown-table, report success over an empty
  // database, and the restarted checkpoint daemon would then truncate
  // the orphaned log — permanent loss of acked commits. Refuse with a
  // named error. Directories this engine opened always have a catalog.db
  // (an empty one is written at first open), and a pre-catalog directory
  // is still adoptable: declare the schema (as those lifetimes always
  // had to) before calling Recover and this guard passes.
  if (!options_.data_dir.empty() && !catalog_file_found_ &&
      catalog_->num_tables() == 0 && log_->stable_size() > 0) {
    return Status::Corruption(
        "catalog: data directory holds WAL content but no schema — "
        "catalog.db is missing and none was declared; refusing to recover "
        "over an undescribed log");
  }
  RecoveryDriver driver(this);
  const Status s = driver.Run(rebuild_indexes);
  // The restarted system resumes checkpointing where the crashed one died.
  if (s.ok() && options_.checkpoint.enabled) ckpt_->Start();
  return s;
}

Status RecoveryDriver::Run(
    const std::function<Status(Database*)>& rebuild_indexes) {
  DORADB_RETURN_NOT_OK(Analysis());
  // Cold-start id resume: no future transaction may be issued an id that
  // still has records in the recovered log — an uncommitted reuse would
  // inherit the old id's surviving kCommit and replay as a winner. (Page
  // ids got the equivalent treatment in the Database constructor, before
  // schema setup could allocate.)
  TxnId max_txn = kInvalidTxnId;
  for (const auto& [txn, lsn] : last_lsn_) max_txn = std::max(max_txn, txn);
  if (max_txn != kInvalidTxnId) {
    db_->txn_manager()->AdvanceTxnIdPast(max_txn);
  }
  DORADB_RETURN_NOT_OK(RebuildHeapDirectory());
  DORADB_RETURN_NOT_OK(Redo());
  DORADB_RETURN_NOT_OK(UndoLosers());
  DORADB_RETURN_NOT_OK(RebuildSpecIndexes());
  if (rebuild_indexes) DORADB_RETURN_NOT_OK(rebuild_indexes(db_));
  // Every index must have been repopulated by now — by its key spec or by
  // the callback. An opaque-key index still empty over a non-empty heap
  // means the caller relied on Recover()'s no-callback default for a
  // schema that cannot self-rebuild: succeeding would leave every probe
  // returning NotFound over live rows (silent read-level data loss), so
  // refuse by name instead. (An in-process restart's surviving tree has
  // entries and passes; a legitimately fresh index has an empty heap.)
  for (const auto& idx : db_->catalog()->indexes()) {
    if (idx->key_spec.CanRebuild() || idx->tree->num_entries() != 0) {
      continue;
    }
    if (db_->catalog()->Heap(idx->table_id)->record_count() == 0) continue;
    return Status::Corruption(
        "index '" + idx->name +
        "' has opaque keys (no IndexKeySpec), a non-empty heap, and no "
        "rebuild callback repopulated it — rows would be unreachable; pass "
        "a rebuild_indexes callback or declare a key spec");
  }
  return db_->buffer_pool()->FlushAll();
}

Status RecoveryDriver::RebuildSpecIndexes() {
  // After redo + undo the heaps hold exactly the committed rows, so an
  // index is a pure function of its heap and its key spec. Only EMPTY
  // trees are rebuilt: a cold-started lifetime creates every tree empty
  // (B+Trees are unlogged derived state), while an in-process restart may
  // still hold a live tree the workload manages through its own callback.
  Catalog* catalog = db_->catalog();
  for (const auto& idx : catalog->indexes()) {
    if (!idx->key_spec.CanRebuild()) continue;
    BTree* tree = idx->tree.get();
    if (tree->num_entries() != 0) continue;
    HeapFile* heap = catalog->Heap(idx->table_id);
    Status row_status;
    DORADB_RETURN_NOT_OK(
        heap->Scan([&](const Rid& rid, std::string_view rec) {
          std::string key;
          uint64_t aux;
          row_status = idx->key_spec.Extract(rec, &key, &aux);
          if (!row_status.ok()) return false;
          row_status = tree->Insert(key, IndexEntry{rid, aux, false});
          if (!row_status.ok()) return false;
          ++stats_.index_entries_rebuilt;
          return true;
        }));
    if (!row_status.ok()) {
      return Status::Corruption("index rebuild failed for '" + idx->name +
                                "': " + row_status.ToString());
    }
    ++stats_.indexes_rebuilt;
  }
  return Status::OK();
}

Status RecoveryDriver::Analysis() {
  records_ = db_->log_manager()->ReadStable();
  stats_.records_scanned = records_.size();
  for (const LogRecord& rec : records_) {
    by_lsn_[rec.lsn] = &rec;
    if (rec.txn != kInvalidTxnId) last_lsn_[rec.txn] = rec.lsn;
    switch (rec.type) {
      case LogType::kCommit:
        committed_.insert(rec.txn);
        break;
      case LogType::kEnd:
        ended_.insert(rec.txn);
        break;
      case LogType::kCheckpointPart:
        // Each durable checkpoint record's horizon is an independently
        // valid global claim (everything below it was on disk when it was
        // taken); the strongest one bounds redo. Records below it may
        // already be truncated away — the claim holds regardless.
        if (rec.redo_horizon != kInvalidLsn &&
            (stats_.redo_start == kInvalidLsn ||
             rec.redo_horizon > stats_.redo_start)) {
          stats_.redo_start = rec.redo_horizon;
        }
        break;
      default:
        break;
    }
  }
  for (const auto& [txn, lsn] : last_lsn_) {
    if (committed_.count(txn) != 0) {
      ++stats_.winners;
    } else if (ended_.count(txn) == 0) {
      // A transaction still undecided at the crash has every undoable
      // record at or above the strongest surviving redo horizon: either
      // it had logged heap work when that checkpoint ran (its undo-low
      // pin held the horizon at or below its first such record) or its
      // work postdates the horizon's clock snapshot. So a commit-less
      // transaction whose LAST surviving record sits below the horizon
      // was decided before that checkpoint — its commit/end record was
      // legitimately truncated along with its reflected-on-disk history —
      // and undoing it would roll back a committed transaction. (A
      // work-less transaction cleared here has nothing to undo anyway.)
      if (stats_.redo_start != kInvalidLsn && lsn < stats_.redo_start) {
        ++stats_.cleared_by_horizon;
        ended_.insert(txn);  // decided pre-checkpoint: nothing to undo
      } else {
        ++stats_.losers;
      }
    }
    // Aborted-and-ended transactions were fully compensated before the
    // crash; replaying their ops + CLRs nets out (repeating history).
  }
  return Status::OK();
}

Status RecoveryDriver::RebuildHeapDirectory() {
  // Scan the disk image for heap pages and hand each table its pages.
  DiskManager* disk = db_->disk();
  Catalog* catalog = db_->catalog();
  const PageId end = disk->end_page_id();
  std::unordered_map<TableId, std::vector<PageId>> pages;
  std::unordered_map<TableId, uint64_t> counts;
  std::vector<uint8_t> buf(kPageSize);
  for (PageId pid = 0; pid < end; ++pid) {
    if (!disk->ReadPage(pid, buf.data()).ok()) continue;
    const auto* hdr = reinterpret_cast<const PageHeaderBase*>(buf.data());
    if (hdr->page_type != PageType::kHeap) continue;
    if (catalog->GetTable(hdr->owner_id) == nullptr) continue;
    pages[hdr->owner_id].push_back(pid);
    counts[hdr->owner_id] += SlottedPage(buf.data()).record_count();
  }
  for (auto& [table, pids] : pages) {
    std::sort(pids.begin(), pids.end());
    stats_.heap_pages_adopted += pids.size();
    catalog->Heap(table)->AdoptPages(std::move(pids), counts[table]);
  }
  return Status::OK();
}

Status RecoveryDriver::PageLsnOf(TableId table, PageId pid, Lsn* lsn) {
  BufferPool* pool = db_->buffer_pool();
  HeapFile* heap = db_->catalog()->Heap(table);
  heap->EnsureRegistered(pid);
  PageGuard guard;
  DORADB_RETURN_NOT_OK(pool->FetchPage(pid, &guard));
  guard.LatchExclusive();
  SlottedPage page = guard.AsSlotted();
  const auto* hdr = reinterpret_cast<const PageHeaderBase*>(guard.data());
  if (hdr->page_type != PageType::kHeap) {
    // The page never reached the disk before the crash; materialize it.
    page.Init(pid, table);
    guard.MarkDirty();
  }
  *lsn = page.page_lsn();
  return Status::OK();
}

Status RecoveryDriver::Redo() {
  Catalog* catalog = db_->catalog();
  for (const LogRecord& rec : records_) {
    const bool is_heap_op =
        rec.type == LogType::kInsert || rec.type == LogType::kUpdate ||
        rec.type == LogType::kDelete || rec.type == LogType::kClr;
    if (!is_heap_op) continue;
    // Ghost-until-commit: a kDelete's physical effect happened only if the
    // transaction committed.
    if (rec.type == LogType::kDelete && committed_.count(rec.txn) == 0) {
      continue;
    }
    if (catalog->GetTable(rec.table) == nullptr) continue;
    // Below the checkpoint redo horizon: the effect was already in the
    // disk image before the crash — skip without even fetching the page.
    if (stats_.redo_start != kInvalidLsn && rec.lsn < stats_.redo_start) {
      ++stats_.redo_skipped_horizon;
      continue;
    }
    Lsn page_lsn;
    DORADB_RETURN_NOT_OK(PageLsnOf(rec.table, rec.rid.page_id, &page_lsn));
    if (page_lsn >= rec.lsn) {
      ++stats_.redo_skipped_lsn;  // already on the page before the crash
      continue;
    }
    HeapFile* heap = catalog->Heap(rec.table);
    Status s;
    const LogType action = rec.type == LogType::kClr ? rec.clr_action
                                                     : rec.type;
    switch (action) {
      case LogType::kInsert:
        s = heap->InsertAt(rec.rid, rec.after, rec.lsn);
        if (s.IsBusy()) {
          // Idempotent redo: a checkpoint or eviction may have flushed the
          // page in the window between the physical insert and its
          // page-LSN stamp, so the tuple is already on disk under a stale
          // LSN. Accept an identical occupant and just advance the stamp;
          // a different occupant is genuine corruption.
          std::string existing;
          if (heap->Get(rec.rid, &existing).ok() && existing == rec.after) {
            s = heap->StampPageLsn(rec.rid.page_id, rec.lsn);
          }
        }
        break;
      case LogType::kUpdate:
        s = heap->Update(rec.rid, rec.after, nullptr, rec.lsn);
        break;
      case LogType::kDelete:
        s = heap->Delete(rec.rid, nullptr, rec.lsn);
        break;
      default:
        continue;
    }
    if (!s.ok()) {
      return Status::Corruption("redo failed: " + rec.ToString() + " -> " +
                                s.ToString());
    }
    ++stats_.redo_applied;
  }
  return Status::OK();
}

Status RecoveryDriver::UndoLosers() {
  Catalog* catalog = db_->catalog();
  LogBackend* log = db_->log_manager();
  for (const auto& [txn, last] : last_lsn_) {
    if (committed_.count(txn) != 0 || ended_.count(txn) != 0) continue;
    Lsn cur = last;
    while (cur != kInvalidLsn) {
      auto it = by_lsn_.find(cur);
      if (it == by_lsn_.end()) break;
      const LogRecord& rec = *it->second;
      if (rec.type == LogType::kClr) {
        cur = rec.undo_next;  // skip everything this CLR already covered
        continue;
      }
      if (rec.type == LogType::kBegin) break;  // older logs' chain start
      if (rec.type == LogType::kInsert || rec.type == LogType::kUpdate) {
        HeapFile* heap = catalog->Heap(rec.table);
        LogRecord clr;
        clr.type = LogType::kClr;
        clr.txn = txn;
        clr.prev_lsn = last;
        clr.table = rec.table;
        clr.rid = rec.rid;
        clr.undo_next = rec.prev_lsn;
        Status s;
        if (rec.type == LogType::kInsert) {
          clr.clr_action = LogType::kDelete;
          log->Append(&clr);
          s = heap->Delete(rec.rid, nullptr, clr.lsn);
        } else {
          clr.clr_action = LogType::kUpdate;
          clr.after = rec.before;
          log->Append(&clr);
          s = heap->Update(rec.rid, rec.before, nullptr, clr.lsn);
        }
        if (!s.ok()) {
          return Status::Corruption("restart undo failed: " + rec.ToString());
        }
        ++stats_.undo_applied;
      }
      // kDelete: no physical change happened pre-commit; nothing to undo.
      cur = rec.prev_lsn;
    }
    LogRecord end_rec;
    end_rec.type = LogType::kEnd;
    end_rec.txn = txn;
    log->Append(&end_rec);
  }
  // Persist the undo's CLRs and end records. On a poisoned medium the
  // flush cannot complete — recovery's in-memory result is still correct
  // (the heaps are consistent), so surface the typed error rather than
  // pretend the recovered state is durable.
  return log->WaitFlushed(log->current_lsn());
}

}  // namespace doradb
