// Page-based B+Tree index.
//
// Features required by the paper:
//  * leaf entries carry, besides the RID, an auxiliary 64-bit payload used
//    by DORA secondary indexes to store the routing fields (§4.2.2: "the
//    indexes whose accesses cannot be mapped to executors store the RID as
//    well as all the routing fields at each leaf entry");
//  * a 'deleted' flag per leaf entry — deleting transactions flag rather
//    than remove entries, so concurrent probes route through the owning
//    executor instead of observing an uncommitted delete (§4.2.2);
//  * leaf-split garbage collection: before splitting, a leaf first purges
//    flagged entries and may avoid the split entirely (§4.2.2).
//
// Concurrency: every operation holds the tree latch in shared mode; descent
// uses read-latch crabbing; leaf-local writes take the leaf latch exclusive.
// Structure modifications (splits, root growth) retry holding the tree latch
// exclusive, which excludes all other operations. Leaves are chained for
// range scans. No merge on underflow (standard engineering simplification;
// space is reclaimed by the split-time GC and slot reuse).
//
// Keys are order-preserving byte strings up to kMaxKeySize bytes; KeyBuilder
// encodes composite integer keys big-endian.

#ifndef DORADB_STORAGE_BTREE_H_
#define DORADB_STORAGE_BTREE_H_

#include <atomic>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page_header.h"
#include "storage/types.h"
#include "util/rwlatch.h"
#include "util/status.h"

namespace doradb {

namespace obs {
class Counter;
}  // namespace obs

constexpr size_t kMaxKeySize = 32;

// Order-preserving composite-key encoder (big-endian integer fields).
class KeyBuilder {
 public:
  KeyBuilder& Add64(uint64_t v) {
    for (int i = 7; i >= 0; --i) Push(static_cast<uint8_t>(v >> (i * 8)));
    return *this;
  }
  KeyBuilder& Add32(uint32_t v) {
    for (int i = 3; i >= 0; --i) Push(static_cast<uint8_t>(v >> (i * 8)));
    return *this;
  }
  KeyBuilder& Add16(uint16_t v) {
    Push(static_cast<uint8_t>(v >> 8));
    Push(static_cast<uint8_t>(v));
    return *this;
  }
  KeyBuilder& Add8(uint8_t v) {
    Push(v);
    return *this;
  }
  // Fixed-width string field: padded/truncated to `width` so that key
  // comparison stays field-aligned.
  KeyBuilder& AddString(std::string_view s, size_t width) {
    for (size_t i = 0; i < width; ++i) {
      Push(i < s.size() ? static_cast<uint8_t>(s[i]) : 0);
    }
    return *this;
  }

  std::string_view View() const {
    return std::string_view(reinterpret_cast<const char*>(buf_), len_);
  }
  std::string Str() const { return std::string(View()); }
  size_t size() const { return len_; }

 private:
  void Push(uint8_t b) {
    if (len_ < kMaxKeySize) buf_[len_++] = b;
  }
  uint8_t buf_[kMaxKeySize];
  size_t len_ = 0;
};

// Smallest key strictly greater than every key with the given prefix —
// used to turn a key prefix into a [lo, hi) scan range.
std::string PrefixUpperBound(std::string_view prefix);

struct IndexEntry {
  Rid rid;
  uint64_t aux = 0;      // DORA routing-field payload for secondary indexes
  bool deleted = false;  // §4.2.2 deleted flag
};

class BTree {
 public:
  BTree(BufferPool* pool, IndexId index_id, bool unique);

  IndexId index_id() const { return index_id_; }
  bool unique() const { return unique_; }

  // Insert an entry. For unique indexes, fails with kDuplicate if a live
  // (non-deleted) entry with the same key exists; a flagged entry with the
  // same key may be superseded ("may safely re-insert a new record with the
  // same primary key", §4.2.2) — the flagged entry is dropped.
  Status Insert(std::string_view key, const IndexEntry& entry);

  // First live entry with exactly this key.
  Status Probe(std::string_view key, IndexEntry* out) const;

  // All entries with exactly this key (live only unless include_deleted).
  Status ProbeAll(std::string_view key, std::vector<IndexEntry>* out,
                  bool include_deleted = false) const;

  // Physically remove the entry (key, rid).
  Status Remove(std::string_view key, const Rid& rid);

  // Set / clear the deleted flag in place (done by the committing deleter
  // outside any transaction, §4.2.2).
  Status SetDeleted(std::string_view key, const Rid& rid, bool deleted);

  // Range scan over [lo, hi); callback returns false to stop. Deleted
  // entries are skipped.
  Status Scan(std::string_view lo, std::string_view hi,
              const std::function<bool(std::string_view, const IndexEntry&)>&
                  cb) const;

  // Scan every entry with the given key prefix.
  Status ScanPrefix(std::string_view prefix,
                    const std::function<bool(std::string_view,
                                             const IndexEntry&)>& cb) const;

  uint64_t num_entries() const {
    return num_entries_.load(std::memory_order_relaxed);
  }
  uint64_t splits() const { return splits_.load(std::memory_order_relaxed); }
  uint64_t gc_purged() const {
    return gc_purged_.load(std::memory_order_relaxed);
  }
  int Height() const;

  // Validate tree invariants (ordering, separator consistency); test hook.
  Status CheckIntegrity() const;

 private:
  struct NodeHeader {
    PageHeaderBase base;
    uint16_t count;
    uint16_t level;     // 0 = leaf
    PageId next_leaf;   // leaves only
    PageId child0;      // internal only: leftmost child
  };

  struct LeafEntry {
    uint8_t key_len;
    uint8_t flags;  // bit 0: deleted
    uint8_t key[kMaxKeySize];
    SlotId slot;
    PageId page;
    uint64_t aux;

    static constexpr uint8_t kDeletedBit = 1;
    Rid rid() const { return Rid{page, slot}; }
    bool deleted() const { return (flags & kDeletedBit) != 0; }
    std::string_view KeyView() const {
      return std::string_view(reinterpret_cast<const char*>(key), key_len);
    }
  };

  struct InternalEntry {
    uint8_t key_len;
    uint8_t key[kMaxKeySize];
    PageId child;

    std::string_view KeyView() const {
      return std::string_view(reinterpret_cast<const char*>(key), key_len);
    }
  };

  static constexpr size_t kLeafCapacity =
      (kPageSize - sizeof(NodeHeader)) / sizeof(LeafEntry);
  static constexpr size_t kInternalCapacity =
      (kPageSize - sizeof(NodeHeader)) / sizeof(InternalEntry);

  static NodeHeader* Node(uint8_t* p) {
    return reinterpret_cast<NodeHeader*>(p);
  }
  static const NodeHeader* Node(const uint8_t* p) {
    return reinterpret_cast<const NodeHeader*>(p);
  }
  static LeafEntry* Leaves(uint8_t* p) {
    return reinterpret_cast<LeafEntry*>(p + sizeof(NodeHeader));
  }
  static const LeafEntry* Leaves(const uint8_t* p) {
    return reinterpret_cast<const LeafEntry*>(p + sizeof(NodeHeader));
  }
  static InternalEntry* Internals(uint8_t* p) {
    return reinterpret_cast<InternalEntry*>(p + sizeof(NodeHeader));
  }
  static const InternalEntry* Internals(const uint8_t* p) {
    return reinterpret_cast<const InternalEntry*>(p + sizeof(NodeHeader));
  }

  static int Compare(std::string_view a, std::string_view b);
  static void SetLeafKey(LeafEntry* e, std::string_view key);
  static void SetInternalKey(InternalEntry* e, std::string_view key);

  // Child to descend into for `key`.
  static PageId ChildFor(const uint8_t* node, std::string_view key);
  // Index of the first leaf entry >= key.
  static uint16_t LowerBound(const uint8_t* leaf, std::string_view key);

  void InitLeaf(uint8_t* p, PageId pid);
  void InitInternal(uint8_t* p, PageId pid, uint16_t level);

  // Shared-latch descent to the leaf that may contain `key`. On return the
  // leaf guard is latched as requested; the tree shared latch must be held
  // by the caller for the whole operation.
  Status DescendToLeaf(std::string_view key, bool exclusive_leaf,
                       PageGuard* leaf) const;

  // Leaf-local insert attempt under the shared tree latch. Returns kFull if
  // a split is required.
  Status TryLeafInsert(std::string_view key, const IndexEntry& entry);

  // Insert with splits, caller holds the tree latch exclusive.
  Status ExclusiveInsert(std::string_view key, const IndexEntry& entry);
  // Recursive helper: returns (in *split_key, *split_page) the new right
  // sibling to link into the parent, if a split happened.
  Status InsertRecursive(PageId node_pid, std::string_view key,
                         const IndexEntry& entry, std::string* split_key,
                         PageId* split_page, bool* split);

  // Purge deleted entries from a full leaf (split-time GC). Returns the
  // number purged.
  uint16_t PurgeDeleted(uint8_t* leaf);

  // Check for a live duplicate in this leaf and, when superseding a flagged
  // entry is possible, drop it. Returns kDuplicate on a live conflict.
  Status UniqueCheck(uint8_t* leaf, std::string_view key);

  BufferPool* const pool_;
  const IndexId index_id_;
  const bool unique_;

  mutable RwLatch tree_latch_;
  PageId root_ = kInvalidPageId;
  PageId first_leaf_ = kInvalidPageId;

  std::atomic<uint64_t> num_entries_{0};
  std::atomic<uint64_t> splits_{0};
  std::atomic<uint64_t> gc_purged_{0};
};

}  // namespace doradb

#endif  // DORADB_STORAGE_BTREE_H_
