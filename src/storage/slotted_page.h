// Slotted heap page: variable-length records behind a slot directory.
//
// Layout (kPageSize bytes):
//   [PageHeader][record data grows ->        <- slot directory grows]
//
// Slots are stable: a record keeps its SlotId for life, so RIDs remain valid
// across updates. Deleting frees a slot for reuse; DORA's insert/delete RID
// locks (paper §4.2.1) exist precisely because a freed slot may be reused by
// a concurrent insert before the deleter commits.

#ifndef DORADB_STORAGE_SLOTTED_PAGE_H_
#define DORADB_STORAGE_SLOTTED_PAGE_H_

#include <cstdint>
#include <cstring>
#include <string_view>

#include "storage/page_header.h"
#include "storage/types.h"
#include "util/status.h"

namespace doradb {

// A view over a kPageSize buffer; does not own memory.
class SlottedPage {
 public:
  struct Header {
    PageHeaderBase base;
    uint16_t slot_count;       // size of the slot directory
    uint16_t free_space_off;   // start of unallocated region
    uint16_t record_count;     // live records
    PageId next_page;          // heap-file chain
  };

  explicit SlottedPage(void* buf) : buf_(static_cast<uint8_t*>(buf)) {}

  // Format an empty page.
  void Init(PageId page_id, TableId table_id);

  PageId page_id() const { return header()->base.page_id; }
  TableId table_id() const { return header()->base.owner_id; }
  Lsn page_lsn() const { return header()->base.page_lsn; }
  void set_page_lsn(Lsn lsn) { header()->base.page_lsn = lsn; }
  PageId next_page() const { return header()->next_page; }
  uint16_t slot_count() const { return header()->slot_count; }
  uint16_t record_count() const { return header()->record_count; }

  // Bytes available for a new record (including a possibly-new slot entry).
  size_t FreeSpace() const;

  // Append a record; reuses a free slot if any. kFull if it does not fit.
  Status Insert(std::string_view data, SlotId* slot);

  // Insert into a specific slot (rollback of delete / recovery redo).
  // Fails with kBusy if the slot is already occupied — this is exactly the
  // physical conflict of paper §4.2.1.
  Status InsertAt(SlotId slot, std::string_view data);

  // Remove the record, freeing its slot.
  Status Delete(SlotId slot);

  // Replace record contents (any size that fits; compacts if needed).
  Status Update(SlotId slot, std::string_view data);

  // Read access; the view is valid until the next mutation of this page.
  Status Get(SlotId slot, std::string_view* data) const;

  bool SlotOccupied(SlotId slot) const;

  // Reclaim holes left by deletes/updates.
  void Compact();

  static size_t MaxRecordSize() {
    return kPageSize - sizeof(Header) - sizeof(Slot);
  }

 private:
  struct Slot {
    uint16_t offset;  // 0 = free slot
    uint16_t length;
  };

  Header* header() { return reinterpret_cast<Header*>(buf_); }
  const Header* header() const { return reinterpret_cast<const Header*>(buf_); }

  Slot* slot_array() {
    return reinterpret_cast<Slot*>(buf_ + kPageSize) - 1;  // grows downward
  }
  const Slot* slot_array() const {
    return reinterpret_cast<const Slot*>(buf_ + kPageSize) - 1;
  }
  // Slot i lives at slot_array()[-i].
  Slot& slot(SlotId i) { return slot_array()[-static_cast<int>(i)]; }
  const Slot& slot(SlotId i) const {
    return slot_array()[-static_cast<int>(i)];
  }

  size_t ContiguousFree() const;

  uint8_t* buf_;
};

}  // namespace doradb

#endif  // DORADB_STORAGE_SLOTTED_PAGE_H_
