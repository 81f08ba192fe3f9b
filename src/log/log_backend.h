// LogBackend: the engine's write-ahead log, plog::PartitionedLogManager.
// The centralized log of the paper's §5.4 is the same class with one
// partition that every thread appends through.
//
// An LSN is a GSN (global sequence number) drawn from one atomic clock
// shared by all partitions. Append returns the record's own GSN, and
// flushed_lsn() is the GSN below which *every* partition is stable. The
// rest of the engine relies on two properties:
//  1. GSNs are totally ordered and assigned in append order per
//     transaction and per page (page-LSN monotonicity for redo).
//  2. WaitFlushed(Append(rec)) returning implies rec — and everything
//     ordered before it — survives DiscardVolatileTail.

#ifndef DORADB_LOG_LOG_BACKEND_H_
#define DORADB_LOG_LOG_BACKEND_H_

#include "plog/partitioned_log_manager.h"

namespace doradb {

using LogBackend = plog::PartitionedLogManager;

}  // namespace doradb

#endif  // DORADB_LOG_LOG_BACKEND_H_
