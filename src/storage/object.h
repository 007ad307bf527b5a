#ifndef ESR_STORAGE_OBJECT_H_
#define ESR_STORAGE_OBJECT_H_

#include <optional>
#include <vector>

#include "common/timestamp.h"
#include "common/types.h"
#include "storage/write_history.h"

namespace esr {

/// One data item of the in-memory database: id, current value, its OIL/OEL
/// (object import/export limits, set at the server side per Sec. 3.2.2),
/// plus the concurrency-control and divergence-control bookkeeping the
/// paper's data manager maintains per object.
class ObjectRecord {
 public:
  /// An uncommitted query ET that has read this object, remembered with
  /// the proper value it observed; needed to compute the inconsistency a
  /// later write would export (paper Sec. 5.2).
  struct QueryReader {
    TxnId txn = kInvalidTxnId;
    Timestamp ts;
    Value proper_value = 0;
  };

  ObjectRecord() : ObjectRecord(kInvalidObjectId, 0, WriteHistory::kDefaultDepth) {}
  /// Standalone record owning its history ring (tests, ad-hoc use).
  ObjectRecord(ObjectId id, Value initial_value, size_t history_depth);
  /// Record whose history ring views `history_slots[0, history_depth)` in
  /// the store's HistoryArena (must outlive the record).
  ObjectRecord(ObjectId id, Value initial_value,
               WriteHistory::Entry* history_slots, size_t history_depth);

  ObjectId id() const { return id_; }

  /// The *present* value: the current in-memory value, including an
  /// in-place uncommitted write (shadow paging keeps the pre-image).
  Value value() const { return value_; }

  // -- Object-level inconsistency limits ----------------------------------
  Inconsistency oil() const { return oil_; }
  Inconsistency oel() const { return oel_; }
  void set_oil(Inconsistency oil) { oil_ = oil; }
  void set_oel(Inconsistency oel) { oel_ = oel; }

  // -- Timestamp bookkeeping ----------------------------------------------
  /// Timestamp of the last write applied (committed or not).
  Timestamp write_ts() const { return write_ts_; }
  /// Largest timestamp of any read issued by a query ET.
  Timestamp query_read_ts() const { return query_read_ts_; }
  /// Largest timestamp of any read issued by an update ET.
  Timestamp update_read_ts() const { return update_read_ts_; }
  /// Largest read timestamp overall.
  Timestamp max_read_ts() const {
    return query_read_ts_ > update_read_ts_ ? query_read_ts_
                                            : update_read_ts_;
  }

  void NoteQueryRead(Timestamp ts);
  void NoteUpdateRead(Timestamp ts);

  // -- Uncommitted writer (strict ordering admits at most one) ------------
  bool has_uncommitted_write() const { return writer_ != kInvalidTxnId; }
  TxnId uncommitted_writer() const { return writer_; }
  /// The pre-image the uncommitted write replaced (meaningful only while
  /// has_uncommitted_write()).
  Value shadow_value() const { return shadow_value_; }

  /// Applies a write in place and records the pre-image (shadow value).
  /// `txn` must either be the current uncommitted writer (blind overwrite
  /// by the same transaction) or there must be no uncommitted writer.
  void ApplyWrite(TxnId txn, Timestamp ts, Value new_value);

  /// Commits the pending write of `txn`: discards the shadow and enters
  /// the write into the history used for proper-value lookups.
  void CommitWrite(TxnId txn);

  /// Aborts the pending write of `txn`: restores the shadow value and the
  /// previous write timestamp (paper Sec. 6: shadow technique, no redo log).
  void AbortWrite(TxnId txn);

  // -- Query reader registration (export control, Sec. 5.2) ---------------
  /// Returns whether `txn` was newly registered (false on a repeat read:
  /// one registration per object per txn, Sec. 3.2.1) — callers use it to
  /// skip their own dedup of the per-transaction registered-read list.
  bool RegisterQueryReader(TxnId txn, Timestamp ts, Value proper_value);
  void UnregisterQueryReader(TxnId txn);
  const std::vector<QueryReader>& query_readers() const {
    return query_readers_;
  }

  // -- Proper value lookup (import control, Sec. 5.1) ---------------------
  /// Proper value for a query with timestamp `query_ts`: last committed
  /// write older than the query, from the bounded history. nullopt if the
  /// history no longer reaches back that far.
  std::optional<Value> ProperValueFor(Timestamp query_ts) const;

  const WriteHistory& history() const { return history_; }

 private:
  ObjectId id_;
  Value value_;
  Inconsistency oil_ = kUnbounded;
  Inconsistency oel_ = kUnbounded;

  Timestamp write_ts_ = Timestamp::Min();
  Timestamp query_read_ts_ = Timestamp::Min();
  Timestamp update_read_ts_ = Timestamp::Min();

  // Shadow state for the single in-flight writer.
  TxnId writer_ = kInvalidTxnId;
  Value shadow_value_ = 0;
  Timestamp shadow_write_ts_ = Timestamp::Min();
  Timestamp pending_write_ts_ = Timestamp::Min();

  std::vector<QueryReader> query_readers_;
  WriteHistory history_;
};

}  // namespace esr

#endif  // ESR_STORAGE_OBJECT_H_
