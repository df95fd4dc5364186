// Crash recovery for a replica: snapshot + op-log replay.
//
// A node's durable state is an OpLog of the writes it acknowledged and
// a Snapshot of its store's full contents at a log sequence number.
// Recovery replays snapshot-then-tail onto a wiped kvstore::Store and
// lands byte-identical to the store the log was written against:
//
//   recover = restore(snapshot) ; replay(log entries with seq > snapshot.seq)
//
// The chaos `recovery` victim drives this directly and checks the
// rebuilt keyspace against the original. Everything here is
// deterministic: the log is an ordered sequence and replay applies it
// in order through the same kvstore::apply_command path the live write
// took.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "kvstore/client.h"
#include "kvstore/store.h"

namespace hetsim::ha {

struct LogEntry {
  std::uint64_t seq = 0;  // 1-based, dense
  kvstore::Command cmd;
};

/// Append-only durable command log for one node. Not thread-safe by
/// design: appends happen on the owning node's write path, which is
/// already serialized per node.
class OpLog {
 public:
  /// Appends and returns the entry's sequence number.
  std::uint64_t append(kvstore::Command cmd);

  /// Entries with seq > from_seq, in order.
  [[nodiscard]] std::vector<LogEntry> tail(std::uint64_t from_seq) const;

  [[nodiscard]] std::uint64_t last_seq() const noexcept { return next_ - 1; }

 private:
  std::vector<LogEntry> entries_;
  std::uint64_t next_ = 1;
};

/// Point-in-time copy of a store's contents, tagged with the op-log
/// position it covers. Values use Store::encode_value's tagged wire
/// form, so lists and counters round-trip exactly.
struct Snapshot {
  std::uint64_t seq = 0;
  std::vector<std::pair<std::string, std::string>> entries;  // key, encoded
};

/// Capture the store at log position `seq` (keys in deterministic map
/// order).
[[nodiscard]] Snapshot take_snapshot(const kvstore::Store& store,
                                     std::uint64_t seq);

/// Replace the store's contents with the snapshot's.
void restore_snapshot(kvstore::Store& store, const Snapshot& snapshot);

struct RecoveryReport {
  std::uint64_t snapshot_seq = 0;
  std::size_t snapshot_keys = 0;
  /// Log entries that re-applied cleanly (Reply::status == kOk).
  std::size_t replayed_ops = 0;
  /// Log entries whose replay returned an error reply. A live write
  /// that was acknowledged cannot fail replay against the same store
  /// state, so any nonzero count means snapshot/log divergence — the
  /// recovered store must not be trusted.
  std::size_t failed_ops = 0;

  [[nodiscard]] bool diverged() const noexcept { return failed_ops != 0; }
};

/// Full recovery: wipe, restore the snapshot (possibly empty), replay
/// the log tail. Returns what was done.
RecoveryReport recover(kvstore::Store& store, const Snapshot& snapshot,
                       const OpLog& log);

}  // namespace hetsim::ha
