// In-memory key-value store modelled on the subset of Redis the paper's
// middleware uses (section IV): string blobs and lists of blobs. The
// paper's INCR barrier has no counter here: Cluster::run_phase is the
// barrier, in virtual time.
//
// One Store instance plays the role of one Redis server process. It is
// completely deterministic and holds no lock: the simulator reaches every
// store from its one driving thread (pool lanes run pure kernels only;
// DESIGN.md §7).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace hetsim::kvstore {

/// Store statistics, for tests and capacity accounting.
struct StoreStats {
  std::uint64_t keys = 0;
  std::uint64_t bytes = 0;  // payload bytes across all values
  std::uint64_t ops = 0;    // operations served since construction
};

class Store {
 public:
  Store() = default;
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  // ---- string values -------------------------------------------------
  void set(std::string_view key, std::string_view value);
  /// nullopt if the key is absent. Throws StoreError on type mismatch.
  [[nodiscard]] std::optional<std::string> get(std::string_view key) const;

  // ---- list values ---------------------------------------------------
  /// Appends to the list at `key` (creates it), returns new length.
  std::size_t rpush(std::string_view key, std::string_view element);
  /// Elements in [start, stop] inclusive, Redis-style; negative indices
  /// count from the end (-1 is the last element). Empty if out of range.
  [[nodiscard]] std::vector<std::string> lrange(std::string_view key,
                                                std::int64_t start,
                                                std::int64_t stop) const;
  [[nodiscard]] std::size_t llen(std::string_view key) const;
  /// nullopt when index is out of range or key absent.
  [[nodiscard]] std::optional<std::string> lindex(std::string_view key,
                                                  std::int64_t index) const;

  // ---- keyspace ------------------------------------------------------
  /// Returns true if the key was present.
  bool del(std::string_view key);
  void flush_all();
  [[nodiscard]] StoreStats stats() const;

  // ---- fail-stop (src/ha crash) ---------------------------------------
  // A fail-stopped store refuses client traffic for good: Client::execute
  // / drain time out against it instead of applying commands, so a
  // crashed replica can never hand out zombie acks between the crash
  // and the router noticing. Direct Store methods keep working — they
  // model control-plane access, not the serving path.
  void fail_stop();
  [[nodiscard]] bool is_down() const;

  // ---- inspection surface (tests) -------------------------------------
  // A stable, enumerable view of the keyspace for durability checks.
  // Neither counts as a served operation (ops_ untouched): they model
  // control-plane access, not client traffic.
  /// All keys, in map (lexicographic) order.
  [[nodiscard]] std::vector<std::string> keys() const;
  /// Stable 64-bit digest of the value under `key` (type-tagged, so a
  /// string "x" and a one-element list ["x"] differ); 0 when the key is
  /// absent.
  [[nodiscard]] std::uint64_t value_digest(std::string_view key) const;

 private:
  using Value = std::variant<std::string, std::vector<std::string>>;

  std::map<std::string, Value, std::less<>> data_;
  mutable std::uint64_t ops_ = 0;
  bool down_ = false;
};

}  // namespace hetsim::kvstore
