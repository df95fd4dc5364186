// Length-prefixed packed record codec.
//
// Section IV of the paper: "Instead of storing the individual attribute
// values of a data item, we store the item as a sequence of raw bytes and
// we maintain a list of such sequences ... The first four bytes in the
// sequence contain the length of the data object." This codec implements
// exactly that framing, so a whole partition moves in one get/put while
// individual records stay addressable.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace hetsim::kvstore {

/// Concatenate records into one blob, each framed as a 4-byte
/// little-endian length prefix + payload.
[[nodiscard]] std::string pack_records(std::span<const std::string> records);

/// Zero-copy forward iteration over a packed blob: each next() yields
/// the payload as a string_view into the blob, so a partition framed
/// once is never re-materialized per record. The blob must outlive the
/// cursor and every view it returned (ownership rules: DESIGN.md §12).
class RecordCursor {
 public:
  explicit RecordCursor(std::string_view blob) noexcept : blob_(blob) {}

  [[nodiscard]] bool done() const noexcept { return at_ >= blob_.size(); }

  /// Payload of the next record. Throws StoreError on truncated framing
  /// (length prefix or body extending past the blob), checked lazily
  /// per record.
  [[nodiscard]] std::string_view next();

 private:
  std::string_view blob_;
  std::size_t at_ = 0;
};

}  // namespace hetsim::kvstore
