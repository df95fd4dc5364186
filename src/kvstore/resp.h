// RESP (REdis Serialization Protocol) wire codec.
//
// The paper's middleware talks to real Redis through hiredis; this codec
// implements the RESP2 wire format for the command subset the framework
// uses, so (a) the simulated client charges *actual* wire bytes rather
// than an approximation, and (b) the store could be fronted by a real
// socket server without changing the data plane.
//
// Encoding summary (RESP2):
//   simple string  +OK\r\n
//   error          -ERR msg\r\n
//   integer        :123\r\n
//   bulk string    $5\r\nhello\r\n   ($-1\r\n = null)
//   array          *2\r\n<elem><elem>  (*-1\r\n = null array)
// Commands are arrays of bulk strings, as sent by every Redis client.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "kvstore/client.h"

namespace hetsim::kvstore::resp {

// ---- low-level values -------------------------------------------------------

enum class ValueType : std::uint8_t {
  kSimpleString,
  kError,
  kInteger,
  kBulkString,
  kNull,       // null bulk string
  kArray,
};

struct Value {
  ValueType type = ValueType::kNull;
  std::string text;            // simple string / error / bulk payload
  std::int64_t integer = 0;    // kInteger
  std::vector<Value> array;    // kArray

  static Value simple(std::string s);
  static Value error(std::string s);
  static Value integer_value(std::int64_t v);
  static Value bulk(std::string s);
  static Value null();
  static Value array_value(std::vector<Value> elems);

  bool operator==(const Value&) const = default;
};

/// Serialize a value to RESP2 bytes.
[[nodiscard]] std::string encode(const Value& value);

/// Most arrays decode() accepts nested inside one another. Commands and
/// replies nest at most two deep; the cap bounds the decoder's recursion.
inline constexpr std::size_t kMaxArrayDepth = 32;

/// Parse one value from `data` starting at `offset`; advances `offset`
/// past the value. Throws StoreError on malformed input or truncation,
/// on an array count the remaining bytes cannot hold, and on arrays
/// nested deeper than kMaxArrayDepth.
[[nodiscard]] Value decode(std::string_view data, std::size_t& offset);

/// Parse exactly one value occupying the whole buffer.
[[nodiscard]] Value decode_all(std::string_view data);

// ---- command mapping --------------------------------------------------------

/// Encode a framework Command as a RESP command array
/// (e.g. kLRange -> *4\r\n$6\r\nLRANGE\r\n...).
[[nodiscard]] std::string encode_command(const Command& cmd);

/// Parse a RESP command array back into a Command. Throws StoreError on
/// unknown command names or arity mismatches.
[[nodiscard]] Command decode_command(std::string_view data);

/// Encode a Reply as the RESP value Redis would send for that command
/// type (integer, bulk string, array or null).
[[nodiscard]] std::string encode_reply(CommandType type, const Reply& reply);

/// Parse a RESP reply for a command of the given type.
[[nodiscard]] Reply decode_reply(CommandType type, std::string_view data);

/// Exact wire size of a command without materializing the encoding.
[[nodiscard]] std::size_t command_wire_size(const Command& cmd);

/// Exact wire size of a reply without materializing the encoding.
[[nodiscard]] std::size_t reply_wire_size(CommandType type, const Reply& reply);

/// Wire size of a GET/LINDEX-style bulk reply carrying `blob_size`
/// payload bytes (nullopt = null bulk, $-1\r\n). The zero-copy client
/// path charges wire time from the size alone, without materializing a
/// Reply; by construction it matches reply_wire_size for kGet exactly.
[[nodiscard]] std::size_t bulk_reply_wire_size(
    std::optional<std::size_t> blob_size);

}  // namespace hetsim::kvstore::resp
