// RESP (REdis Serialization Protocol) wire sizes.
//
// The paper's middleware talks to real Redis through hiredis. The
// simulated client charges the *actual* RESP2 wire bytes of every
// command and reply rather than an approximation; these functions
// compute those sizes without materializing the encoding.
//
// Encoding summary (RESP2):
//   simple string  +OK\r\n
//   integer        :123\r\n
//   bulk string    $5\r\nhello\r\n   ($-1\r\n = null)
//   array          *2\r\n<elem><elem>
// Commands are arrays of bulk strings, as sent by every Redis client.
// tests/resp_test.cpp holds a byte encoder that pins these sizes.
#pragma once

#include <cstddef>

#include "kvstore/client.h"

namespace hetsim::kvstore::resp {

/// Exact wire size of a command (e.g. kLRange ->
/// *4\r\n$6\r\nLRANGE\r\n...) without materializing the encoding.
[[nodiscard]] std::size_t command_wire_size(const Command& cmd);

/// Exact wire size of the reply Redis would send for a command of the
/// given type (integer, bulk string, array or null).
[[nodiscard]] std::size_t reply_wire_size(CommandType type, const Reply& reply);

}  // namespace hetsim::kvstore::resp
