#include "kvstore/resp.h"

#include <array>
#include <string>
#include <string_view>

#include "common/error.h"

namespace hetsim::kvstore::resp {

namespace {

using common::StoreError;

std::size_t digits_of(std::int64_t v) {
  return std::to_string(v).size();
}

/// Command name table, index = CommandType.
constexpr std::array<std::string_view, 7> kNames{
    "SET", "GET", "DEL", "RPUSH", "LRANGE", "LLEN", "LINDEX"};

std::string_view name_of(CommandType type) {
  return kNames[static_cast<std::size_t>(type)];
}

std::size_t bulk_wire_size(std::size_t payload) {
  return 1 + digits_of(static_cast<std::int64_t>(payload)) + 2 + payload + 2;
}

}  // namespace

std::size_t command_wire_size(const Command& cmd) {
  std::size_t parts = 2;  // name + key
  std::size_t payload = bulk_wire_size(name_of(cmd.type).size()) +
                        bulk_wire_size(cmd.key.size());
  switch (cmd.type) {
    case CommandType::kSet:
    case CommandType::kRPush:
      payload += bulk_wire_size(cmd.value.size());
      ++parts;
      break;
    case CommandType::kLRange:
      payload += bulk_wire_size(digits_of(cmd.arg0));
      payload += bulk_wire_size(digits_of(cmd.arg1));
      parts += 2;
      break;
    case CommandType::kLIndex:
      payload += bulk_wire_size(digits_of(cmd.arg0));
      ++parts;
      break;
    default:
      break;
  }
  return 1 + digits_of(static_cast<std::int64_t>(parts)) + 2 + payload;
}

std::size_t reply_wire_size(CommandType type, const Reply& reply) {
  switch (type) {
    case CommandType::kSet:
      return 5;  // +OK\r\n
    case CommandType::kGet:
    case CommandType::kLIndex:
      return reply.ok ? bulk_wire_size(reply.blob.size()) : 5;  // $-1\r\n
    case CommandType::kDel:
      return 4;  // :0\r\n or :1\r\n
    case CommandType::kRPush:
    case CommandType::kLLen:
      return 1 + digits_of(reply.integer) + 2;
    case CommandType::kLRange: {
      std::size_t n = 1 + digits_of(static_cast<std::int64_t>(reply.list.size())) + 2;
      for (const std::string& e : reply.list) n += bulk_wire_size(e.size());
      return n;
    }
  }
  throw StoreError("resp: unknown command type");
}

}  // namespace hetsim::kvstore::resp
