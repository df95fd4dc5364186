// Tests for the RESP2 wire-size accounting. A byte encoder below is the
// oracle: literal cases pin it to the bytes Redis puts on the wire, and
// property tests over the command and reply grammar check that every
// size function equals the length of the oracle's encoding.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kvstore/resp.h"

namespace hetsim::kvstore::resp {
namespace {

// ---- oracle: a RESP2 encoder ----------------------------------------------

enum class ValueType : std::uint8_t {
  kSimpleString,
  kInteger,
  kBulkString,
  kNull,  // null bulk string
  kArray,
};

struct Value {
  ValueType type = ValueType::kNull;
  std::string text;          // simple string / bulk payload
  std::int64_t integer = 0;  // kInteger
  std::vector<Value> array;  // kArray

  static Value simple(std::string s) {
    Value v;
    v.type = ValueType::kSimpleString;
    v.text = std::move(s);
    return v;
  }
  static Value integer_value(std::int64_t i) {
    Value v;
    v.type = ValueType::kInteger;
    v.integer = i;
    return v;
  }
  static Value bulk(std::string s) {
    Value v;
    v.type = ValueType::kBulkString;
    v.text = std::move(s);
    return v;
  }
  static Value null() { return Value{}; }
  static Value array_value(std::vector<Value> elems) {
    Value v;
    v.type = ValueType::kArray;
    v.array = std::move(elems);
    return v;
  }
};

std::string encode(const Value& value) {
  std::string out;
  switch (value.type) {
    case ValueType::kSimpleString:
      out += "+" + value.text + "\r\n";
      break;
    case ValueType::kInteger:
      out += ":" + std::to_string(value.integer) + "\r\n";
      break;
    case ValueType::kBulkString:
      out += "$" + std::to_string(value.text.size()) + "\r\n" + value.text +
             "\r\n";
      break;
    case ValueType::kNull:
      out += "$-1\r\n";
      break;
    case ValueType::kArray:
      out += "*" + std::to_string(value.array.size()) + "\r\n";
      for (const Value& e : value.array) out += encode(e);
      break;
  }
  return out;
}

std::string name_of(CommandType type) {
  switch (type) {
    case CommandType::kSet:
      return "SET";
    case CommandType::kGet:
      return "GET";
    case CommandType::kDel:
      return "DEL";
    case CommandType::kRPush:
      return "RPUSH";
    case CommandType::kLRange:
      return "LRANGE";
    case CommandType::kLLen:
      return "LLEN";
    case CommandType::kLIndex:
      return "LINDEX";
  }
  return "?";
}

/// A command as the RESP array of bulk strings a Redis client sends.
std::string encode_command(const Command& cmd) {
  std::vector<Value> parts;
  parts.push_back(Value::bulk(name_of(cmd.type)));
  parts.push_back(Value::bulk(cmd.key));
  switch (cmd.type) {
    case CommandType::kSet:
    case CommandType::kRPush:
      parts.push_back(Value::bulk(cmd.value));
      break;
    case CommandType::kLRange:
      parts.push_back(Value::bulk(std::to_string(cmd.arg0)));
      parts.push_back(Value::bulk(std::to_string(cmd.arg1)));
      break;
    case CommandType::kLIndex:
      parts.push_back(Value::bulk(std::to_string(cmd.arg0)));
      break;
    default:
      break;  // key-only commands
  }
  return encode(Value::array_value(std::move(parts)));
}

/// The reply Redis sends for a command of the given type.
std::string encode_reply(CommandType type, const Reply& reply) {
  switch (type) {
    case CommandType::kSet:
      return encode(Value::simple("OK"));
    case CommandType::kGet:
    case CommandType::kLIndex:
      return reply.ok ? encode(Value::bulk(reply.blob))
                      : encode(Value::null());
    case CommandType::kDel:
      return encode(Value::integer_value(reply.ok ? 1 : 0));
    case CommandType::kRPush:
    case CommandType::kLLen:
      return encode(Value::integer_value(reply.integer));
    case CommandType::kLRange: {
      std::vector<Value> elems;
      elems.reserve(reply.list.size());
      for (const std::string& e : reply.list) elems.push_back(Value::bulk(e));
      return encode(Value::array_value(std::move(elems)));
    }
  }
  return "";
}

// ---- the oracle speaks Redis's bytes --------------------------------------

TEST(RespValue, NullEncodesAsMinusOne) {
  EXPECT_EQ(encode(Value::null()), "$-1\r\n");
}

TEST(RespValue, EmptyArray) {
  EXPECT_EQ(encode(Value::array_value({})), "*0\r\n");
}

TEST(RespCommand, SetEncodesAsRedisWould) {
  const Command cmd{.type = CommandType::kSet, .key = "k", .value = "v"};
  EXPECT_EQ(encode_command(cmd),
            "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n");
  EXPECT_EQ(command_wire_size(cmd), 27u);
}

TEST(RespCommand, WireSizeIsExact) {
  const std::vector<Command> commands{
      {.type = CommandType::kSet, .key = "some-key", .value = std::string(300, 'x')},
      {.type = CommandType::kGet, .key = ""},
      {.type = CommandType::kLRange, .key = "l", .arg0 = -100, .arg1 = 100000},
  };
  for (const Command& cmd : commands) {
    EXPECT_EQ(command_wire_size(cmd), encode_command(cmd).size());
  }
}

TEST(RespReply, GetFoundAndMissing) {
  const Reply found{.ok = true, .blob = "data"};
  EXPECT_EQ(encode_reply(CommandType::kGet, found), "$4\r\ndata\r\n");
  EXPECT_EQ(reply_wire_size(CommandType::kGet, found), 10u);
  const Reply missing{.ok = false};
  EXPECT_EQ(encode_reply(CommandType::kGet, missing), "$-1\r\n");
  EXPECT_EQ(reply_wire_size(CommandType::kGet, missing), 5u);
}

TEST(RespReply, StatusAndIntegerRepliesEncodeAsRedisWould) {
  EXPECT_EQ(encode_reply(CommandType::kSet, Reply{.ok = true}), "+OK\r\n");
  EXPECT_EQ(encode_reply(CommandType::kDel, Reply{.ok = true}), ":1\r\n");
  EXPECT_EQ(encode_reply(CommandType::kDel, Reply{.ok = false}), ":0\r\n");
  EXPECT_EQ(encode_reply(CommandType::kRPush, Reply{.ok = true, .integer = 42}),
            ":42\r\n");
}

TEST(RespReply, LRangeOfEmptyList) {
  const Reply empty{.ok = true};
  EXPECT_EQ(encode_reply(CommandType::kLRange, empty), "*0\r\n");
  EXPECT_EQ(encode_reply(CommandType::kLRange,
                         Reply{.ok = true, .list = {"a", ""}}),
            "*2\r\n$1\r\na\r\n$0\r\n\r\n");
}

// ---- property: the size functions equal the oracle's lengths --------------

constexpr CommandType kAllTypes[] = {
    CommandType::kSet,    CommandType::kGet,  CommandType::kDel,
    CommandType::kRPush,  CommandType::kLRange, CommandType::kLLen,
    CommandType::kLIndex,
};

constexpr std::int64_t kIntegerEdges[] = {
    0, 1, -1, std::numeric_limits<std::int64_t>::min(),
    std::numeric_limits<std::int64_t>::max()};

/// 0–300 random bytes, CR and LF included (bulk strings are binary-safe).
std::string random_payload(common::Rng& rng) {
  std::string s(rng.bounded(301), '\0');
  for (char& c : s) c = static_cast<char>(rng.bounded(256));
  return s;
}

std::int64_t random_integer(common::Rng& rng) {
  if (rng.bounded(4) == 0) return static_cast<std::int64_t>(rng());
  return kIntegerEdges[rng.bounded(std::size(kIntegerEdges))];
}

TEST(RespWireSize, CommandSizeMatchesTheEncoderOnRandomCommands) {
  common::Rng rng(2301);
  for (int trial = 0; trial < 400; ++trial) {
    for (const CommandType type : kAllTypes) {
      const Command cmd{.type = type,
                        .key = random_payload(rng),
                        .value = random_payload(rng),
                        .arg0 = random_integer(rng),
                        .arg1 = random_integer(rng)};
      ASSERT_EQ(command_wire_size(cmd), encode_command(cmd).size())
          << name_of(type) << " trial " << trial;
    }
  }
}

TEST(RespWireSize, ReplySizeMatchesTheEncoderOnRandomReplies) {
  common::Rng rng(2302);
  for (int trial = 0; trial < 400; ++trial) {
    for (const CommandType type : kAllTypes) {
      Reply reply;
      reply.ok = rng.bounded(4) != 0;  // a quarter are misses / not found
      reply.blob = random_payload(rng);
      reply.integer = random_integer(rng);
      reply.list.resize(rng.bounded(21));
      for (std::string& e : reply.list) {
        if (rng.bounded(3) != 0) e = random_payload(rng);  // else empty
      }
      ASSERT_EQ(reply_wire_size(type, reply), encode_reply(type, reply).size())
          << name_of(type) << " trial " << trial;
    }
  }
}

TEST(RespWireSize, BulkReplySizeMatchesGetReply) {
  common::Rng rng(2303);
  for (int trial = 0; trial < 200; ++trial) {
    const Reply found{.ok = true, .blob = random_payload(rng)};
    EXPECT_EQ(reply_wire_size(CommandType::kGet, found),
              encode_reply(CommandType::kGet, found).size());
  }
  const Reply missing{.ok = false};
  EXPECT_EQ(reply_wire_size(CommandType::kGet, missing),
            encode_reply(CommandType::kGet, missing).size());
  EXPECT_EQ(reply_wire_size(CommandType::kGet, missing), 5u);  // $-1\r\n
}

}  // namespace
}  // namespace hetsim::kvstore::resp
