#include "kvstore/resp.h"

#include <array>
#include <charconv>

#include "common/error.h"

namespace hetsim::kvstore::resp {

namespace {

using common::StoreError;

constexpr std::string_view kCrlf = "\r\n";

void append_crlf(std::string& out) { out.append(kCrlf); }

void append_int(std::string& out, std::int64_t v) {
  out.append(std::to_string(v));
}

std::size_t digits_of(std::int64_t v) {
  return std::to_string(v).size();
}

/// Reads up to the next CRLF; returns the line and advances past it.
std::string_view read_line(std::string_view data, std::size_t& offset) {
  const std::size_t end = data.find(kCrlf, offset);
  common::require<StoreError>(end != std::string_view::npos,
                              "resp: missing CRLF");
  std::string_view line = data.substr(offset, end - offset);
  offset = end + 2;
  return line;
}

std::int64_t parse_int(std::string_view text) {
  std::int64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  common::require<StoreError>(ec == std::errc() && ptr == text.data() + text.size(),
                              "resp: bad integer");
  return v;
}

/// Command name table, index = CommandType.
constexpr std::array<std::string_view, 10> kNames{
    "SET", "GET", "DEL", "EXISTS", "RPUSH",
    "LRANGE", "LLEN", "LINDEX", "INCRBY", "COUNTER"};

std::string_view name_of(CommandType type) {
  return kNames[static_cast<std::size_t>(type)];
}

std::optional<CommandType> type_of(std::string_view name) {
  for (std::size_t i = 0; i < kNames.size(); ++i) {
    if (kNames[i] == name) return static_cast<CommandType>(i);
  }
  return std::nullopt;
}

void append_bulk(std::string& out, std::string_view payload) {
  out.push_back('$');
  append_int(out, static_cast<std::int64_t>(payload.size()));
  append_crlf(out);
  out.append(payload);
  append_crlf(out);
}

std::size_t bulk_wire_size(std::size_t payload) {
  return 1 + digits_of(static_cast<std::int64_t>(payload)) + 2 + payload + 2;
}

}  // namespace

Value Value::simple(std::string s) {
  Value v;
  v.type = ValueType::kSimpleString;
  v.text = std::move(s);
  return v;
}
Value Value::error(std::string s) {
  Value v;
  v.type = ValueType::kError;
  v.text = std::move(s);
  return v;
}
Value Value::integer_value(std::int64_t i) {
  Value v;
  v.type = ValueType::kInteger;
  v.integer = i;
  return v;
}
Value Value::bulk(std::string s) {
  Value v;
  v.type = ValueType::kBulkString;
  v.text = std::move(s);
  return v;
}
Value Value::null() { return Value{}; }
Value Value::array_value(std::vector<Value> elems) {
  Value v;
  v.type = ValueType::kArray;
  v.array = std::move(elems);
  return v;
}

std::string encode(const Value& value) {
  std::string out;
  switch (value.type) {
    case ValueType::kSimpleString:
      out.push_back('+');
      out.append(value.text);
      append_crlf(out);
      break;
    case ValueType::kError:
      out.push_back('-');
      out.append(value.text);
      append_crlf(out);
      break;
    case ValueType::kInteger:
      out.push_back(':');
      append_int(out, value.integer);
      append_crlf(out);
      break;
    case ValueType::kBulkString:
      append_bulk(out, value.text);
      break;
    case ValueType::kNull:
      out.append("$-1");
      append_crlf(out);
      break;
    case ValueType::kArray:
      out.push_back('*');
      append_int(out, static_cast<std::int64_t>(value.array.size()));
      append_crlf(out);
      for (const Value& e : value.array) out.append(encode(e));
      break;
  }
  return out;
}

namespace {

/// decode() at array nesting `depth` (0 for a top-level value).
Value decode_at(std::string_view data, std::size_t& offset,
                std::size_t depth) {
  common::require<StoreError>(offset < data.size(), "resp: empty input");
  const char tag = data[offset++];
  switch (tag) {
    case '+':
      return Value::simple(std::string(read_line(data, offset)));
    case '-':
      return Value::error(std::string(read_line(data, offset)));
    case ':':
      return Value::integer_value(parse_int(read_line(data, offset)));
    case '$': {
      const std::int64_t len = parse_int(read_line(data, offset));
      if (len < 0) return Value::null();
      common::require<StoreError>(
          offset + static_cast<std::size_t>(len) + 2 <= data.size(),
          "resp: truncated bulk string");
      Value v = Value::bulk(
          std::string(data.substr(offset, static_cast<std::size_t>(len))));
      offset += static_cast<std::size_t>(len);
      common::require<StoreError>(data.substr(offset, 2) == kCrlf,
                                  "resp: bulk string missing CRLF");
      offset += 2;
      return v;
    }
    case '*': {
      const std::int64_t count = parse_int(read_line(data, offset));
      if (count < 0) return Value::null();
      common::require<StoreError>(depth < kMaxArrayDepth,
                                  "resp: arrays nested too deep");
      // Every element takes at least 3 bytes ("+\r\n"): a count the
      // remaining bytes cannot hold is malformed, and must not size an
      // allocation.
      common::require<StoreError>(
          static_cast<std::uint64_t>(count) <= (data.size() - offset) / 3,
          "resp: array count exceeds the remaining bytes");
      Value v;
      v.type = ValueType::kArray;
      v.array.reserve(static_cast<std::size_t>(count));
      for (std::int64_t i = 0; i < count; ++i) {
        v.array.push_back(decode_at(data, offset, depth + 1));
      }
      return v;
    }
    default:
      throw StoreError("resp: unknown type tag");
  }
}

}  // namespace

Value decode(std::string_view data, std::size_t& offset) {
  return decode_at(data, offset, 0);
}

Value decode_all(std::string_view data) {
  std::size_t offset = 0;
  Value v = decode(data, offset);
  common::require<StoreError>(offset == data.size(),
                              "resp: trailing bytes after value");
  return v;
}

std::string encode_command(const Command& cmd) {
  std::vector<Value> parts;
  parts.push_back(Value::bulk(std::string(name_of(cmd.type))));
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
    case CommandType::kIncrBy:
      parts.push_back(Value::bulk(std::to_string(cmd.arg0)));
      break;
    default:
      break;  // key-only commands
  }
  return encode(Value::array_value(std::move(parts)));
}

Command decode_command(std::string_view data) {
  const Value v = decode_all(data);
  common::require<StoreError>(v.type == ValueType::kArray && !v.array.empty(),
                              "resp: command must be a non-empty array");
  for (const Value& e : v.array) {
    common::require<StoreError>(e.type == ValueType::kBulkString,
                                "resp: command elements must be bulk strings");
  }
  const auto type = type_of(v.array[0].text);
  common::require<StoreError>(type.has_value(), "resp: unknown command");
  Command cmd;
  cmd.type = *type;
  common::require<StoreError>(v.array.size() >= 2, "resp: missing key");
  cmd.key = v.array[1].text;
  const auto arg = [&](std::size_t i) -> std::string_view {
    common::require<StoreError>(i < v.array.size(), "resp: missing argument");
    return v.array[i].text;
  };
  switch (cmd.type) {
    case CommandType::kSet:
    case CommandType::kRPush:
      cmd.value = std::string(arg(2));
      break;
    case CommandType::kLRange:
      cmd.arg0 = parse_int(arg(2));
      cmd.arg1 = parse_int(arg(3));
      break;
    case CommandType::kLIndex:
    case CommandType::kIncrBy:
      cmd.arg0 = parse_int(arg(2));
      break;
    default:
      break;
  }
  return cmd;
}

std::string encode_reply(CommandType type, const Reply& reply) {
  switch (type) {
    case CommandType::kSet:
      return encode(Value::simple("OK"));
    case CommandType::kGet:
    case CommandType::kLIndex:
      return reply.ok ? encode(Value::bulk(reply.blob))
                      : encode(Value::null());
    case CommandType::kDel:
    case CommandType::kExists:
      return encode(Value::integer_value(reply.ok ? 1 : 0));
    case CommandType::kRPush:
    case CommandType::kLLen:
    case CommandType::kIncrBy:
    case CommandType::kCounter:
      return encode(Value::integer_value(reply.integer));
    case CommandType::kLRange: {
      std::vector<Value> elems;
      elems.reserve(reply.list.size());
      for (const std::string& e : reply.list) elems.push_back(Value::bulk(e));
      return encode(Value::array_value(std::move(elems)));
    }
  }
  throw StoreError("resp: unknown command type");
}

Reply decode_reply(CommandType type, std::string_view data) {
  const Value v = decode_all(data);
  Reply reply;
  switch (type) {
    case CommandType::kSet:
      common::require<StoreError>(v.type == ValueType::kSimpleString,
                                  "resp: SET expects +OK");
      reply.ok = true;
      break;
    case CommandType::kGet:
    case CommandType::kLIndex:
      if (v.type == ValueType::kNull) {
        reply.ok = false;
      } else {
        common::require<StoreError>(v.type == ValueType::kBulkString,
                                    "resp: expected bulk string");
        reply.ok = true;
        reply.blob = v.text;
      }
      break;
    case CommandType::kDel:
    case CommandType::kExists:
      common::require<StoreError>(v.type == ValueType::kInteger,
                                  "resp: expected integer");
      reply.ok = v.integer != 0;
      break;
    case CommandType::kRPush:
    case CommandType::kLLen:
    case CommandType::kIncrBy:
    case CommandType::kCounter:
      common::require<StoreError>(v.type == ValueType::kInteger,
                                  "resp: expected integer");
      reply.ok = true;
      reply.integer = v.integer;
      break;
    case CommandType::kLRange:
      common::require<StoreError>(v.type == ValueType::kArray,
                                  "resp: expected array");
      reply.ok = true;
      for (const Value& e : v.array) {
        common::require<StoreError>(e.type == ValueType::kBulkString,
                                    "resp: array elements must be bulk");
        reply.list.push_back(e.text);
      }
      break;
  }
  return reply;
}

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
    case CommandType::kIncrBy:
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
    case CommandType::kExists:
      return 4;  // :0\r\n or :1\r\n
    case CommandType::kRPush:
    case CommandType::kLLen:
    case CommandType::kIncrBy:
    case CommandType::kCounter:
      return 1 + digits_of(reply.integer) + 2;
    case CommandType::kLRange: {
      std::size_t n = 1 + digits_of(static_cast<std::int64_t>(reply.list.size())) + 2;
      for (const std::string& e : reply.list) n += bulk_wire_size(e.size());
      return n;
    }
  }
  throw StoreError("resp: unknown command type");
}

std::size_t bulk_reply_wire_size(std::optional<std::size_t> blob_size) {
  return blob_size.has_value() ? bulk_wire_size(*blob_size) : 5;  // $-1\r\n
}

}  // namespace hetsim::kvstore::resp
