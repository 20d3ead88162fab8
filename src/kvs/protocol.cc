#include "kvs/protocol.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>

#include "kvs/compress.h"

namespace camp::kvs {

namespace {

std::vector<std::string_view> split_tokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    const std::size_t start = pos;
    while (pos < line.size() && line[pos] != ' ') ++pos;
    if (pos > start) tokens.push_back(line.substr(start, pos - start));
  }
  return tokens;
}

bool parse_u32(std::string_view text, std::uint32_t& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool valid_key(std::string_view key) {
  if (key.empty() || key.size() > 250) return false;
  for (const char c : key) {
    if (c == ' ' || c == '\r' || c == '\n' || c == '\0') return false;
  }
  return true;
}

std::optional<Command> parse_storage(CommandType type,
                                     const std::vector<std::string_view>& t) {
  // set <key> <flags> <exptime> <bytes> [cost] [noreply]
  // pset additionally allows "<codec> <raw_len>" after the cost (an
  // already-compressed peer payload).
  const std::size_t max_tokens = type == CommandType::kPSet ? 9 : 7;
  if (t.size() < 5 || t.size() > max_tokens) return std::nullopt;
  Command cmd;
  cmd.type = type;
  if (!valid_key(t[1])) return std::nullopt;
  cmd.key = std::string(t[1]);
  if (!parse_u32(t[2], cmd.flags) || !parse_u32(t[3], cmd.exptime) ||
      !parse_u32(t[4], cmd.value_bytes)) {
    return std::nullopt;
  }
  // Reject absurd declared sizes up front: the connection would otherwise
  // buffer towards 4 GiB waiting for a payload that may never arrive.
  if (cmd.value_bytes > kMaxValueBytes) return std::nullopt;
  std::size_t next = 5;
  if ((type == CommandType::kSet || type == CommandType::kPSet) &&
      next < t.size() && t[next] != "noreply") {
    if (!parse_u32(t[next], cmd.cost)) return std::nullopt;
    ++next;
  }
  if (type == CommandType::kPSet && next < t.size() &&
      t[next] != "noreply") {
    // The codec/raw_len extension travels as a pair or not at all.
    if (next + 1 >= t.size() || t[next + 1] == "noreply") return std::nullopt;
    if (!parse_u32(t[next], cmd.codec) ||
        !parse_u32(t[next + 1], cmd.raw_len)) {
      return std::nullopt;
    }
    // An unknown codec tag cannot be decoded by this node; reject at the
    // parse so the decoder skips the (credible) payload cleanly.
    if (!codec_tag_valid(cmd.codec)) return std::nullopt;
    if (cmd.codec != 0 && cmd.raw_len > kMaxValueBytes) return std::nullopt;
    next += 2;
  }
  if (next < t.size()) {
    if (t[next] != "noreply") return std::nullopt;
    cmd.noreply = true;
    ++next;
  }
  return next == t.size() ? std::optional<Command>(cmd) : std::nullopt;
}

}  // namespace

bool is_valid_wire_key(std::string_view key) { return valid_key(key); }

std::optional<Command> parse_command(std::string_view line) {
  const auto tokens = split_tokens(line);
  if (tokens.empty()) return std::nullopt;
  const std::string_view verb = tokens[0];

  if (verb == "get") {
    if (tokens.size() < 2) return std::nullopt;
    Command cmd;
    cmd.type = CommandType::kGet;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      if (!valid_key(tokens[i])) return std::nullopt;
      if (i == 1) {
        cmd.key = std::string(tokens[i]);
      } else {
        cmd.extra_keys.emplace_back(tokens[i]);
      }
    }
    return cmd;
  }
  if (verb == "iqget") {
    if (tokens.size() != 2 || !valid_key(tokens[1])) return std::nullopt;
    Command cmd;
    cmd.type = CommandType::kIqGet;
    cmd.key = std::string(tokens[1]);
    return cmd;
  }
  if (verb == "pget") {
    if (tokens.size() != 2 || !valid_key(tokens[1])) return std::nullopt;
    Command cmd;
    cmd.type = CommandType::kPGet;
    cmd.key = std::string(tokens[1]);
    return cmd;
  }
  if (verb == "pdel") {
    if (tokens.size() != 2 || !valid_key(tokens[1])) return std::nullopt;
    Command cmd;
    cmd.type = CommandType::kPDel;
    cmd.key = std::string(tokens[1]);
    return cmd;
  }
  if (verb == "set") return parse_storage(CommandType::kSet, tokens);
  if (verb == "iqset") return parse_storage(CommandType::kIqSet, tokens);
  if (verb == "pset") return parse_storage(CommandType::kPSet, tokens);
  if (verb == "delete") {
    if (tokens.size() < 2 || tokens.size() > 3 || !valid_key(tokens[1])) {
      return std::nullopt;
    }
    Command cmd;
    cmd.type = CommandType::kDelete;
    cmd.key = std::string(tokens[1]);
    if (tokens.size() == 3) {
      if (tokens[2] != "noreply") return std::nullopt;
      cmd.noreply = true;
    }
    return cmd;
  }
  if (verb == "stats" && tokens.size() == 1) {
    Command cmd;
    cmd.type = CommandType::kStats;
    return cmd;
  }
  if (verb == "flush_all" && tokens.size() == 1) {
    Command cmd;
    cmd.type = CommandType::kFlushAll;
    return cmd;
  }
  if (verb == "version" && tokens.size() == 1) {
    Command cmd;
    cmd.type = CommandType::kVersion;
    return cmd;
  }
  if (verb == "quit" && tokens.size() == 1) {
    Command cmd;
    cmd.type = CommandType::kQuit;
    return cmd;
  }
  return std::nullopt;
}

std::uint64_t parse_reply_token(std::string_view token, std::uint64_t max,
                                const char* what) {
  const auto fail = [&](const char* why) {
    throw std::runtime_error(std::string("malformed reply: ") + why + " " +
                             what + " token '" + std::string(token) + "'");
  };
  if (token.empty()) fail("empty");
  if (token.find_first_not_of("0123456789") != std::string_view::npos) {
    fail("non-digit");
  }
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    fail("overflowing");  // all-digit but past uint64
  }
  if (value > max) fail("out-of-range");
  return value;
}

BatchWire encode_batch(const KvsBatch& batch) {
  BatchWire wire;
  const std::vector<KvsOp>& ops = batch.ops();
  // Enforce the server's key rules up front: an invalid key would be
  // rejected wire-side with ERROR, which a noreply op has no reply slot
  // for — the stray ERROR would desync every later reply in the batch.
  for (const KvsOp& op : ops) {
    if (!valid_key(op.key)) {
      throw std::invalid_argument("encode_batch: invalid key '" + op.key +
                                  "'");
    }
  }
  std::size_t i = 0;
  while (i < ops.size()) {
    const KvsOp& op = ops[i];
    switch (op.type) {
      case KvsOpType::kGet: {
        // Coalesce the run of consecutive plain gets into one multi-get.
        // Only consecutive ops may merge: a later get of a key mutated in
        // between must observe the mutation. A run whose command line
        // would cross kMaxCommandLineBytes (which the server's decoder
        // fatally rejects) is split into several multi-get lines.
        BatchWire::Expect expect;
        expect.kind = BatchWire::Expect::Kind::kValues;
        wire.request.append("get");
        std::size_t line_len = 3;
        while (i < ops.size() && ops[i].type == KvsOpType::kGet) {
          if (!expect.op_indices.empty() &&
              line_len + 1 + ops[i].key.size() > kMaxCommandLineBytes) {
            wire.request.append("\r\n");
            wire.expects.push_back(std::move(expect));
            expect = {BatchWire::Expect::Kind::kValues, {}};
            wire.request.append("get");
            line_len = 3;
          }
          wire.request.push_back(' ');
          wire.request.append(ops[i].key);
          line_len += 1 + ops[i].key.size();
          expect.op_indices.push_back(i);
          ++i;
        }
        wire.request.append("\r\n");
        wire.expects.push_back(std::move(expect));
        break;
      }
      case KvsOpType::kIqGet: {
        wire.request.append("iqget ").append(op.key).append("\r\n");
        wire.expects.push_back(
            {BatchWire::Expect::Kind::kValues, {i}});
        ++i;
        break;
      }
      case KvsOpType::kSet:
      case KvsOpType::kIqSet: {
        // The server's decoder kills a connection that declares a payload
        // past kMaxValueBytes; never emit such a header in the first place.
        if (op.value.size() > kMaxValueBytes) {
          throw std::length_error("encode_batch: value for key '" + op.key +
                                  "' exceeds kMaxValueBytes");
        }
        wire.request.append(op.type == KvsOpType::kSet ? "set " : "iqset ");
        wire.request.append(op.key);
        wire.request.push_back(' ');
        wire.request.append(std::to_string(op.flags));
        wire.request.push_back(' ');
        wire.request.append(std::to_string(op.exptime_s));
        wire.request.push_back(' ');
        wire.request.append(std::to_string(op.value.size()));
        if (op.type == KvsOpType::kSet && op.cost != 0) {
          wire.request.push_back(' ');
          wire.request.append(std::to_string(op.cost));
        }
        if (op.noreply) wire.request.append(" noreply");
        wire.request.append("\r\n");
        wire.request.append(op.value);
        wire.request.append("\r\n");
        if (!op.noreply) {
          wire.expects.push_back(
              {BatchWire::Expect::Kind::kStored, {i}});
        }
        ++i;
        break;
      }
      case KvsOpType::kDel: {
        wire.request.append("delete ").append(op.key);
        if (op.noreply) wire.request.append(" noreply");
        wire.request.append("\r\n");
        if (!op.noreply) {
          wire.expects.push_back(
              {BatchWire::Expect::Kind::kDeleted, {i}});
        }
        ++i;
        break;
      }
    }
  }
  return wire;
}

CommandDecoder::Status CommandDecoder::next(DecodedCommand& out) {
  for (;;) {
    const std::size_t available = buf_.size() - pos_;
    if (skip_bytes_ > 0) {
      // Discard the payload of an already-rejected storage command.
      const std::size_t drop = std::min(skip_bytes_, available);
      pos_ += drop;
      skip_bytes_ -= drop;
      if (skip_bytes_ > 0) return Status::kNeedMore;
      continue;  // recompute `available`
    }
    if (pending_) {
      // Storage header parsed; wait for <bytes> + CRLF.
      const std::size_t need =
          static_cast<std::size_t>(pending_->value_bytes) + 2;
      if (available < need) return Status::kNeedMore;
      const std::size_t value_bytes = pending_->value_bytes;
      out.cmd = std::move(*pending_);
      out.payload = buf_.substr(pos_, value_bytes);
      pos_ += need;  // also skips the trailing CRLF
      pending_.reset();
      return Status::kCommand;
    }
    const std::size_t eol = buf_.find("\r\n", pos_);
    if (eol == std::string::npos) {
      // Bound what a CRLF-less stream can make us buffer.
      return available > kMaxCommandLineBytes ? Status::kFatalError
                                              : Status::kNeedMore;
    }
    if (eol - pos_ > kMaxCommandLineBytes) return Status::kFatalError;
    // A view into buf_: nothing below touches buf_ before the line is done.
    const std::string_view line(buf_.data() + pos_, eol - pos_);
    pos_ = eol + 2;
    auto cmd = parse_command(line);
    if (!cmd) {
      // Usually recoverable (answer ERROR, keep framing) — EXCEPT a
      // storage header whose numeric byte count overflows u32 or exceeds
      // kMaxValueBytes: its (potentially huge) payload would stream in as
      // garbage "commands", so the connection must die instead.
      const auto tokens = split_tokens(line);
      if (tokens.size() >= 5 &&
          (tokens[0] == "set" || tokens[0] == "iqset" ||
           tokens[0] == "pset")) {
        const std::string_view bytes_tok = tokens[4];
        const bool numeric =
            !bytes_tok.empty() &&
            bytes_tok.find_first_not_of("0123456789") ==
                std::string_view::npos;
        std::uint32_t declared = 0;
        if (numeric) {
          if (!parse_u32(bytes_tok, declared) ||
              declared > kMaxValueBytes) {
            return Status::kFatalError;
          }
          // Rejected for another reason (bad cost token, oversized key...)
          // but the declared size is credible: swallow the payload that
          // follows so it is not misparsed as commands.
          skip_bytes_ = static_cast<std::size_t>(declared) + 2;
        }
      }
      return Status::kProtocolError;
    }
    if (cmd->type == CommandType::kSet || cmd->type == CommandType::kIqSet ||
        cmd->type == CommandType::kPSet) {
      pending_ = std::move(cmd);
      continue;  // loop back to pull the payload
    }
    out.cmd = std::move(*cmd);
    out.payload.clear();
    return Status::kCommand;
  }
}

std::string format_value(std::string_view key, std::uint32_t flags,
                         std::string_view data) {
  std::string out;
  out.reserve(key.size() + data.size() + 32);
  out.append("VALUE ");
  out.append(key);
  out.push_back(' ');
  out.append(std::to_string(flags));
  out.push_back(' ');
  out.append(std::to_string(data.size()));
  out.append("\r\n");
  out.append(data);
  out.append("\r\n");
  return out;
}

std::string format_value_with_cost(std::string_view key, std::uint32_t flags,
                                   std::uint32_t cost,
                                   std::uint32_t remaining_ttl_s,
                                   std::string_view data) {
  std::string out;
  out.reserve(key.size() + data.size() + 48);
  out.append("VALUE ");
  out.append(key);
  out.push_back(' ');
  out.append(std::to_string(flags));
  out.push_back(' ');
  out.append(std::to_string(data.size()));
  out.push_back(' ');
  out.append(std::to_string(cost));
  out.push_back(' ');
  out.append(std::to_string(remaining_ttl_s));
  out.append("\r\n");
  out.append(data);
  out.append("\r\n");
  return out;
}

std::string format_value_stored(std::string_view key, std::uint32_t flags,
                                std::uint32_t cost,
                                std::uint32_t remaining_ttl_s,
                                std::uint32_t codec, std::uint32_t raw_len,
                                std::string_view stored) {
  if (codec == 0) {
    // Raw pair: byte-identical to the legacy 5-token pget reply.
    return format_value_with_cost(key, flags, cost, remaining_ttl_s, stored);
  }
  std::string out;
  out.reserve(key.size() + stored.size() + 64);
  out.append("VALUE ");
  out.append(key);
  out.push_back(' ');
  out.append(std::to_string(flags));
  out.push_back(' ');
  out.append(std::to_string(stored.size()));
  out.push_back(' ');
  out.append(std::to_string(cost));
  out.push_back(' ');
  out.append(std::to_string(remaining_ttl_s));
  out.push_back(' ');
  out.append(std::to_string(codec));
  out.push_back(' ');
  out.append(std::to_string(raw_len));
  out.append("\r\n");
  out.append(stored);
  out.append("\r\n");
  return out;
}

std::string format_end() { return "END\r\n"; }

std::string format_stored(bool stored) {
  return stored ? "STORED\r\n" : "NOT_STORED\r\n";
}

std::string format_deleted(bool deleted) {
  return deleted ? "DELETED\r\n" : "NOT_FOUND\r\n";
}

std::string format_error() { return "ERROR\r\n"; }

std::string format_stat(std::string_view name, std::string_view value) {
  std::string out("STAT ");
  out.append(name);
  out.push_back(' ');
  out.append(value);
  out.append("\r\n");
  return out;
}

}  // namespace camp::kvs
