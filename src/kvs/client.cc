#include "kvs/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "kvs/net_io.h"
#include "kvs/protocol.h"

namespace camp::kvs {

namespace {

/// Strict u32 reply-token parse (see parse_reply_token): rejects the
/// oversized/negative/garbage tokens a mixed-version or byzantine peer
/// could send, which bare std::stoul + static_cast silently truncated.
std::uint32_t parse_reply_u32(std::string_view token, const char* what) {
  return static_cast<std::uint32_t>(
      parse_reply_token(token, 0xffff'ffffull, what));
}

/// Payload sizes are additionally bounded by the protocol's value cap, so
/// a lying peer cannot make the client allocate gigabytes.
std::size_t parse_reply_bytes(std::string_view token, const char* what) {
  return static_cast<std::size_t>(
      parse_reply_token(token, kMaxValueBytes, what));
}

/// The peer ops interpolate the key straight into the request line, so a
/// key with a space or CRLF would inject commands into the peer stream —
/// reject it before any bytes go out (encode_batch already does this for
/// the batch path).
void require_wire_key(std::string_view key) {
  if (!is_valid_wire_key(key)) {
    throw std::invalid_argument("KvsClient: invalid wire key '" +
                                std::string(key) + "'");
  }
}

/// A blocking connect() interrupted by a signal keeps handshaking in the
/// background, and issuing it again fails (EALREADY, or EISCONN once it
/// is done). So wait for the socket to turn writable instead and read the
/// handshake's outcome from SO_ERROR. Returns 0 on success, else the errno
/// that describes the failure.
int finish_interrupted_connect(int fd) {
  pollfd pfd{fd, POLLOUT, 0};
  if (net::retry_eintr([&] {
        return static_cast<ssize_t>(::poll(&pfd, 1, -1));
      }) < 0) {
    return errno;
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) return errno;
  return err;
}

}  // namespace

KvsClient::KvsClient(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("KvsClient: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    throw std::runtime_error("KvsClient: bad host address");
  }
  int err = 0;
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    err = errno == EINTR ? finish_interrupted_connect(fd_) : errno;
  }
  if (err != 0) {
    ::close(fd_);
    throw std::runtime_error(std::string("KvsClient: connect failed: ") +
                             std::strerror(err));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

KvsClient::~KvsClient() {
  if (fd_ >= 0) {
    // Best-effort courtesy quit; the server may already be gone and a
    // destructor must not throw.
    static constexpr char kQuit[] = "quit\r\n";
    (void)::send(fd_, kQuit, sizeof(kQuit) - 1, MSG_NOSIGNAL);
    ::close(fd_);
  }
}

void KvsClient::send_all(std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = net::retry_eintr([&] {
      return ::send(fd_, data.data() + sent, data.size() - sent,
                    MSG_NOSIGNAL | MSG_DONTWAIT);
    });
    switch (net::classify_send(n)) {
      case net::IoStatus::kProgress:
        ++write_count_;
        sent += static_cast<std::size_t>(n);
        continue;
      case net::IoStatus::kWouldBlock:
        break;
      default:
        throw std::runtime_error(std::string("KvsClient: send failed: ") +
                                 std::strerror(errno));
    }
    // Kernel send buffer full. The server may be unable to accept more
    // request bytes until we read the replies it already queued (a huge
    // replied batch can exceed both sockets' buffers), so drain replies
    // into inbuf_ before waiting — otherwise the two writers deadlock.
    char chunk[16 * 1024];
    ssize_t got;
    while ((got = net::retry_eintr([&] {
              return ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
            })) > 0) {
      inbuf_.append(chunk, static_cast<std::size_t>(got));
    }
    if (got == 0) throw std::runtime_error("KvsClient: connection closed");
    if (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      throw std::runtime_error(std::string("KvsClient: recv failed: ") +
                               std::strerror(errno));
    }
    wait_ready(/*want_write=*/true);  // unsent request bytes remain here
  }
}

void KvsClient::wait_ready(bool want_write) {
  pollfd pfd{fd_, static_cast<short>(POLLIN | (want_write ? POLLOUT : 0)), 0};
  const ssize_t r = net::retry_eintr(
      [&] { return static_cast<ssize_t>(::poll(&pfd, 1, -1)); });
  if (r < 0) {
    throw std::runtime_error(std::string("KvsClient: poll failed: ") +
                             std::strerror(errno));
  }
}

void KvsClient::fill_inbuf() {
  // Compact once per read instead of erasing inbuf_'s front per line and
  // per payload: parsing a multi-value reply stays linear in its size.
  if (in_pos_ > 0) {
    inbuf_.erase(0, in_pos_);
    in_pos_ = 0;
  }
  char chunk[16 * 1024];
  const ssize_t n =
      net::retry_eintr([&] { return ::recv(fd_, chunk, sizeof(chunk), 0); });
  if (n > 0) {
    inbuf_.append(chunk, static_cast<std::size_t>(n));
    return;
  }
  if (n == 0) throw std::runtime_error("KvsClient: connection closed");
  throw std::runtime_error(std::string("KvsClient: recv failed: ") +
                           std::strerror(errno));
}

std::string KvsClient::read_line() {
  for (;;) {
    const std::size_t pos = inbuf_.find("\r\n", in_pos_);
    if (pos != std::string::npos) {
      std::string line = inbuf_.substr(in_pos_, pos - in_pos_);
      in_pos_ = pos + 2;
      return line;
    }
    fill_inbuf();
  }
}

std::string KvsClient::read_bytes(std::size_t n) {
  while (inbuf_.size() - in_pos_ < n + 2) {  // payload + CRLF
    fill_inbuf();
  }
  std::string payload = inbuf_.substr(in_pos_, n);
  in_pos_ += n + 2;
  return payload;
}

KvsBatchResult KvsClient::execute(const KvsBatch& batch) {
  KvsBatchResult out;
  out.results.resize(batch.size());
  if (batch.empty()) return out;

  // noreply mutations get no wire confirmation: assumed stored/deleted.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].noreply) {
      out.results[i].ok = true;
      out.results[i].acked = false;
    }
  }

  const BatchWire wire = encode_batch(batch);
  send_all(wire.request);  // the whole batch: exactly one write()

  for (const BatchWire::Expect& expect : wire.expects) {
    switch (expect.kind) {
      case BatchWire::Expect::Kind::kValues: {
        // The server answers a (multi-)get with the hits in request order,
        // duplicates included; match VALUE lines against the covered ops by
        // walking both sequences forward. Ops skipped over are misses.
        std::size_t cursor = 0;
        for (;;) {
          const std::string line = read_line();
          if (line == "END") break;
          if (line.rfind("VALUE ", 0) != 0) {
            throw std::runtime_error("KvsClient: unexpected reply: " + line);
          }
          const std::size_t key_end = line.find(' ', 6);
          const std::size_t bytes_pos = key_end == std::string::npos
                                            ? std::string::npos
                                            : line.find(' ', key_end + 1);
          if (bytes_pos == std::string::npos) {
            throw std::runtime_error("KvsClient: malformed VALUE reply: " +
                                     line);
          }
          const std::string key = line.substr(6, key_end - 6);
          const std::uint32_t flags = parse_reply_u32(
              std::string_view(line).substr(key_end + 1,
                                            bytes_pos - key_end - 1),
              "flags");
          const std::size_t nbytes = parse_reply_bytes(
              std::string_view(line).substr(bytes_pos + 1), "bytes");
          std::string payload = read_bytes(nbytes);
          while (cursor < expect.op_indices.size() &&
                 batch[expect.op_indices[cursor]].key != key) {
            ++cursor;
          }
          if (cursor == expect.op_indices.size()) {
            throw std::runtime_error("KvsClient: unrequested key in reply: " +
                                     key);
          }
          KvsOpResult& r = out.results[expect.op_indices[cursor]];
          r.ok = true;
          r.flags = flags;
          r.value = std::move(payload);
          ++cursor;
        }
        break;
      }
      case BatchWire::Expect::Kind::kStored: {
        const std::string line = read_line();
        KvsOpResult& r = out.results[expect.op_indices.front()];
        if (line == "STORED") {
          r.ok = true;
        } else if (line == "NOT_STORED") {
          r.ok = false;
        } else {
          throw std::runtime_error("KvsClient: unexpected reply: " + line);
        }
        break;
      }
      case BatchWire::Expect::Kind::kDeleted: {
        const std::string line = read_line();
        KvsOpResult& r = out.results[expect.op_indices.front()];
        if (line == "DELETED") {
          r.ok = true;
        } else if (line == "NOT_FOUND") {
          r.ok = false;
        } else {
          throw std::runtime_error("KvsClient: unexpected reply: " + line);
        }
        break;
      }
    }
  }
  return out;
}

std::map<std::string, GetResult> KvsClient::multi_get(
    const std::vector<std::string>& keys) {
  KvsBatch batch;
  batch.reserve(keys.size());
  for (const std::string& key : keys) batch.add_get(key);
  const KvsBatchResult r = execute(batch);
  std::map<std::string, GetResult> out;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (r.results[i].ok) out[keys[i]] = r.results[i].to_get_result();
  }
  return out;
}

StoredGetResult KvsClient::peer_get(std::string_view key) {
  require_wire_key(key);
  std::string request("pget ");
  request.append(key);
  request.append("\r\n");
  send_all(request);
  StoredGetResult result;
  for (;;) {
    const std::string line = read_line();
    if (line == "END") return result;
    if (line.rfind("VALUE ", 0) != 0) {
      throw std::runtime_error("KvsClient: unexpected pget reply: " + line);
    }
    // VALUE <key> <flags> <bytes> <cost> <ttl> [<codec> <raw_len>]
    // (the trailing pair appears only for compressed pairs).
    std::vector<std::string_view> tokens;
    const std::string_view view(line);
    std::size_t pos = 6;  // past "VALUE "
    while (pos < view.size()) {
      while (pos < view.size() && view[pos] == ' ') ++pos;
      const std::size_t start = pos;
      while (pos < view.size() && view[pos] != ' ') ++pos;
      if (pos > start) tokens.push_back(view.substr(start, pos - start));
    }
    if (tokens.size() != 5 && tokens.size() != 7) {
      throw std::runtime_error("KvsClient: malformed pget reply: " + line);
    }
    result.hit = true;
    result.flags = parse_reply_u32(tokens[1], "flags");
    const std::size_t nbytes = parse_reply_bytes(tokens[2], "bytes");
    result.cost = parse_reply_u32(tokens[3], "cost");
    result.remaining_ttl_s = parse_reply_u32(tokens[4], "ttl");
    if (tokens.size() == 7) {
      const auto codec_tag = parse_reply_u32(tokens[5], "codec");
      if (!codec_tag_valid(codec_tag) || codec_tag == 0) {
        throw std::runtime_error("KvsClient: malformed pget reply: " + line);
      }
      result.codec = static_cast<Codec>(codec_tag);
      result.raw_len = static_cast<std::uint32_t>(
          parse_reply_token(tokens[6], kMaxValueBytes, "raw_len"));
    }
    result.stored = read_bytes(nbytes);
    if (result.codec == Codec::kIdentity) {
      result.raw_len = static_cast<std::uint32_t>(result.stored.size());
    }
  }
}

bool KvsClient::peer_set(std::string_view key, std::string_view value,
                         std::uint32_t flags, std::uint32_t cost,
                         std::uint32_t exptime_s, std::uint32_t codec,
                         std::uint32_t raw_len) {
  require_wire_key(key);
  if (value.size() > kMaxValueBytes) {
    throw std::length_error("KvsClient: peer_set value exceeds "
                            "kMaxValueBytes");
  }
  std::string request("pset ");
  request.append(key);
  request.push_back(' ');
  request.append(std::to_string(flags));
  request.push_back(' ');
  request.append(std::to_string(exptime_s));
  request.push_back(' ');
  request.append(std::to_string(value.size()));
  request.push_back(' ');
  request.append(std::to_string(cost));
  if (codec != 0) {
    // Already-compressed payload: ship the codec tag + decoded length so
    // the peer stores it verbatim (after validating by decoding).
    request.push_back(' ');
    request.append(std::to_string(codec));
    request.push_back(' ');
    request.append(std::to_string(raw_len));
  }
  request.append("\r\n");
  request.append(value);
  request.append("\r\n");
  send_all(request);
  const std::string line = read_line();
  if (line == "STORED") return true;
  if (line == "NOT_STORED") return false;
  throw std::runtime_error("KvsClient: unexpected pset reply: " + line);
}

bool KvsClient::peer_del(std::string_view key) {
  require_wire_key(key);
  std::string request("pdel ");
  request.append(key);
  request.append("\r\n");
  send_all(request);
  const std::string line = read_line();
  if (line == "DELETED") return true;
  if (line == "NOT_FOUND") return false;
  throw std::runtime_error("KvsClient: unexpected pdel reply: " + line);
}

std::map<std::string, std::string> KvsClient::stats() {
  send_all("stats\r\n");
  std::map<std::string, std::string> out;
  for (;;) {
    const std::string line = read_line();
    if (line == "END") return out;
    if (line.rfind("STAT ", 0) == 0) {
      const std::size_t value_pos = line.find(' ', 5);
      out.emplace(line.substr(5, value_pos - 5), line.substr(value_pos + 1));
      continue;
    }
    throw std::runtime_error("KvsClient: unexpected stats reply: " + line);
  }
}

void KvsClient::flush_all() {
  send_all("flush_all\r\n");
  const std::string line = read_line();
  if (line != "OK") {
    throw std::runtime_error("KvsClient: flush_all failed: " + line);
  }
}

std::string KvsClient::version() {
  send_all("version\r\n");
  return read_line();
}

}  // namespace camp::kvs
