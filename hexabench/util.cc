// Digests, the HTTP client and latency statistics (see bench.h).
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.h"

namespace hexabench {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t JsonNumberAfter(const std::string& body, const char* key) {
  const std::size_t at = body.find(key);
  if (at == std::string::npos) return UINT64_MAX;
  return std::strtoull(body.c_str() + at + std::strlen(key), nullptr, 10);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void RowHasher::Cell(std::string_view value) {
  h_ = Fnv1a(value, h_);
  h_ = Fnv1a(std::string_view("\x1f", 1), h_);
}

std::uint64_t RowHasher::EndRow(Digest* into) {
  std::uint64_t x = h_;
  x ^= x >> 31;
  x *= 0x7fb5d329728ea185ull;
  x ^= x >> 27;
  into->sum += x;
  ++into->rows;
  h_ = 1469598103934665603ull;
  return x;
}

namespace {

// Minimal cursor over the SPARQL-JSON results document. Only strings,
// objects and arrays of those occur in it.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view s) : s_(s) {}

  void Ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\r' || s_[i_] == '\t')) {
      ++i_;
    }
  }
  bool Eat(char c) {
    Ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  // Reads one string. Without escapes `*out` views the document; with
  // them it views `*scratch`, which holds the decoded bytes.
  bool String(std::string_view* out, std::string* scratch) {
    if (!Eat('"')) return false;
    const std::size_t begin = i_;
    const std::size_t close = s_.find_first_of("\"\\", i_);
    if (close == std::string_view::npos) return false;
    if (s_[close] == '"') {
      *out = s_.substr(begin, close - begin);
      i_ = close + 1;
      return true;
    }
    scratch->assign(s_.substr(begin, close - begin));
    i_ = close;
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') {
        *out = *scratch;
        return true;
      }
      if (c != '\\') {
        scratch->push_back(c);
        continue;
      }
      if (i_ >= s_.size()) return false;
      const char e = s_[i_++];
      switch (e) {
        case 'n': scratch->push_back('\n'); break;
        case 't': scratch->push_back('\t'); break;
        case 'r': scratch->push_back('\r'); break;
        case 'b': scratch->push_back('\b'); break;
        case 'f': scratch->push_back('\f'); break;
        case 'u': {
          if (i_ + 4 > s_.size()) return false;
          unsigned cp = std::stoul(std::string(s_.substr(i_, 4)), nullptr, 16);
          i_ += 4;
          // UTF-8 encode the BMP code point (surrogates are not produced
          // by the renderer, which escapes only control bytes).
          if (cp < 0x80) {
            scratch->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            scratch->push_back(static_cast<char>(0xC0 | (cp >> 6)));
            scratch->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            scratch->push_back(static_cast<char>(0xE0 | (cp >> 12)));
            scratch->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            scratch->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: scratch->push_back(e); break;
      }
    }
    return false;
  }
  // Skips to just after the first occurrence of `key` as an object key.
  bool SeekKey(std::string_view key) {
    const std::string quoted = "\"" + std::string(key) + "\"";
    const std::size_t at = s_.find(quoted, i_);
    if (at == std::string_view::npos) return false;
    i_ = at + quoted.size();
    return Eat(':');
  }

 private:
  std::string_view s_;
  std::size_t i_ = 0;
};

}  // namespace

bool DigestSparqlJson(std::string_view json, Digest* out,
                      std::vector<std::uint64_t>* row_hashes) {
  *out = Digest{};
  JsonCursor c(json);
  std::vector<std::string> vars;
  std::string_view view;
  std::string scratch;
  if (!c.SeekKey("vars") || !c.Eat('[')) return false;
  if (!c.Eat(']')) {
    do {
      if (!c.String(&view, &scratch)) return false;
      vars.emplace_back(view);
    } while (c.Eat(','));
    if (!c.Eat(']')) return false;
  }
  if (!c.SeekKey("bindings") || !c.Eat('[')) return false;
  if (c.Eat(']')) return true;
  // Cell values view the document, or their own scratch when escaped.
  std::vector<std::string_view> cells(vars.size());
  std::vector<std::string> cell_scratch(vars.size());
  std::string_view key;
  std::string_view value;
  RowHasher hasher;
  do {
    std::fill(cells.begin(), cells.end(), std::string_view());
    if (!c.Eat('{')) return false;
    if (!c.Eat('}')) {
      do {
        if (!c.String(&key, &scratch) || !c.Eat(':') || !c.Eat('{')) {
          return false;
        }
        const auto var = std::find(vars.begin(), vars.end(), key);
        const std::size_t col = static_cast<std::size_t>(var - vars.begin());
        do {
          if (!c.String(&key, &scratch) || !c.Eat(':')) return false;
          const bool is_value = key == "value" && var != vars.end();
          if (!c.String(&value, is_value ? &cell_scratch[col] : &scratch)) {
            return false;
          }
          if (is_value) cells[col] = value;
        } while (c.Eat(','));
        if (!c.Eat('}')) return false;
      } while (c.Eat(','));
      if (!c.Eat('}')) return false;
    }
    for (std::string_view cell : cells) hasher.Cell(cell);
    const std::uint64_t row = hasher.EndRow(out);
    if (row_hashes != nullptr) row_hashes->push_back(row);
  } while (c.Eat(','));
  return c.Eat(']');
}

bool AnswerMatches(const Request& r, std::string_view json) {
  Digest got;
  if (r.allowed == nullptr) {
    return DigestSparqlJson(json, &got) && got == r.expect;
  }
  std::vector<std::uint64_t> rows;
  if (!DigestSparqlJson(json, &got, &rows) || got.rows != r.expect.rows) {
    return false;
  }
  return std::all_of(rows.begin(), rows.end(), [&r](std::uint64_t h) {
    return std::binary_search(r.allowed->begin(), r.allowed->end(), h);
  });
}

HttpClient::~HttpClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool HttpClient::Connect(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = 60;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
}

bool HttpClient::Call(const char* method, const char* path,
                      std::string_view body, int* status,
                      std::string* response) {
  if (fd_ < 0) return false;
  std::string wire;
  wire.reserve(body.size() + 128);
  wire += method;
  wire += ' ';
  wire += path;
  wire += " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: ";
  wire += std::to_string(body.size());
  wire += "\r\n\r\n";
  wire += body;
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n =
        ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  auto fail = [this] {
    ::close(fd_);
    fd_ = -1;
    return false;
  };
  char chunk[65536];
  std::size_t header_end = std::string::npos;
  while ((header_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return fail();
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
  const std::string_view head(buf_.data(), header_end);
  const std::size_t sp = head.find(' ');
  if (sp == std::string_view::npos) return fail();
  *status = std::atoi(std::string(head.substr(sp + 1, 3)).c_str());
  std::size_t length = 0;
  std::string lower(head);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char ch) { return std::tolower(ch); });
  const std::size_t cl = lower.find("content-length:");
  if (cl != std::string::npos) {
    length = std::strtoull(lower.c_str() + cl + 15, nullptr, 10);
  }
  const std::size_t body_start = header_end + 4;
  while (buf_.size() < body_start + length) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return fail();
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
  response->assign(buf_, body_start, length);
  buf_.erase(0, body_start + length);
  if (lower.find("connection: close") != std::string::npos) {
    ::close(fd_);
    fd_ = -1;
  }
  return true;
}

double MedianMs(std::vector<std::uint64_t> ns) {
  if (ns.empty()) return 0;
  const std::size_t mid = ns.size() / 2;
  std::nth_element(ns.begin(), ns.begin() + mid, ns.end());
  double m = static_cast<double>(ns[mid]);
  if (ns.size() % 2 == 0) {
    m = (m + static_cast<double>(
                 *std::max_element(ns.begin(), ns.begin() + mid))) /
        2;
  }
  return m / 1e6;
}

Tail TailMs(std::vector<std::uint64_t> ns) {
  Tail t;
  if (ns.empty()) return t;
  std::sort(ns.begin(), ns.end());
  const double n = static_cast<double>(ns.size());
  for (double p : {95.0, 90.0, 75.0, 50.0}) {
    // Rank of the percentile sample (nearest-rank definition).
    std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, ns.size());
    const std::uint64_t beyond = ns.size() - rank;
    if (beyond >= 10 || p == 50.0) {
      t.value_ms = static_cast<double>(ns[rank - 1]) / 1e6;
      t.percentile = p;
      t.beyond = beyond;
      return t;
    }
  }
  return t;
}

}  // namespace hexabench
