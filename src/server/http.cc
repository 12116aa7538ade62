#include "server/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <system_error>

namespace hexastore {

namespace {

int HexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

// Case-insensitive ASCII prefix/equality for header names.
bool IEquals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

bool WriteAll(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

const std::string* HttpRequest::Param(std::string_view name) const {
  for (const auto& [key, value] : params) {
    if (key == name) {
      return &value;
    }
  }
  return nullptr;
}

std::string UrlDecode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%' && i + 2 < text.size()) {
      const int hi = HexVal(text[i + 1]);
      const int lo = HexVal(text[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
      } else {
        out.push_back(c);
      }
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void ParseTarget(std::string_view target, std::string* path,
                 std::vector<std::pair<std::string, std::string>>* params) {
  params->clear();
  const std::size_t q = target.find('?');
  *path = UrlDecode(target.substr(0, q));
  if (q == std::string_view::npos) {
    return;
  }
  std::string_view rest = target.substr(q + 1);
  while (!rest.empty()) {
    const std::size_t amp = rest.find('&');
    const std::string_view pair = rest.substr(0, amp);
    const std::size_t eq = pair.find('=');
    if (!pair.empty()) {
      params->emplace_back(
          UrlDecode(pair.substr(0, eq)),
          eq == std::string_view::npos ? std::string()
                                       : UrlDecode(pair.substr(eq + 1)));
    }
    if (amp == std::string_view::npos) {
      break;
    }
    rest.remove_prefix(amp + 1);
  }
}

Result<int> ListenTcp(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("unparsable listen address: " + host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("bind " + host + ":" + std::to_string(port) +
                            ": " + err);
  }
  if (::listen(fd, 128) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("listen: " + err);
  }
  return fd;
}

std::uint16_t BoundPort(int listen_fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

ReadOutcome ReadHttpRequest(int fd, std::size_t max_bytes,
                            HttpRequest* out) {
  std::string buf;
  std::size_t header_end = std::string::npos;
  char chunk[4096];
  // Headers first.
  while (header_end == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ReadOutcome::kClosed;
    }
    if (n == 0) {
      return buf.empty() ? ReadOutcome::kClosed : ReadOutcome::kBad;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
    if (buf.size() > max_bytes) {
      return ReadOutcome::kTooLarge;
    }
    header_end = buf.find("\r\n\r\n");
  }

  // Request line.
  const std::size_t line_end = buf.find("\r\n");
  std::string_view line(buf.data(), line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) {
    return ReadOutcome::kBad;
  }
  out->method = std::string(line.substr(0, sp1));
  ParseTarget(line.substr(sp1 + 1, sp2 - sp1 - 1), &out->path,
              &out->params);
  out->keep_alive = line.substr(sp2 + 1) != "HTTP/1.0";

  // Headers we care about.
  std::size_t content_length = 0;
  std::size_t pos = line_end + 2;
  while (pos < header_end) {
    const std::size_t eol = buf.find("\r\n", pos);
    const std::string_view header(buf.data() + pos, eol - pos);
    const std::size_t colon = header.find(':');
    if (colon != std::string_view::npos) {
      const std::string_view name = Trim(header.substr(0, colon));
      const std::string_view value = Trim(header.substr(colon + 1));
      if (IEquals(name, "content-length")) {
        // Digits only: no sign, no inner whitespace. A well-formed value
        // too big for size_t is oversized, not malformed.
        const char* end = value.data() + value.size();
        const auto [ptr, ec] =
            std::from_chars(value.data(), end, content_length);
        if (ptr != end || ec == std::errc::invalid_argument) {
          return ReadOutcome::kBad;
        }
        if (ec == std::errc::result_out_of_range) {
          return ReadOutcome::kTooLarge;
        }
      } else if (IEquals(name, "connection")) {
        if (IEquals(value, "close")) {
          out->keep_alive = false;
        } else if (IEquals(value, "keep-alive")) {
          out->keep_alive = true;
        }
      }
    }
    pos = eol + 2;
  }

  const std::size_t body_start = header_end + 4;
  // body_start <= buf.size() <= max_bytes, so the subtraction cannot
  // wrap (an addition could, for a length near SIZE_MAX).
  if (content_length > max_bytes - body_start) {
    return ReadOutcome::kTooLarge;
  }
  while (buf.size() < body_start + content_length) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ReadOutcome::kClosed;
    }
    if (n == 0) {
      return ReadOutcome::kBad;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  out->body = buf.substr(body_start, content_length);
  return ReadOutcome::kOk;
}

bool WriteHttpResponse(int fd, const HttpResponse& response,
                       bool keep_alive) {
  // One buffer, one send: writing head and body as two segments stalls
  // ~40ms per response behind Nagle + the peer's delayed ACK.
  std::string wire = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     StatusReason(response.status) + "\r\n";
  wire += "Content-Type: " + response.content_type + "\r\n";
  wire += "Content-Length: " + std::to_string(response.body.size()) +
          "\r\n";
  wire += keep_alive ? "Connection: keep-alive\r\n"
                     : "Connection: close\r\n";
  wire += "\r\n";
  wire += response.body;
  return WriteAll(fd, wire.data(), wire.size());
}

}  // namespace hexastore
