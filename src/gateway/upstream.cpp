#include "gateway/upstream.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>

namespace mcmm::gateway {
namespace {

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

int dial_nonblocking(const std::string& host, std::uint16_t port,
                     bool* in_progress) noexcept {
  *in_progress = false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return -1;

  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return -1;
    }
    *in_progress = true;
  }
  return fd;
}

// --- ResponseParser ------------------------------------------------------

ResponseParser::Status ResponseParser::fail() noexcept {
  state_ = State::Done;
  status_ = Status::Error;
  return status_;
}

ResponseParser::Status ResponseParser::feed(std::string_view data) {
  if (state_ == State::Done) return status_;
  if (!data.empty()) saw_bytes_ = true;
  buffer_.append(data);
  return parse();
}

ResponseParser::Status ResponseParser::parse() {
  if (state_ == State::StatusLine) {
    const std::size_t eol = buffer_.find("\r\n", consumed_);
    if (eol == std::string::npos) {
      if (buffer_.size() - consumed_ > kMaxHeaderBytes) return fail();
      return status_;
    }
    const std::string_view line(buffer_.data() + consumed_, eol - consumed_);
    // "HTTP/1.x NNN reason"
    if (line.size() < 12 || line.compare(0, 7, "HTTP/1.") != 0 ||
        line[8] != ' ') {
      return fail();
    }
    version_minor_ = line[7] - '0';
    int code = 0;
    for (int i = 9; i < 12; ++i) {
      const char c = line[static_cast<std::size_t>(i)];
      if (c < '0' || c > '9') return fail();
      code = code * 10 + (c - '0');
    }
    status_code_ = code;
    consumed_ = eol + 2;
    state_ = State::Headers;
  }

  if (state_ == State::Headers) {
    for (;;) {
      const std::size_t eol = buffer_.find("\r\n", consumed_);
      if (eol == std::string::npos) {
        if (buffer_.size() - consumed_ > kMaxHeaderBytes) return fail();
        return status_;
      }
      if (eol == consumed_) {  // blank line: end of headers
        consumed_ += 2;
        const std::string* te = header("transfer-encoding");
        if (te != nullptr) return fail();  // serve never chunks; reject
        const bool bodiless = head_ || status_code_ == 204 ||
                              status_code_ == 304 ||
                              (status_code_ >= 100 && status_code_ < 200);
        content_length_ = 0;
        if (!bodiless) {
          if (const std::string* cl = header("content-length")) {
            std::size_t value = 0;
            if (cl->empty()) return fail();
            for (const char c : *cl) {
              if (c < '0' || c > '9') return fail();
              value = value * 10 + static_cast<std::size_t>(c - '0');
              if (value > kMaxBody) return fail();
            }
            content_length_ = value;
          }
        }
        state_ = State::Body;
        break;
      }
      if (eol - consumed_ > kMaxHeaderBytes ||
          headers_.size() >= 128) {
        return fail();
      }
      const std::string_view line(buffer_.data() + consumed_,
                                  eol - consumed_);
      const std::size_t colon = line.find(':');
      if (colon == std::string_view::npos || colon == 0) return fail();
      headers_.emplace_back(to_lower(line.substr(0, colon)),
                            std::string(trim(line.substr(colon + 1))));
      consumed_ = eol + 2;
    }
  }

  if (state_ == State::Body) {
    const std::size_t have = buffer_.size() - consumed_;
    if (have < content_length_) return status_;
    body_.assign(buffer_, consumed_, content_length_);
    consumed_ += content_length_;
    state_ = State::Done;
    status_ = Status::Complete;
  }
  return status_;
}

const std::string* ResponseParser::header(
    std::string_view name) const noexcept {
  for (const auto& [key, value] : headers_) {
    if (key == name) return &value;
  }
  return nullptr;
}

bool ResponseParser::keep_alive() const noexcept {
  const std::string* conn = header("connection");
  if (conn != nullptr) {
    const std::string lowered = to_lower(*conn);
    if (lowered.find("close") != std::string::npos) return false;
    if (lowered.find("keep-alive") != std::string::npos) return true;
  }
  return version_minor_ >= 1;
}

}  // namespace mcmm::gateway
