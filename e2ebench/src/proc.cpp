#include "proc.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

#include "common.hpp"

namespace e2e {
namespace {

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

}  // namespace

Child::Child(const std::vector<std::string>& argv) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    ::setpgid(0, 0);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::setpgid(pid_, pid_);  // also in the parent: no race with kill_group
  ::close(fds[1]);
  out_fd_ = fds[0];
}

Child::~Child() {
  if (!reaped_) {
    kill_group();
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

void Child::kill_group() noexcept {
  ::kill(-pid_, SIGKILL);
  ::kill(pid_, SIGKILL);
}

bool Child::fill(double deadline_s) {
  const double left = deadline_s - now_s();
  if (left <= 0 || out_fd_ < 0) return false;
  pollfd p{out_fd_, POLLIN, 0};
  const int r = ::poll(&p, 1, static_cast<int>(left * 1000) + 1);
  if (r <= 0) return r < 0 && errno == EINTR;
  char buf[65536];
  const ssize_t n = ::read(out_fd_, buf, sizeof buf);
  if (n <= 0) {
    if (n < 0 && errno == EINTR) return true;
    ::close(out_fd_);
    out_fd_ = -1;
    return false;
  }
  buffer_.append(buf, static_cast<std::size_t>(n));
  return true;
}

std::optional<std::string> Child::wait_line(const std::string& needle,
                                            double timeout_s) {
  const double deadline = now_s() + timeout_s;
  for (;;) {
    std::size_t start = 0;
    for (std::size_t nl; (nl = buffer_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      const std::string line = buffer_.substr(start, nl - start);
      if (line.find(needle) != std::string::npos) {
        buffer_.erase(0, nl + 1);
        return line;
      }
    }
    buffer_.erase(0, start);
    if (!fill(deadline)) return std::nullopt;
  }
}

std::optional<std::string> Child::read_all(double timeout_s) {
  const double deadline = now_s() + timeout_s;
  while (out_fd_ >= 0) {
    if (!fill(deadline) && out_fd_ >= 0) return std::nullopt;
  }
  return std::move(buffer_);
}

int Child::wait(double timeout_s) {
  if (reaped_) return exit_code_;
  const double deadline = now_s() + timeout_s;
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0 && errno != EINTR) return -1;
    if (now_s() > deadline) {
      kill_group();
      ::waitpid(pid_, &status, 0);
      reaped_ = true;
      return exit_code_ = -1;
    }
    ::usleep(2000);
  }
  reaped_ = true;
  // Whatever the child left behind in its group (a cluster's replicas
  // after a failed drain) goes with it.
  ::kill(-pid_, SIGKILL);
  exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return exit_code_;
}

int Child::stop(double grace_s) {
  if (!reaped_) ::kill(pid_, SIGTERM);
  return wait(grace_s);
}

}  // namespace e2e
