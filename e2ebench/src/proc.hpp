#pragma once
// Child processes of the benchmark (`mcmm serve`, `mcmm cluster`, cold
// `mcmm perfbench` runs): spawned in their own process group with stdout
// on a pipe, stopped with SIGTERM, and always reaped — a cluster's forked
// replicas share the group, so a last-resort SIGKILL reaches them too.

#include <sys/types.h>

#include <optional>
#include <string>
#include <vector>

namespace e2e {

class Child {
 public:
  /// Starts argv[0] (a path) with the given arguments. Throws on failure.
  explicit Child(const std::vector<std::string>& argv);
  ~Child();

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Reads stdout until a line containing `needle` arrives; returns that
  /// line, or nullopt on EOF or after `timeout_s`.
  std::optional<std::string> wait_line(const std::string& needle,
                                       double timeout_s);

  /// Reads stdout to EOF (at most `timeout_s`); nullopt on timeout.
  std::optional<std::string> read_all(double timeout_s);

  /// Waits for exit (SIGKILL to the group after `timeout_s`); returns the
  /// exit code, or -1 when it did not exit normally.
  int wait(double timeout_s);

  /// SIGTERM, then wait() with a `grace_s` budget. Returns the exit code.
  int stop(double grace_s);

 private:
  bool fill(double deadline_s);  ///< one read; false on EOF/timeout
  void kill_group() noexcept;

  pid_t pid_{-1};
  int out_fd_{-1};
  bool reaped_{false};
  int exit_code_{-1};
  std::string buffer_;
};

}  // namespace e2e
