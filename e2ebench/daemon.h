// Starts and stops the shipped daemon (cfq_served) as a child process.
//
// The child gets PR_SET_PDEATHSIG, so it never outlives the benchmark,
// and its stderr goes to a log file; Stop() always waits for it.

#ifndef E2EBENCH_DAEMON_H_
#define E2EBENCH_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace e2e {

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Kill(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Spawns `binary --port=0 <args...>` and waits (up to 30 s) for its
  // "listening on <host>:<port>" line.
  cfq::Status Start(const std::string& binary,
                    const std::vector<std::string>& args,
                    const std::string& log_path);

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  bool running() const { return pid_ > 0; }

  // Peak resident set (VmHWM) of the daemon so far, in MB; 0 if unknown.
  double PeakRssMb() const;

  // Waits up to `timeout_s` for the process to exit (after a shutdown
  // command), then SIGKILLs it. Returns the exit status, or -1 when it
  // had to be killed.
  int Wait(double timeout_s);

  // SIGKILL and reap; a no-op when not running.
  void Kill();

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

}  // namespace e2e

#endif  // E2EBENCH_DAEMON_H_
